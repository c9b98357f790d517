open Sinfonia
module Ops = Btree.Ops
module Layout = Btree.Layout
module Bnode = Btree.Bnode
module Node_alloc = Btree.Node_alloc
module Txn = Dyntxn.Txn
module Objref = Dyntxn.Objref

let encode_sid sid =
  let e = Codec.Enc.create ~initial_size:8 () in
  Codec.Enc.i64 e sid;
  Codec.Enc.to_string e

let decode_sid s = if String.length s = 0 then 0L else Codec.Dec.i64 (Codec.Dec.of_string s)

let with_txn tree f =
  let rec attempt tries =
    if tries > 64 then failwith "Gc: transaction starved";
    let txn = Txn.begin_ (Ops.cluster tree) ~home:(Ops.home tree) in
    let v = f txn in
    match Txn.commit txn with
    | Txn.Committed -> v
    | Txn.Validation_failed | Txn.Retry_exhausted | Txn.Unavailable _ -> attempt (tries + 1)
  in
  attempt 0

let lowest_off tree = Layout.lowest_sid_off (Ops.layout tree) ~tree:(Ops.tree_id tree)

let set_lowest tree sid =
  with_txn tree (fun txn ->
      Txn.write_replicated txn ~off:(lowest_off tree) ~len:Layout.slot_len_small (encode_sid sid))

let get_lowest tree =
  with_txn tree (fun txn ->
      decode_sid
        (Txn.dirty_read_replicated txn ~off:(lowest_off tree) ~len:Layout.slot_len_small))

let keep_recent tree ~n =
  let tip =
    with_txn tree (fun txn ->
        let sid, _ = Ops.Linear.read_tip tree txn in
        sid)
  in
  let watermark = Int64.sub tip (Int64.of_int n) in
  if Int64.compare watermark 0L > 0 then set_lowest tree watermark

(* Reclaim one slot transactionally: only if it still holds the node
   version we examined (compare on the sequence number) do we free it.
   A concurrent writer reusing or updating the slot wins the race.
   Freeing zeroes only the 12-byte header: the slot then reads as
   sequence number 0 with an empty payload, so the stale bytes after the
   header are never exposed, and the next write of the slot (a blind
   write, so always whole) overwrites the prefix it uses. *)
let reclaim tree (ref_ : Objref.t) ~observed_seq =
  let cluster = Ops.cluster tree in
  let seq_bytes =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 observed_seq;
    Bytes.to_string b
  in
  let zeros = String.make Objref.header_size '\000' in
  let mtx =
    Mtx.make
      ~compares:[ Mtx.compare_at ref_.Objref.addr seq_bytes ]
      ~writes:[ Mtx.write_at ref_.Objref.addr zeros ]
      ()
  in
  match Coordinator.exec cluster mtx with
  | Mtx.Committed _ -> true
  | Mtx.Failed_compare _ | Mtx.Busy | Mtx.Unavailable _ -> false

(* Number of slot indices on the store's memnode that the allocator has
   ever handed out, read from the memnode's own allocation pointer.
   Every node slot is reserved through that pointer before it is
   written, so slots at or past it hold nothing a sweep could reclaim. *)
let allocated_slots layout store =
  let slot =
    Memnode.read_trimmed (Memnode.store_heap store) ~off:(Layout.alloc_ptr_off layout)
      ~len:Layout.slot_len_small
  in
  let next = Int64.to_int (decode_sid (Objref.payload_of_slot slot)) in
  max 0 (min next layout.Layout.max_slots)

(* A node slot as seen by a sweep running at its memnode: the header,
   and for a non-empty slot only the used prefix after it. *)
let read_slot store (ref_ : Objref.t) =
  Memnode.read_trimmed (Memnode.store_heap store) ~off:ref_.Objref.addr.Address.off
    ~len:ref_.Objref.len

let sweep tree ~alloc =
  let cluster = Ops.cluster tree in
  let layout = Ops.layout tree in
  let lowest = get_lowest tree in
  let freed = ref 0 in
  if Int64.compare lowest 0L > 0 then
    for node = 0 to Cluster.n_memnodes cluster - 1 do
      let mn, store = Cluster.route cluster node in
      for index = 0 to allocated_slots layout store - 1 do
        (* The sweep runs at the memnode itself: read the slot locally,
           paying a small CPU cost per batch. *)
        if index mod 128 = 0 then Memnode.serve mn ~cost:2e-6;
        let ref_ = Layout.node_ref layout ~node ~index in
        let slot = read_slot store ref_ in
        let seq = Objref.seq_of_slot slot in
        if Int64.compare seq 0L <> 0 then begin
          match Bnode.decode (Objref.payload_of_slot slot) with
          | exception Codec.Decode_error _ ->
              (* Not a B-tree node (or torn): skip it. Anything else —
                 in particular Memnode.Crashed — propagates. *)
              ()
          | bnode ->
              (* Collectable iff superseded at or below the watermark:
                 no snapshot above the watermark can reach it. *)
              let collectable =
                Array.exists
                  (fun d -> Int64.compare d lowest <= 0)
                  bnode.Bnode.descendants
              in
              if collectable && reclaim tree ref_ ~observed_seq:seq then begin
                Node_alloc.free alloc ref_;
                incr freed;
                Obs.Counter.incr (Obs.gc (Cluster.obs cluster)).Obs.slots_reclaimed
              end
        end
      done
    done;
  !freed

let sweep_branching trees ~alloc ~roots =
  let tree = match trees with [] -> invalid_arg "Gc.sweep_branching: no trees" | t :: _ -> t in
  let cluster = Ops.cluster tree in
  let layout = Ops.layout tree in
  (* Anything committed after this point has a sequence number >= floor
     and is spared even if the mark phase cannot see it yet. *)
  let seq_floor = Cluster.owner_watermark cluster in
  let marked : (Objref.t, unit) Hashtbl.t = Hashtbl.create 4096 in
  let read_node (ptr : Objref.t) =
    let mn, store = Cluster.route cluster (Objref.node ptr) in
    Memnode.serve mn ~cost:1e-6;
    let slot = read_slot store ptr in
    if Int64.compare (Objref.seq_of_slot slot) 0L = 0 then None
    else
      match Bnode.decode (Objref.payload_of_slot slot) with
      | n -> Some n
      | exception Codec.Decode_error _ ->
          (* Slot holds something that is not a B-tree node; crashes
             and other exceptions propagate to the GC driver. *)
          None
  in
  let rec mark ptr =
    if not (Hashtbl.mem marked ptr) then begin
      Hashtbl.replace marked ptr ();
      match read_node ptr with
      | None -> ()
      | Some n -> (
          match n.Bnode.body with
          | Bnode.Leaf _ -> ()
          | Bnode.Internal { children; _ } -> Array.iter mark children)
    end
  in
  List.iter mark roots;
  (* Sweep: reclaim unmarked node slots older than the floor. *)
  let freed = ref 0 in
  for node = 0 to Cluster.n_memnodes cluster - 1 do
    let mn, store = Cluster.route cluster node in
    for index = 0 to allocated_slots layout store - 1 do
      if index mod 128 = 0 then Memnode.serve mn ~cost:2e-6;
      let ref_ = Layout.node_ref layout ~node ~index in
      let slot = read_slot store ref_ in
      let seq = Objref.seq_of_slot slot in
      if Int64.compare seq 0L <> 0 && Int64.compare seq seq_floor < 0 then begin
        if (not (Hashtbl.mem marked ref_)) && Objref.payload_of_slot slot <> "" then begin
          match Bnode.decode (Objref.payload_of_slot slot) with
          | exception Codec.Decode_error _ ->
              (* Not a B-tree node: never reclaim what we cannot prove
                 is a node slot. Crashes propagate. *)
              ()
          | (_ : Bnode.t) ->
              if reclaim tree ref_ ~observed_seq:seq then begin
                Node_alloc.free alloc ref_;
                incr freed;
                Obs.Counter.incr (Obs.gc (Cluster.obs cluster)).Obs.branch_slots_reclaimed
              end
        end
      end
    done
  done;
  !freed

let run_background tree ~alloc ~interval =
  Sim.spawn ~name:"gc" (fun () ->
      let rec loop () =
        Sim.delay interval;
        let (_ : int) = sweep tree ~alloc in
        loop ()
      in
      loop ())
