(* Self-time attribution over a stream of finished spans.

   Spans arrive in the order they finish: children normally before their
   parent, but a child running in a spawned process (a scan prefetch, a
   parallel 2PC leg) may finish after it. Finished spans are therefore
   buffered until their tree's root has been finished for [grace]
   simulated seconds, and only then walked root-first. A span's self
   time is its duration minus the union of its children's intervals,
   clipped to the span itself, so overlapping children are not charged
   twice. Trees whose root the caller does not count (requests that
   completed before the measured window, background daemons) are
   walked and dropped the same way, so memory stays bounded by the
   spans finished within the last [grace] seconds. *)

type kind =
  | Request  (** The benchmark's span around one whole operation. *)
  | Call of string  (** The benchmark's span around one [Session] call. *)
  | Obs of Obs.Span.kind  (** A span recorded inside the program. *)

type span = { id : int; parent : int; kind : kind; start : float; stop : float }

let label = function
  | Request -> "bench.request"
  | Call name -> "bench.session." ^ name
  | Obs k -> Obs.Span.kind_to_string k

type layer = Core | Dyntxn | Btree | Sinfonia | Mvcc | Other

let layers = [ Core; Dyntxn; Btree; Sinfonia; Mvcc; Other ]

let layer_name = function
  | Core -> "core"
  | Dyntxn -> "dyntxn"
  | Btree -> "btree"
  | Sinfonia -> "sinfonia"
  | Mvcc -> "mvcc"
  | Other -> "other"

let layer_of = function
  | Request | Call _ -> Core
  | Obs k -> (
      match k with
      | Obs.Span.Op _ -> Core
      | Obs.Span.Txn | Obs.Span.Attempt | Obs.Span.Commit -> Dyntxn
      | Obs.Span.Traversal | Obs.Span.Scan_batch -> Btree
      | Obs.Span.Mtx_exec | Obs.Span.Mtx_prepare | Obs.Span.Mtx_commit -> Sinfonia
      | Obs.Span.Snapshot_create | Obs.Span.Scs_request -> Mvcc
      | Obs.Span.Fault _ | Obs.Span.Recovery_sweep -> Other)

(* Accumulated self time and span count for one label. *)
type acc = { mutable self : float; mutable n : int }

(* How long a root is held after it finishes, in simulated seconds: far
   longer than any straggler child (a prefetch or 2PC leg outlives its
   parent by at most a round trip), and short enough to keep few spans
   buffered. *)
let grace = 0.1

type t = {
  counted : span -> bool;  (** Decides, per root, whether its tree is attributed. *)
  nodes : (int, span) Hashtbl.t;
  children : (int, int list) Hashtbl.t;
  roots : span Queue.t;
  by_label : (string, acc) Hashtbl.t;
  by_layer : float array;  (** Indexed like [layers]. *)
  mutable roots_counted : int;
  mutable root_time : float;  (** Summed duration of counted roots. *)
  mutable finalized : int;
}

let create ~counted () =
  {
    counted;
    nodes = Hashtbl.create 4096;
    children = Hashtbl.create 4096;
    roots = Queue.create ();
    by_label = Hashtbl.create 32;
    by_layer = Array.make (List.length layers) 0.0;
    roots_counted = 0;
    root_time = 0.0;
    finalized = 0;
  }

let layer_index l =
  let rec go i = function [] -> i | x :: tl -> if x = l then i else go (i + 1) tl in
  go 0 layers

(* Length of the union of [ivs], each clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let rec sweep total cur_a cur_b = function
    | [] -> total +. (cur_b -. cur_a)
    | (a, b) :: tl ->
        if a > cur_b then sweep (total +. (cur_b -. cur_a)) a b tl
        else sweep total cur_a (Float.max cur_b b) tl
  in
  match clipped with [] -> 0.0 | (a, b) :: tl -> sweep 0.0 a b tl

let add t sp =
  Hashtbl.replace t.nodes sp.id sp;
  if sp.parent = 0 then Queue.add sp t.roots
  else
    let sibs = Option.value (Hashtbl.find_opt t.children sp.parent) ~default:[] in
    Hashtbl.replace t.children sp.parent (sp.id :: sibs)

let charge t sp self =
  let lbl = label sp.kind in
  let a =
    match Hashtbl.find_opt t.by_label lbl with
    | Some a -> a
    | None ->
        let a = { self = 0.0; n = 0 } in
        Hashtbl.add t.by_label lbl a;
        a
  in
  a.self <- a.self +. self;
  a.n <- a.n + 1;
  let i = layer_index (layer_of sp.kind) in
  t.by_layer.(i) <- t.by_layer.(i) +. self

let rec finalize t ~counted id =
  match Hashtbl.find_opt t.nodes id with
  | None -> ()
  | Some sp ->
      Hashtbl.remove t.nodes id;
      let kids = Option.value (Hashtbl.find_opt t.children id) ~default:[] in
      Hashtbl.remove t.children id;
      t.finalized <- t.finalized + 1;
      if counted then begin
        let ivs =
          List.filter_map
            (fun k -> Option.map (fun c -> (c.start, c.stop)) (Hashtbl.find_opt t.nodes k))
            kids
        in
        charge t sp (sp.stop -. sp.start -. covered ~lo:sp.start ~hi:sp.stop ivs)
      end;
      List.iter (finalize t ~counted) kids

let finalize_root t sp =
  let counted = t.counted sp in
  if counted then begin
    t.roots_counted <- t.roots_counted + 1;
    t.root_time <- t.root_time +. (sp.stop -. sp.start)
  end;
  finalize t ~counted sp.id

(* Walk every root finished at least [grace] before [now]. *)
let advance t ~now =
  let rec go () =
    match Queue.peek_opt t.roots with
    | Some sp when sp.stop +. grace <= now ->
        ignore (Queue.pop t.roots : span);
        finalize_root t sp;
        go ()
    | _ -> ()
  in
  go ()

(* Walk every remaining root; returns the spans no root reached (their
   parent never finished, or finished more than [grace] before them). *)
let flush t =
  Queue.iter (finalize_root t) t.roots;
  Queue.clear t.roots;
  let orphans = Hashtbl.length t.nodes in
  Hashtbl.reset t.nodes;
  Hashtbl.reset t.children;
  orphans

let self_of t lbl = match Hashtbl.find_opt t.by_label lbl with Some a -> a.self | None -> 0.0

let count_of t lbl = match Hashtbl.find_opt t.by_label lbl with Some a -> a.n | None -> 0

let layer_self t l = t.by_layer.(layer_index l)

let roots_counted t = t.roots_counted

let root_time t = t.root_time

let finalized t = t.finalized

(* ------------------------------------------------------------------ *)
(* Self-test of the arithmetic above, run before every traced pass.   *)
(* ------------------------------------------------------------------ *)

let self_test () =
  let eps = 1e-9 in
  let failures = ref [] in
  let expect name ok = if not ok then failures := name :: !failures in
  let close a b = Float.abs (a -. b) < eps in
  let sp id parent kind start stop = { id; parent; kind; start; stop } in
  let all _ = true in
  (* Overlapping children, as from a scan's prefetch process: the
     parent is charged [0,10] minus the union [1,6], not minus 3 + 3. *)
  let t = create ~counted:all () in
  add t (sp 2 1 (Obs Obs.Span.Scan_batch) 1.0 4.0);
  add t (sp 3 1 (Obs Obs.Span.Scan_batch) 3.0 6.0);
  add t (sp 1 0 (Obs Obs.Span.Attempt) 0.0 10.0);
  advance t ~now:100.0;
  expect "overlap: parent self" (close (self_of t "txn.attempt") 5.0);
  expect "overlap: children self" (close (self_of t "btree.scan_batch") 6.0);
  expect "overlap: no orphans" (flush t = 0);
  (* Children drained before their parent, in separate batches, and one
     child finishing after its parent (and past its end, so clipped). *)
  let t = create ~counted:all () in
  add t (sp 11 10 (Obs Obs.Span.Mtx_exec) 2.0 3.0);
  advance t ~now:3.0;
  add t (sp 10 0 (Obs Obs.Span.Txn) 1.0 5.0);
  advance t ~now:5.0;
  add t (sp 12 10 (Obs Obs.Span.Mtx_exec) 4.0 7.0);
  advance t ~now:5.05;
  expect "late child: root held within grace" (count_of t "txn" = 0);
  advance t ~now:6.0;
  expect "late child: parent self" (close (self_of t "txn") 2.0);
  expect "late child: children self" (close (self_of t "mtx.exec") 4.0);
  expect "late child: no orphans" (flush t = 0);
  (* A child arriving after its tree was walked is reported as an
     orphan instead of silently vanishing. *)
  let t = create ~counted:all () in
  add t (sp 20 0 (Obs Obs.Span.Txn) 0.0 1.0);
  advance t ~now:2.0;
  add t (sp 21 20 (Obs Obs.Span.Mtx_exec) 0.5 2.0);
  expect "straggler: orphan reported" (flush t = 1);
  (* A request tree without overlaps: per-layer self times sum to the
     request's latency. *)
  let t = create ~counted:all () in
  List.iter (add t)
    [
      sp 105 104 (Obs Obs.Span.Mtx_exec) 2.5 2.9;
      sp 104 103 (Obs Obs.Span.Traversal) 2.0 3.0;
      sp 107 106 (Obs Obs.Span.Mtx_commit) 5.0 7.0;
      sp 106 103 (Obs Obs.Span.Commit) 4.0 8.0;
      sp 103 102 (Obs Obs.Span.Attempt) 1.5 8.5;
      sp 102 101 (Obs Obs.Span.Txn) 1.2 8.8;
      sp 101 (-2) (Obs (Obs.Span.Op (Obs.Op.Get, Obs.Op.Up_to_date))) 1.0 9.0;
    ];
  add t (sp (-2) (-1) (Call "get") 0.9 9.5);
  add t (sp (-1) 0 Request 0.0 10.0);
  advance t ~now:20.0;
  let sum = List.fold_left (fun acc l -> acc +. layer_self t l) 0.0 layers in
  expect "sum: layers add up to the request" (close sum 10.0);
  expect "sum: root time" (close (root_time t) 10.0);
  expect "sum: request self" (close (self_of t "bench.request") 1.4);
  expect "sum: sinfonia self" (close (layer_self t Sinfonia) 2.4);
  expect "sum: all spans walked" (finalized t = 9 && flush t = 0);
  List.rev !failures
