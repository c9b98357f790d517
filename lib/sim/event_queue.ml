(* Binary min-heap ordered by (time, sequence number).  The sequence
   number breaks ties FIFO so that runs are deterministic. *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array; (* valid in [0, size) *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let length t = t.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Ensure capacity for one more element, using [filler] for fresh cells. *)
let reserve t filler =
  if t.size = Array.length t.heap then begin
    let capacity = max 64 (2 * Array.length t.heap) in
    let bigger = Array.make capacity filler in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t ~time payload =
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  reserve t entry;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop_entry t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    (* Keep the vacated slot pointing at the just-popped entry: it
       bounds retained garbage to one already-delivered payload per
       slot without needing an option type. *)
    t.heap.(t.size) <- top;
    if t.size > 0 then sift_down t 0;
    Some top
  end

let pop t = match pop_entry t with Some e -> Some (e.time, e.payload) | None -> None

let peek_time t = if t.size = 0 then None else Some t.heap.(0).time

let clear t =
  t.heap <- [||];
  t.size <- 0
