(* Paged sparse storage: only written 4 KiB pages materialize, so a
   large, mostly-empty address space (e.g. the baseline mode's
   replicated sequence-number table region) costs nothing. Each page is
   stored only up to its highest written byte (its extent, rounded up to
   [extent_grain]); bytes past the extent read as zeros. Node slots are
   page-aligned and rarely full, so a page usually holds one slot's used
   prefix and nothing of its zero tail. *)

let page_bits = 12

let page_size = 1 lsl page_bits

(* Extents grow in steps of this many bytes, so a slot that grows by one
   entry at a time is not reallocated on every write. *)
let extent_grain = 256

type t = {
  pages : (int, Bytes.t) Hashtbl.t;  (* page index -> stored prefix *)
  mutable high : int;
  mutable stored : int;  (* sum of the stored prefixes' lengths *)
  capacity : int;
}

exception Out_of_space

let create ?(capacity = 1 lsl 30) () =
  if capacity <= 0 then invalid_arg "Heap.create: capacity must be positive";
  { pages = Hashtbl.create 64; high = 0; stored = 0; capacity }

let capacity t = t.capacity

let high_water t = t.high

let resident t = t.stored

let extent_for len = min page_size ((len + extent_grain - 1) / extent_grain * extent_grain)

(* The stored prefix of page [idx], grown (zero-filled) to cover at
   least [upto] bytes. *)
let page_for t idx ~upto =
  match Hashtbl.find_opt t.pages idx with
  | Some p when Bytes.length p >= upto -> p
  | found ->
      let old = match found with Some p -> p | None -> Bytes.empty in
      let p = Bytes.make (extent_for upto) '\000' in
      Bytes.blit old 0 p 0 (Bytes.length old);
      t.stored <- t.stored + Bytes.length p - Bytes.length old;
      Hashtbl.replace t.pages idx p;
      p

(* Iterate over the page-aligned spans of [off, off+len). *)
let iter_spans ~off ~len f =
  let pos = ref off in
  let remaining = ref len in
  while !remaining > 0 do
    let page = !pos lsr page_bits in
    let in_page = !pos land (page_size - 1) in
    let span = min !remaining (page_size - in_page) in
    f ~page ~in_page ~src_off:(!pos - off) ~span;
    pos := !pos + span;
    remaining := !remaining - span
  done

let write t ~off data =
  let len = String.length data in
  if off < 0 then invalid_arg "Heap.write: negative offset";
  if len = 0 then invalid_arg "Heap.write: empty write";
  if off + len > t.capacity then raise Out_of_space;
  iter_spans ~off ~len (fun ~page ~in_page ~src_off ~span ->
      Bytes.blit_string data src_off (page_for t page ~upto:(in_page + span)) in_page span);
  if off + len > t.high then t.high <- off + len

(* The part of [in_page, in_page + span) that lies inside a stored
   prefix of length [stored]. *)
let stored_span ~stored ~in_page ~span = max 0 (min span (stored - in_page))

let read t ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Heap.read: negative offset or length";
  if off + len > t.capacity then invalid_arg "Heap.read: beyond capacity";
  if len = 0 then ""
  else begin
    let buf = Bytes.make len '\000' in
    iter_spans ~off ~len (fun ~page ~in_page ~src_off ~span ->
        match Hashtbl.find_opt t.pages page with
        | Some p ->
            let n = stored_span ~stored:(Bytes.length p) ~in_page ~span in
            if n > 0 then Bytes.blit p in_page buf src_off n
        | None -> ());
    Bytes.unsafe_to_string buf
  end

let equal_at t ~off expected =
  let len = String.length expected in
  if off < 0 || off + len > t.capacity then false
  else begin
    let ok = ref true in
    iter_spans ~off ~len (fun ~page ~in_page ~src_off ~span ->
        if !ok then begin
          let p = match Hashtbl.find_opt t.pages page with Some p -> p | None -> Bytes.empty in
          let n = stored_span ~stored:(Bytes.length p) ~in_page ~span in
          (* Stored bytes compare as stored; the rest reads as zeros. *)
          let rec cmp i =
            if i = span then true
            else
              let c = if i < n then Bytes.unsafe_get p (in_page + i) else '\000' in
              if c <> expected.[src_off + i] then false else cmp (i + 1)
          in
          if not (cmp 0) then ok := false
        end);
    !ok
  end

let snapshot t = read t ~off:0 ~len:t.high

(* Store each page-sized chunk of [contents] up to its last nonzero
   byte; all-zero chunks store nothing. *)
let restore t contents =
  let total = String.length contents in
  if total > t.capacity then raise Out_of_space;
  Hashtbl.reset t.pages;
  t.stored <- 0;
  let pages = (total + page_size - 1) / page_size in
  for page = 0 to pages - 1 do
    let base = page * page_size in
    let rec last_nonzero i =
      if i < 0 then -1 else if contents.[base + i] <> '\000' then i else last_nonzero (i - 1)
    in
    let used = last_nonzero (min page_size (total - base) - 1) + 1 in
    if used > 0 then Bytes.blit_string contents base (page_for t page ~upto:used) 0 used
  done;
  t.high <- total
