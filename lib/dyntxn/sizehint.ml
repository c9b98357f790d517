type t = { table : (Objref.t, int) Hashtbl.t; capacity : int }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Sizehint.create: capacity must be positive";
  { table = Hashtbl.create 256; capacity }

let find t ref_ = Hashtbl.find_opt t.table ref_

let note t (ref_ : Objref.t) ~used =
  if used >= Objref.header_size && used <= ref_.Objref.len then begin
    (* Dropping everything at once keeps the table bounded without any
       recency bookkeeping, and the outcome cannot depend on hash
       order. *)
    if Hashtbl.length t.table >= t.capacity && not (Hashtbl.mem t.table ref_) then
      Hashtbl.reset t.table;
    Hashtbl.replace t.table ref_ used
  end

let size t = Hashtbl.length t.table
