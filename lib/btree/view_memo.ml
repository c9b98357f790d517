module Objref = Dyntxn.Objref
module View = Bnode.View

type entry = { ref_ : Objref.t; seq : int64; view : View.t }

type t = entry option array

let bits = 12

let entries = 1 lsl bits

let create () = Array.make entries None

(* Multiplicative hashing of address and version, keeping the
   product's top bits: slot offsets are multiples of the node size, so
   their low bits carry no information. The version is part of the
   hash because proxies' caches hold different versions of the same
   internal node; hashed by address alone, those versions evicted each
   other on every traversal. *)
let slot (r : Objref.t) seq =
  let a = r.Objref.addr in
  let h =
    a.Sinfonia.Address.off
    + (a.Sinfonia.Address.node * 0x100_0003)
    + (Int64.to_int seq * 0x1F3D_5B79)
  in
  (h * 0x9E37_79B9_7F4A_7C1) lsr (Sys.int_size - bits)

let find t r seq =
  match t.(slot r seq) with
  | Some e when Int64.equal e.seq seq && Objref.equal e.ref_ r -> Some e.view
  | Some _ | None -> None

let add t r seq view = t.(slot r seq) <- Some { ref_ = r; seq; view }

let length t = Array.fold_left (fun n e -> if Option.is_some e then n + 1 else n) 0 t
