(** Bounded memo of parsed node views, shared by every tree handle of
    one deployment.

    Node versions are immutable, so an object reference and its
    sequence number name one parsed view forever. The memo is a fixed
    array of {!entries} slots, indexed by a hash of the node's address
    and sequence number; each slot holds one [(ref, seq, view)]. A
    lookup hits only when both the reference and the sequence number
    match, and an insert overwrites whatever its slot held, so the memo
    never grows and is never flushed wholesale.

    Purely a host-side saving: no simulated cost depends on it. Create
    one per deployment, never one per process: addresses and sequence
    numbers repeat across simulations. *)

type t

val entries : int
(** Slot count (a power of two). *)

val create : unit -> t

val find : t -> Dyntxn.Objref.t -> int64 -> Bnode.View.t option
(** The view memoised for this reference at this sequence number. *)

val add : t -> Dyntxn.Objref.t -> int64 -> Bnode.View.t -> unit
(** Memoise a view parsed from the committed version [seq] of the
    reference, replacing the slot's previous entry. *)

val length : t -> int
(** Occupied slots. *)
