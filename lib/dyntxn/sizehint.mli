(** Per-proxy table of slot size hints.

    For each object slot the proxy has read or written, the last-seen
    used length: the 12-byte header plus the payload. Fetches size their
    read ranges from it instead of asking for the whole slot (see
    {!Txn}). A hint holds no object content, so keeping one for a leaf
    does not cache the leaf. A wrong hint costs at most one extra
    fetch, never a wrong answer: a reply whose header declares more
    bytes than came back is re-fetched at full slot length.

    The table is bounded: when an insert would exceed [capacity], every
    hint is dropped and the table re-warms from later replies. *)

type t

val create : capacity:int -> t

val find : t -> Objref.t -> int option
(** The last recorded used length of the object's slot. *)

val note : t -> Objref.t -> used:int -> unit
(** Record a used length seen on a fetched slot header or a committed
    write. Lengths outside [header_size, slot length] are ignored. *)

val size : t -> int
