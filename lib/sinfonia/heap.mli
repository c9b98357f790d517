(** A memnode's linear byte-addressable storage.

    Storage is paged and sparse: only written 4 KiB pages consume
    memory, up to a configurable capacity that mirrors the memnode's
    DRAM budget, and each page is stored only up to its highest written
    byte (rounded up to 256 bytes). Reads of never-written bytes return
    zeros (as freshly mapped memory would). *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 1 GiB of simulated address space. *)

val capacity : t -> int

val high_water : t -> int
(** Highest offset ever written + 1 (0 if untouched). *)

val resident : t -> int
(** Bytes actually stored: the sum of the pages' stored prefixes. *)

exception Out_of_space

val write : t -> off:int -> string -> unit
(** Raises {!Out_of_space} when the write would exceed capacity, and
    [Invalid_argument] on negative offsets or when called with an empty
    string. *)

val read : t -> off:int -> len:int -> string
(** Reading past the high-water mark yields zero bytes (within
    capacity); reading past capacity raises [Invalid_argument]. *)

val equal_at : t -> off:int -> string -> bool
(** [equal_at t ~off expected] compares stored bytes with [expected]
    without copying. *)

val snapshot : t -> string
(** Copy of the heap contents up to the high-water mark (for
    replication and tests). *)

val restore : t -> string -> unit
(** Overwrite contents from a {!snapshot} string. All-zero pages of the
    image are not stored. *)
