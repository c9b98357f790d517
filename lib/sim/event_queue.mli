(** Priority queue of timestamped events for the discrete-event scheduler.

    Events with equal timestamps pop in insertion order (FIFO), which the
    simulator relies on for determinism. *)

type 'a t

type 'a entry = private { time : float; seq : int; payload : 'a }
(** A queued event: [seq] is its insertion number, the FIFO tie-break. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** Insert an event at the given simulated time. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event, FIFO among ties. *)

val pop_entry : 'a t -> 'a entry option
(** {!pop} with the event's insertion number. *)

val peek_time : 'a t -> float option
(** Timestamp of the earliest event without removing it. *)

val clear : 'a t -> unit
