(** Deterministic discrete-event simulator with lightweight cooperative
    processes implemented with OCaml effect handlers.

    A simulation is started with {!run}. Inside it, code may call the
    process operations ({!delay}, {!spawn}, {!suspend}, ...) freely; they
    are implemented as effects handled by the scheduler. The entire run is
    a deterministic function of the seed and of the program itself.

    Simulated time is a [float] in seconds. *)

type time = float

exception Stopped
(** Raised inside a process when the simulation is being torn down and
    the process tries to block. Processes normally never observe it. *)

(** {1 Running} *)

val run : ?seed:int -> ?until:time -> (unit -> unit) -> unit
(** [run main] executes [main] as the initial process and then processes
    events until the queue drains or simulated time exceeds [until].
    Raises [Invalid_argument] when called from inside a running
    simulation (simulations do not nest). *)

val inside : unit -> bool
(** [inside ()] is [true] when called from code running under {!run}. *)

type totals = {
  events : int;  (** Events delivered. *)
  stream_hash : int;
      (** FNV-1a over each delivered event's time bits and insertion
          number, in delivery order (native-int arithmetic). *)
}

val totals : unit -> totals
(** Events delivered by every {!run} that has returned in this process,
    and one hash chained through their event streams in run order. Two
    processes that run the same simulations get the same totals, so the
    pair pins simulated behaviour across host-only changes. *)

(** {1 Process operations}

    All of these must be called from inside a simulation. *)

val now : unit -> time
(** Current simulated time. Raises [Invalid_argument] outside {!run}. *)

val delay : time -> unit
(** Suspend the calling process for the given amount of simulated time.
    Negative durations are treated as zero. *)

val yield : unit -> unit
(** Reschedule the calling process at the current time, letting other
    ready processes run first. *)

val spawn : ?name:string -> (unit -> unit) -> unit
(** Start a new process at the current time. An exception escaping the
    process aborts the whole simulation (it propagates out of {!run}),
    except {!Stopped} which is swallowed. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] blocks the calling process and calls
    [register wake]. Some other process (or event) may later call
    [wake v] exactly once, which reschedules the blocked process at the
    then-current time with result [v]. Extra calls to [wake] are
    ignored. *)

val rng : unit -> Rng.t
(** The simulation's root random stream. Derive independent component
    streams with {!Rng.split}. *)

val trace_context : unit -> int
(** The calling process's trace context: an opaque span id owned by the
    tracing layer ([minuet.obs]); [0] means no active span. The context
    follows each process across {!delay}/{!suspend} and is inherited by
    {!spawn}ed children, so spans parent correctly even across process
    boundaries. Application code should not touch this directly. *)

val set_trace_context : int -> unit
(** Set the calling process's trace context (tracing layer only). *)

val stop : unit -> unit
(** Stop the simulation: no further events are processed after the
    current one returns. *)

(** {1 Blocking primitives} *)

(** Unbounded FIFO mailbox. *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t
  val send : 'a t -> 'a -> unit
  val recv : 'a t -> 'a
  (** Blocks until a message is available. Waiters are served FIFO. *)

  val try_recv : 'a t -> 'a option
  val length : 'a t -> int
end

(** Single-assignment result cell, for fork/join patterns. *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t
  val fill : 'a t -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val read : 'a t -> 'a
  (** Blocks until filled. *)

  val is_filled : 'a t -> bool
end

(** Counting semaphore with FIFO waiters. *)
module Semaphore : sig
  type t

  val create : int -> t
  val acquire : t -> unit
  val release : t -> unit
  val with_acquired : t -> (unit -> 'a) -> 'a
  val available : t -> int
end

(** Mutual-exclusion lock (semaphore of one). *)
module Mutex : sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
  val with_lock : t -> (unit -> 'a) -> 'a
end
