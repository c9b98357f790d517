(** Arrival processes: open-loop schedules, plus a closed loop.

    An arrival process is a rate curve (constant or diurnal) with an
    inter-arrival law (evenly paced or Poisson) and optional
    flash-crowd spikes multiplying the rate over a window. Schedules
    are materialized up front as sorted absolute times, so a tenant's
    offered load is fixed {e before} the system runs: operations are
    due at their scheduled instant whether or not earlier ones have
    completed, which is what exposes queueing delay (closed loops
    silently absorb it — coordinated omission).

    Determinism: a schedule is a pure function of [(seed, tenant_id)].
    Each tenant's stream is derived with a splitmix64-style hash of the
    pair, so schedules replay byte-identical per seed and two tenants'
    streams are statistically independent of each other. *)

(** Multiplies the curve rate by [factor] over
    [\[at, at + duration)] — a flash crowd. *)
type spike = { at : float; duration : float; factor : float }

(** Offered rate as a function of time, in ops/second. *)
type curve =
  | Constant of float
  | Diurnal of { base : float; peak : float; period : float; phase : float }
      (** Sinusoid between [base] and [peak] with the given period
          (seconds of simulated time; one period = one "day") starting
          at phase offset [phase] in radians. *)
  | Closed_loop
      (** No schedule: each of the tenant's workers issues its next
          operation as soon as the previous one completes, until the
          arrival window ends. Queueing delay is zero by construction,
          so this is for runs whose point is coverage (fault storms),
          not latency. *)

(** Inter-arrival law at the instantaneous rate [r]: [`Paced] emits
    exactly every [1/r] seconds (deterministic, minimal variance);
    [`Poisson] draws exponential gaps with mean [1/r] (memoryless, the
    production-traffic default). *)
type law = [ `Paced | `Poisson ]

type t = { curve : curve; law : law; spikes : spike list }

val constant : ?law:law -> ?spikes:spike list -> float -> t
(** [constant rate] with the Poisson law unless overridden. *)

val diurnal :
  ?law:law -> ?spikes:spike list -> base:float -> peak:float -> period:float ->
  ?phase:float -> unit -> t

val closed_loop : t
(** The {!Closed_loop} process. *)

val rate_at : t -> float -> float
(** Instantaneous offered rate at a simulated time, spikes applied.
    Raises [Invalid_argument] on a closed loop. *)

val stream_seed : seed:int -> tenant_id:int -> int
(** The derived RNG seed for one tenant's arrival stream (exposed for
    tests: equal pairs collide, differing tenant ids do not). *)

val schedule : t -> seed:int -> tenant_id:int -> until:float -> float array
(** All arrival times in [\[0, until)], ascending. Time-varying rates
    use the instantaneous rate for each gap (a step-wise approximation
    of the nonhomogeneous process; exact for piecewise-constant
    curves). The result depends only on [(t, seed, tenant_id, until)].
    Raises [Invalid_argument] on a closed loop. *)
