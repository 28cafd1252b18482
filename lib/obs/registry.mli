(** A process-global metrics registry: named counters, gauges and
    timers.

    Instruments are created (or found) by name; recording into them is a
    single branch plus a field write, and becomes a pure no-op when the
    registry is disabled ([set_enabled false], the default), so
    instrumented hot paths pay nothing in production runs that do not ask
    for metrics.

    The registry is deliberately not the source of truth for quantities
    the system's behavior depends on: the work counters ({!Work}, the
    one counter vocabulary of search and execution) keep their own
    always-on accumulators; the registry is the aggregation and export
    layer above them.

    Thread-safety: all operations are safe to call from any domain.
    Counter updates are atomic and lock-free; registration,
    gauge/timer updates and snapshots are serialized by an
    internal mutex.  No increment is ever lost. *)

type counter
type gauge
type timer

val set_enabled : bool -> unit
val enabled : unit -> bool

val counter : string -> counter
(** Find or create; the same name always yields the same instrument. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit

val timer : string -> timer

val add_seconds : timer -> float -> unit
(** Record one observation of the given duration. *)

val timer_total : timer -> float
val timer_count : timer -> int

val reset : unit -> unit
(** Drop every instrument (tests). *)

val to_json : unit -> Json.t
(** Snapshot of every instrument:
    [{"counters": {..}, "gauges": {..},
      "timers": {name: {"seconds": s, "count": n}, ..}}] *)

val pp : unit Fmt.t
(** Human-readable one-instrument-per-line dump. *)
