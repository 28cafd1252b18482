(** Token-bucket rate limiter, one per tenant.

    The bucket holds up to [burst] tokens and refills continuously at
    [rate_per_sec].  Admitting a request takes one token; an empty
    bucket rejects with the time until the next token — the
    [retry_after_ms] hint the wire's [overloaded] error carries.

    Time is passed in explicitly (monotonic nanoseconds) so tests can
    drive the bucket deterministically; production callers use
    {!Sjos_obs.Clock.now_ns}.  Thread-safe. *)

type t

val create : rate_per_sec:float -> burst:float -> t
(** [rate_per_sec <= 0.] builds an unlimited limiter ({!try_take} always
    succeeds).  [burst] is clamped to at least 1 token. *)

val unlimited : unit -> t

val try_take : ?now_ns:int64 -> t -> (unit, float) result
(** Take one token.  [Error retry_after_ms] when the bucket is empty:
    the caller should shed with that hint.  [now_ns] defaults to the
    monotonic clock and must be non-decreasing across calls (a stale
    value is treated as "no time has passed"). *)
