(** Monotonic wall-clock timing.

    All optimizer and executor timings go through this module rather than
    [Unix.gettimeofday]: the system clock is not monotonic (NTP steps can
    make intervals negative), while [CLOCK_MONOTONIC] cannot go backwards.
    Backed by the C stub of [bechamel.monotonic_clock]. *)

val now_ns : unit -> int64
(** Nanoseconds since an arbitrary fixed origin; strictly non-decreasing. *)

val elapsed_seconds : since:int64 -> float
(** Seconds elapsed between [since] (a previous [now_ns]) and now. *)

val seconds_of_ns : int64 -> float
(** Convert a nanosecond interval to seconds. *)
