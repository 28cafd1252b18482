(** A reusable pool of OCaml 5 domains for data-parallel fan-out.

    The pool owns [size - 1] worker domains; the caller of {!run}
    participates as the remaining worker, so a pool of size 1 spawns no
    domains at all and {!run} degenerates to a plain serial loop.  Tasks
    are claimed from a shared atomic counter, which load-balances
    uneven shards without any per-task allocation in the scheduler.

    Determinism: {!run} always returns results in task-index order, and
    when tasks raise, the exception of the {e lowest-indexed} failing
    task is re-raised — independent of which domain ran what, or in
    which order tasks finished.

    Nesting: calling {!run} from inside a pool task executes the inner
    batch inline on the calling domain (no new work is posted), so
    parallel code can freely call other parallel code without
    deadlocking a fixed-size pool.

    Work accounting: each parallel task runs against a fresh
    {!Sjos_obs.Work} accumulator, and {!run} absorbs every task's delta
    into the calling domain at the barrier — so work counters observed
    by the caller are bit-identical to running the same tasks serially,
    at any pool size. *)

type t

val create : ?domains:int -> unit -> t
(** [create ?domains ()] builds a pool of [domains] total workers
    (including the caller of {!run}).  Defaults to [SJOS_DOMAINS] when
    set to a positive integer, else 1 (unparsable values fall back to
    1).  Values are clamped to
    [\[1, 128\]]. *)

val size : t -> int
(** Total parallelism, including the calling domain. *)

val serial : t
(** A shared size-1 pool: [run serial n f] is exactly a serial loop.
    Useful as an explicit "no parallelism" argument. *)

val get_default : unit -> t
(** The lazily-created process-wide pool, sized like {!create}'s
    default.  Created once on first use; shut down automatically at
    exit. *)

val run : t -> int -> (int -> 'a) -> 'a array
(** [run pool n f] evaluates [f 0 .. f (n-1)], using up to [size pool]
    domains, and returns the results in index order ([Array.init n f]
    observationally, modulo side-effect interleaving inside [f]).  If
    one or more tasks raise, all tasks still run to completion (or
    raise) and the exception from the lowest-indexed failing task is
    re-raised on the calling domain. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Calling {!run}
    after [shutdown] falls back to serial execution. *)
