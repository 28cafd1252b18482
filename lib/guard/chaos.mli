(** Deterministic, seeded fault injection for robustness testing.

    A [Chaos.t] wraps the two data sources the engine trusts — storage
    candidate streams and the cardinality provider — and injects the
    corruptions a production deployment would eventually see: truncated
    streams, out-of-order runs, and wildly wrong statistics.  Everything
    is driven by a splitmix64 generator from the creation seed, so a
    failing run replays exactly from its seed.

    The accompanying property suite asserts the engine's contract under
    injection: every query returns either a correct result or a
    structured {!Error.t} — never an unstructured exception.  Lying
    cardinalities may change the chosen plan but never the result set;
    unsorted runs are detected at the executor's trust boundary and
    reported as [Corrupt_input]; truncation yields a result over the
    surviving data. *)

type fault =
  | Truncate_candidates  (** drop a random suffix of a candidate stream *)
  | Unsort_candidates  (** swap two elements, breaking document order *)
  | Lie_cardinalities
      (** scale provider estimates by a per-mask factor in [1/64, 64] *)

type t

val create : ?faults:fault list -> seed:int -> unit -> t
(** [faults] defaults to all three.  [probability] of injecting into any
    given stream is 1/2, decided by the seeded generator. *)

val seed : t -> int

val injected : t -> int
(** Number of injections performed so far (monotone; diagnostic).  A
    parent and its {!derive}d children share one total. *)

val derive : t -> key:string -> t
(** An independent fault stream for [key] (in practice a query's
    structural fingerprint), pure in (parent seed, key): the parent's
    generator state is neither read nor advanced, so per-query faults
    replay from the parent seed regardless of how many other queries
    ran first, in what order, or on which domains. *)

val wrap_candidates : t -> int array -> int array
(** Possibly corrupt one candidate stream of node ids (fresh array; the
    input is never mutated). *)

val wrap_provider :
  t -> Sjos_plan.Costing.provider -> Sjos_plan.Costing.provider
(** Possibly lie about cardinalities.  Lies are deterministic per mask,
    so the wrapped provider is still a function. *)

val to_json : t -> Sjos_obs.Json.t
