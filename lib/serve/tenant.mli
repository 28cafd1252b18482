(** Per-tenant quotas, rate limits and fault configuration.

    Tenants are the unit of isolation in [sjos serve]: each carries a
    concurrent-query cap, a token-bucket rate limit, per-query resource
    ceilings that are folded into every request's
    {!Sjos_guard.Budget.t}, and an optional chaos configuration
    (injected faults and an artificial execution stall) so operators can
    harden one tenant's traffic without touching the others.

    A {!registry} resolves tenant names to live state, creating unknown
    tenants on first sight with the registry's default quota — a
    misbehaving stranger gets the default limits, never unlimited
    access.  Ad-hoc creation is itself bounded ([max_ad_hoc]): past the
    cap, strangers share one overflow tenant, so arbitrary client-chosen
    names cannot grow server memory or the metrics payload without
    bound. *)

type quota = {
  max_concurrent : int;  (** concurrent admitted queries; [<= 0] = unlimited *)
  rate_per_sec : float;  (** token-bucket refill; [<= 0.] = unlimited *)
  burst : float;  (** token-bucket capacity *)
  max_tuples : int option;  (** per-query tuple ceiling (min with request) *)
  deadline_ms : float option;  (** per-request deadline cap (min with request) *)
  chaos_seed : int option;  (** enable fault injection for this tenant *)
  chaos_faults : Sjos_guard.Chaos.fault list;
      (** faults to inject when [chaos_seed] is set (default: all) *)
  stall_ms : float;
      (** chaos: stall each execution this long before running, polling
          the budget — makes slow-query scenarios (and cancellation
          races) reproducible *)
}

val default_quota : quota
(** No rate limit, 8 concurrent queries, no tuple/deadline caps, no
    chaos. *)

type t = private {
  name : string;
  quota : quota;
  limiter : Limiter.t;
  active : int Atomic.t;  (** currently admitted queries *)
  admitted : int Atomic.t;
  shed : int Atomic.t;
  cache_hits : int Atomic.t;
  chaos : Sjos_guard.Chaos.t option;
}

val admit : t -> (unit, Sjos_guard.Error.t) result
(** Check the rate limit, then the concurrency cap; on success the
    tenant's active count is incremented and the caller {e must} pair
    with {!release}.  On failure returns [Overloaded] with a retry
    hint and counts the shed. *)

val release : t -> unit

val note_cache_hit : t -> unit
(** Count a plan-cache hit for this tenant. *)

type registry

val registry :
  ?default:quota -> ?max_ad_hoc:int -> (string * quota) list -> registry
(** [max_ad_hoc] (default 64, clamped to [>= 0]) bounds how many
    tenants {!find} may auto-create beyond the configured list. *)

val find : registry -> string -> t
(** Resolve (or create, with the default quota) a tenant by name.  Once
    [max_ad_hoc] names have been auto-created, further unknown names all
    resolve to a single shared ["~overflow"] tenant with the default
    quota. *)

val known : registry -> t list
(** Every tenant seen so far, sorted by name. *)

val registry_of_json :
  ?default:quota -> Sjos_obs.Json.t -> (registry, string) result
(** Parse a config document:
    [{"default": {<quota>}, "max_ad_hoc": n,
      "tenants": {"<name>": {<quota>}, ...}}].
    All fields optional; an absent quota field keeps the default.
    Recognized quota fields: [max_concurrent], [rate_per_sec], [burst],
    [max_tuples], [deadline_ms], [chaos_seed], [chaos_faults] (list of
    fault names), [stall_ms]. *)

val to_json : t -> Sjos_obs.Json.t
