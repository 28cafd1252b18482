(** The one metrics-snapshot JSON shape.

    Both [sjos metrics] (one-shot CLI) and the serve protocol's
    [metrics] endpoint emit this same structure, so dashboards and the
    bench-schema checker parse a single shape regardless of where the
    numbers came from:

    {v
    { "work":       {...} | null,   deterministic work counters (when scoped)
      "io":         {...} | null,   pager statistics (disk storage only)
      "gc":         {...},          GC totals for this process
      "plan_cache": {...} }         the database's plan-cache hits, misses,
                                    evictions, entries and capacity
    v} *)

val fields :
  ?work:Sjos_obs.Work.t ->
  Sjos_engine.Database.t ->
  (string * Sjos_obs.Json.t) list
(** The shared field list, in the fixed order work/io/gc/plan_cache.
    Callers prepend or append their own context fields (pattern, server
    uptime, tenants...) around it. *)
