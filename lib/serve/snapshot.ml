module Json = Sjos_obs.Json
module Work = Sjos_obs.Work
module Database = Sjos_engine.Database

let fields ?work db =
  [
    ("work", match work with Some w -> Work.to_json w | None -> Json.Null);
    ( "io",
      Option.fold
        (Sjos_storage.Column_store.io_stats (Database.store db))
        ~none:Json.Null ~some:Sjos_storage.Pager.stats_to_json );
    ("gc", Work.gc_to_json (Work.gc_snapshot ()));
    ("plan_cache", Sjos_cache.Plan_cache.to_json (Database.plan_cache db));
  ]
