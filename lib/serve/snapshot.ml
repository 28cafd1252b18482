module Json = Sjos_obs.Json
module Work = Sjos_obs.Work

let fields ?work ?io () =
  [
    ("work", match work with Some w -> Work.to_json w | None -> Json.Null);
    ("io", Option.fold io ~none:Json.Null ~some:Sjos_storage.Pager.stats_to_json);
    ("gc", Work.gc_to_json (Work.gc_snapshot ()));
    ("registry", Sjos_obs.Registry.to_json ());
  ]
