(* The [cache] suite: plan-cache effectiveness.  Repeated queries should
   pay (almost) no plan-selection cost.  Cold = fresh search with the
   cache off ([Query_opts.cold]); warm = fingerprint lookup in the LRU
   cache.

   Gates: a warm prepare always hits the cache, and the cached plan
   returns the same tuples as the cold one.  The warm DPP speedup
   (>= 10x expected) is wall clock, so it is recorded, not gated.

   SJOS_BENCH_SCALE defaults to 0.5.  Run with:
   dune exec bench/main.exe -- cache *)

open Sjos_engine
open Sjos_core
module Json = Sjos_obs.Json

let run () =
  Harness.section "Plan cache: cold vs warm plan selection (Mbench workload)";
  let scale = Harness.scale ~default:0.5 in
  let db =
    Harness.db
      ~size:(Harness.scaled ~floor:300 scale (Workload.default_size Workload.Mbench))
      Workload.Mbench
  in
  let best_of n f =
    let rec go k acc = if k = 0 then acc else go (k - 1) (Float.min acc (f ())) in
    go (n - 1) (f ())
  in
  Printf.printf "%-14s | %-10s | %12s | %12s | %9s\n" "query" "algorithm"
    "cold opt(ms)" "warm opt(ms)" "speedup";
  let warm_hits = ref true and tuples_identical = ref true in
  let dpp_speedups = ref [] in
  let queries =
    List.filter
      (fun (q : Workload.query) -> q.Workload.dataset = Workload.Mbench)
      Workload.queries
  in
  let measure (q : Workload.query) algo =
    let pat = q.Workload.pattern in
    let id = q.Workload.id ^ ":" ^ Optimizer.name algo in
    let opts = Query_opts.make ~algorithm:algo () in
    let cold = Query_opts.cold opts in
    let cold_t =
      best_of 5 (fun () ->
          let p = Database.prepare ~opts:cold db pat in
          (Database.prepared_result p).Optimizer.opt_seconds)
    in
    let cold_run = Database.run ~opts:cold db pat in
    (* seed the cache once, then time pure lookups *)
    ignore (Database.run ~opts db pat);
    let warm_t =
      best_of 5 (fun () ->
          let p = Database.prepare ~opts db pat in
          if not (Database.prepared_from_cache p) then begin
            warm_hits := false;
            Printf.printf "!! %s: warm prepare missed the cache\n" id
          end;
          (Database.prepared_result p).Optimizer.opt_seconds)
    in
    let warm_run = Database.run ~opts db pat in
    if
      cold_run.Database.exec.Sjos_exec.Executor.tuples
      <> warm_run.Database.exec.Sjos_exec.Executor.tuples
    then begin
      tuples_identical := false;
      Printf.printf "!! %s: cached plan changed the result\n" id
    end;
    let speedup = cold_t /. Float.max warm_t 1e-9 in
    if algo = Optimizer.Dpp then dpp_speedups := speedup :: !dpp_speedups;
    Printf.printf "%-14s | %-10s | %12.3f | %12.4f | %8.0fx\n" q.Workload.id
      (Optimizer.name algo) (cold_t *. 1000.) (warm_t *. 1000.) speedup;
    Harness.cell id
      [
        ("cold_opt_seconds", Json.Float cold_t);
        ("warm_opt_seconds", Json.Float warm_t);
        ("speedup", Json.Float speedup);
      ]
  in
  let cells =
    List.concat_map
      (fun (q : Workload.query) ->
        List.map (measure q) (Optimizer.all q.Workload.pattern))
      queries
  in
  let dpp_min_speedup = List.fold_left Float.min infinity !dpp_speedups in
  Printf.printf "advisory: warm DPP plan selection >= 10x faster than cold: %s (min %.0fx)\n"
    (if dpp_min_speedup >= 10. then "yes" else "no")
    dpp_min_speedup;
  {
    Harness.suite = "cache";
    meta =
      [
        ("scale", Json.Float scale);
        ("dpp_min_speedup", Json.Float dpp_min_speedup);
        ("plan_cache", Sjos_cache.Plan_cache.to_json (Database.plan_cache db));
      ];
    cells;
    gates =
      [
        ("warm_prepare_hits_cache", !warm_hits);
        ("cached_tuples_identical", !tuples_identical);
      ];
  }
