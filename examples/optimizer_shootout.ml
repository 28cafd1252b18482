(* Optimizer shootout across pattern shapes and data sets: a compact
   reproduction of the paper's qualitative findings —

   - DP and DPP always agree (both optimal), DPP works much less;
   - left-deep-only optimization (DPAP-LD) misses good bushy plans;
   - FP is nearly optimal at a fraction of the optimization effort.

   Run with: dune exec examples/optimizer_shootout.exe *)

open Sjos_engine
open Sjos_core

let () =
  Fmt.pr
    "%-14s %-9s | %10s %8s | %10s %8s | %10s %8s | %10s %8s@." "query" "data"
    "DP units" "plans" "DPP units" "plans" "LD units" "plans" "FP units"
    "plans";
  List.iter
    (fun (q : Workload.query) ->
      let db =
        Database.of_document (Workload.generate ~size:8_000 q.Workload.dataset)
      in
      let cell algo =
        (* use_cache:false — the whole point here is to measure the search *)
        let run =
          Database.run
            ~opts:(Query_opts.make ~algorithm:algo ~use_cache:false ())
            db q.Workload.pattern
        in
        ( run.Database.exec.Sjos_exec.Executor.cost_units,
          run.Database.opt.Optimizer.work.Sjos_obs.Work.plans_considered )
      in
      let dp_u, dp_p = cell Optimizer.Dp in
      let dpp_u, dpp_p = cell Optimizer.Dpp in
      let ld_u, ld_p = cell Optimizer.Dpap_ld in
      let fp_u, fp_p = cell Optimizer.Fp in
      Fmt.pr "%-14s %-9s | %10.0f %8d | %10.0f %8d | %10.0f %8d | %10.0f %8d@."
        q.Workload.id
        (Workload.dataset_name q.Workload.dataset)
        dp_u dp_p dpp_u dpp_p ld_u ld_p fp_u fp_p)
    Workload.queries;
  Fmt.pr
    "@.Reading guide: 'units' = measured execution cost units of the chosen \
     plan (lower is better); 'plans' = alternatives the optimizer costed.  \
     DP and DPP columns should match unit-for-unit; DPAP-LD should lose on \
     the branchy d-shaped queries; FP should track DP closely while \
     considering an order of magnitude fewer plans.@."
