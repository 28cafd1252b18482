(* The paper's running example (Example 2.2 / Figure 1):

   "for each manager A, list the names of the employees supervised by A,
    and the name of any department that is directly supervised by another
    manager, who is a subordinate of A."

   This example generates a synthetic personnel database, shows why the
   navigational strawman is slow, and compares the plans the five
   optimizers pick for the Figure 1 pattern.

   Run with: dune exec examples/personnel.exe *)

open Sjos_engine
open Sjos_core

let () =
  let doc = Workload.generate ~size:20_000 Workload.Pers in
  let db = Database.of_document doc in
  Fmt.pr "Personnel database: %a@.@." Sjos_storage.Stats.pp (Database.stats db);

  let pattern = Workload.q_pers_3_d.Workload.pattern in
  Fmt.pr "Figure-1 pattern: %s@.@." (Sjos_pattern.Pattern.to_string pattern);

  (* The five algorithms of the paper, plus the DPP variant without the
     lookahead rule (DPP' of Table 2). *)
  let algorithms =
    Optimizer.all pattern @ [ Optimizer.Dpp_no_lookahead ]
  in
  Fmt.pr "%-12s %12s %10s %14s %12s %10s@." "algorithm" "est. cost"
    "plans" "exec units" "exec time" "matches";
  List.iter
    (fun algo ->
      (* cold options: a cache hit would report zero plans considered *)
      let run =
        Database.run
          ~opts:(Query_opts.make ~algorithm:algo ~use_cache:false ())
          db pattern
      in
      Fmt.pr "%-12s %12.0f %10d %14.0f %10.2fms %10d@."
        (Optimizer.name algo) run.opt.Optimizer.est_cost
        run.opt.Optimizer.work.Sjos_obs.Work.plans_considered
        run.exec.Sjos_exec.Executor.cost_units
        (run.exec.Sjos_exec.Executor.seconds *. 1000.)
        (Array.length run.exec.Sjos_exec.Executor.tuples))
    algorithms;

  (* Contrast with a deliberately bad join order. *)
  let provider = Database.provider db pattern in
  let ctx = Sjos_core.Search.make_ctx ~provider pattern in
  let _, bad_plan = Random_plan.worst_of ~seed:7 ctx 20 in
  let bad = Database.execute_plan db pattern bad_plan in
  Fmt.pr "%-12s %12s %10s %14.0f %10.2fms %10d@." "bad plan" "-" "-"
    bad.Sjos_exec.Executor.cost_units
    (bad.Sjos_exec.Executor.seconds *. 1000.)
    (Array.length bad.Sjos_exec.Executor.tuples);

  let prep = Database.prepare db pattern in
  Fmt.pr "@.The DPP plan in detail (fingerprint %s):@.%s@."
    (Sjos_pattern.Fingerprint.short (Database.prepared_fingerprint prep))
    (Database.explain_prepared prep)
