(* The [guard] suite: resource governance.  What does degrading an
   over-budget exact search to DPAP-EB cost in plan quality, and does the
   engine keep its ok-or-structured-error contract under seeded fault
   injection?

   Gates: the degraded run returns the same matches as the exact one;
   the chaos sweep ran, no run escaped as a raw exception, and lying
   cardinalities never changed a result set.

   SJOS_BENCH_SCALE defaults to 0.5; SJOS_BENCH_FAST sweeps 10 chaos
   seeds instead of 25.  Run with: dune exec bench/main.exe -- guard *)

open Sjos_engine
open Sjos_core
open Sjos_guard
module Json = Sjos_obs.Json

let sorted_tuples (run : Database.query_run) =
  List.sort compare
    (List.map Array.to_list
       (Array.to_list run.Database.exec.Sjos_exec.Executor.tuples))

let run_cell label (run : Database.query_run) =
  let opt = run.Database.opt and exec = run.Database.exec in
  let degraded_from = Option.map Optimizer.name opt.Optimizer.degraded_from in
  Printf.printf "%-22s opt=%8.3fms plans=%5d eval=%10.1fkU matches=%d%s\n"
    label
    (opt.Optimizer.opt_seconds *. 1000.)
    opt.Optimizer.work.Sjos_obs.Work.plans_considered
    (exec.Sjos_exec.Executor.cost_units /. 1000.)
    (Array.length exec.Sjos_exec.Executor.tuples)
    (match degraded_from with
    | Some a -> Printf.sprintf " (degraded from %s)" a
    | None -> "");
  Harness.cell ~seconds:opt.Optimizer.opt_seconds label
    [
      ( "plans_considered",
        Json.Int opt.Optimizer.work.Sjos_obs.Work.plans_considered );
      ("eval_units", Json.Float exec.Sjos_exec.Executor.cost_units);
      ("matches", Json.Int (Array.length exec.Sjos_exec.Executor.tuples));
      ( "degraded_from",
        Option.fold ~none:Json.Null ~some:(fun a -> Json.Str a) degraded_from );
    ]

let run () =
  Harness.section "Guard: budgeted degradation and seeded chaos sweep";
  let scale = Harness.scale ~default:0.5 in
  let db = Harness.db ~size:(Harness.scaled ~floor:300 scale 5_000) Workload.Pers in
  (* 1. Baseline exact search vs budget-forced DPAP-EB degradation. *)
  let pat = Workload.q_pers_3_d.Workload.pattern in
  let baseline = Database.run ~opts:(Query_opts.cold Query_opts.default) db pat in
  let degraded =
    let opts =
      Query_opts.make ~use_cache:false
        ~budget:(Budget.make ~max_expanded:1 ())
        ()
    in
    match Error.protect (fun () -> Database.run ~opts db pat) with
    | Ok r -> r
    | Result.Error e -> failwith ("degraded run failed: " ^ Error.message e)
  in
  let base_cell = run_cell "DPP (unbudgeted)" baseline in
  let degr_cell = run_cell "DPP, max_expanded=1" degraded in
  let quality =
    degraded.Database.exec.Sjos_exec.Executor.cost_units
    /. Float.max baseline.Database.exec.Sjos_exec.Executor.cost_units 1e-9
  in
  let same_matches = sorted_tuples baseline = sorted_tuples degraded in
  Printf.printf "degraded plan cost ratio: %.2fx; matches identical: %b\n"
    quality same_matches;
  (* 2. Chaos sweep: every run is Ok or a structured Error — nothing
     escapes as a raw exception.  Lies-only runs must also preserve the
     result set. *)
  let patterns =
    List.map Sjos_pattern.Parse.pattern
      [
        "manager(//name)";
        "manager(//employee(/name))";
        "manager(//employee,//department)";
        "manager(//employee(/name),//department(/name))";
      ]
  in
  let seeds = List.init (if Harness.fast then 10 else 25) (fun i -> 1000 + i) in
  let ok = ref 0 and structured = ref 0 and escaped = ref 0 in
  let lies_divergent = ref 0 in
  let error_classes = Hashtbl.create 8 in
  let sweep ~faults ~check_matches =
    List.iter
      (fun p ->
        let truth =
          lazy (sorted_tuples (Database.run ~opts:(Query_opts.cold Query_opts.default) db p))
        in
        List.iter
          (fun seed ->
            let opts =
              Query_opts.make ~use_cache:false
                ~chaos:(Chaos.create ~faults ~seed ())
                ()
            in
            match Error.protect (fun () -> Database.run ~opts db p) with
            | Ok run ->
                incr ok;
                if check_matches && sorted_tuples run <> Lazy.force truth then
                  incr lies_divergent
            | Result.Error e ->
                incr structured;
                let c = Error.class_name e in
                Hashtbl.replace error_classes c
                  (1 + Option.value ~default:0 (Hashtbl.find_opt error_classes c))
            | exception _ -> incr escaped)
          seeds)
      patterns
  in
  sweep
    ~faults:
      Chaos.[ Truncate_candidates; Unsort_candidates; Lie_cardinalities ]
    ~check_matches:false;
  sweep ~faults:[ Chaos.Lie_cardinalities ] ~check_matches:true;
  let total = !ok + !structured + !escaped in
  Printf.printf
    "chaos sweep: %d runs, %d ok, %d structured errors, %d escaped \
     exceptions, %d lies-only divergences\n"
    total !ok !structured !escaped !lies_divergent;
  Hashtbl.iter
    (fun c n -> Printf.printf "  error class %-16s %d\n" c n)
    error_classes;
  let chaos_cell =
    Harness.cell "chaos"
      [
        ("runs", Json.Int total);
        ("ok", Json.Int !ok);
        ("structured_errors", Json.Int !structured);
        ("escaped_exceptions", Json.Int !escaped);
        ("lies_only_divergences", Json.Int !lies_divergent);
        ( "error_classes",
          Json.Obj
            (Hashtbl.fold
               (fun c n acc -> (c, Json.Int n) :: acc)
               error_classes []) );
      ]
  in
  {
    Harness.suite = "guard";
    meta = [ ("scale", Json.Float scale); ("degraded_cost_ratio", Json.Float quality) ];
    cells = [ base_cell; degr_cell; chaos_cell ];
    gates =
      [
        ("degraded_matches_identical", same_matches);
        ("chaos_sweep_ran", total > 0);
        ("zero_escaped_exceptions", !escaped = 0);
        ("zero_lies_only_divergences", !lies_divergent = 0);
      ];
  }
