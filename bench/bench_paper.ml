(* The [paper] suite: regenerates every table and figure of the paper's
   evaluation (Sec. 4), the ablations and extensions DESIGN.md calls
   out, and (outside fast mode) Bechamel micro-benchmarks of the
   optimization algorithms themselves.

   Tables/figures are printed with the same rows/series the paper reports;
   absolute numbers are in machine-independent cost units plus host
   wall-clock, so the comparison with the paper is about *shape*
   (who wins, by what factor, where crossovers happen) - see EXPERIMENTS.md.
   The deterministic shape claims of Tables 1-3 are gates.

   SJOS_BENCH_SCALE defaults to 0.5 (1.0 = full sizes); SJOS_BENCH_FAST
   skips the x500 folding step and the Bechamel runs.

   Run with: dune exec bench/main.exe -- paper *)

open Sjos_engine
open Sjos_core
module Json = Sjos_obs.Json

let scale = Harness.scale ~default:0.5
let fast = Harness.fast
let scaled = Harness.scaled ~floor:300 scale
let section = Harness.section

(* ------------------------------------------------------------------ *)
(* Table 1: plan quality and optimization time for the 8 workload
   queries x 5 algorithms + bad plan.  DPP's optimality is a claim about
   the cost model, so the gates compare estimates: DPP's equals DP's and
   no algorithm's is below DP's.  Equal-estimate plans may still measure
   differently (EXPERIMENTS.md); measured units are reported, and only
   the bad plan is gated on them.  Every algorithm's plan must also have
   executed: [matches = -1] marks a plan stopped at [max_tuples], whose
   [eval_units] is then only its estimate. *)

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let table1 () =
  section "Table 1: query optimization and plan evaluation (8 queries)";
  let sizes ds = scaled (Workload.default_size ds) in
  let rows = Experiment.table1 ~sizes ~max_tuples:50_000_000 () in
  Experiment.print_table1 rows;
  let cell algo (row : Experiment.table1_row) = List.assoc algo row.Experiment.cells in
  let est algo row = (cell algo row).Experiment.est_cost in
  (* a gate over every row; each failing row is named *)
  let gate name what holds =
    let bad = List.filter (fun row -> not (holds row)) rows in
    List.iter
      (fun (row : Experiment.table1_row) ->
        Printf.printf "!! %s: %s\n" row.Experiment.query.Workload.id what)
      bad;
    (name, bad = [])
  in
  let gates =
    [
      gate "every_cell_executed" "an algorithm's plan hit max_tuples"
        (fun row ->
          List.for_all
            (fun (_, c) -> c.Experiment.matches >= 0)
            row.Experiment.cells);
      gate "dpp_estimate_equals_dp" "DPP's estimate differs from DP's"
        (fun row -> close (est Optimizer.Dpp row) (est Optimizer.Dp row));
      gate "no_estimate_below_dp" "an algorithm's estimate is below DP's"
        (fun row ->
          List.for_all
            (fun (algo, _) ->
              let e = est algo row and dp = est Optimizer.Dp row in
              e >= dp || close e dp)
            row.Experiment.cells);
      gate "bad_plan_never_beats_dp" "the bad plan measured below DP"
        (fun row ->
          row.Experiment.bad.Experiment.eval_units
          >= (cell Optimizer.Dp row).Experiment.eval_units);
    ]
  in
  let cells =
    List.concat_map
      (fun (row : Experiment.table1_row) ->
        let id = row.Experiment.query.Workload.id in
        List.map
          (fun (name, c) ->
            Harness.cell (id ^ ":" ^ name)
              (("query", Json.Str id) :: ("algorithm", Json.Str name)
              :: (match Experiment.cell_to_json c with Json.Obj kv -> kv | _ -> [])))
          (List.map (fun (a, c) -> (Optimizer.name a, c)) row.Experiment.cells
          @ [ ("bad", row.Experiment.bad) ]))
      rows
  in
  (cells, gates)

(* ------------------------------------------------------------------ *)
(* Table 2: optimization time and plans considered for Q.Pers.3.d.     *)

let table2 () =
  section "Table 2: optimization effort for Q.Pers.3.d";
  let rows = Experiment.table2 ~size:(scaled 5_000) () in
  Experiment.print_table2 rows;
  let considered name =
    (List.find (fun r -> r.Experiment.algo_name = name) rows)
      .Experiment.considered
  in
  let ordered =
    considered "DP" >= considered "DPP'"
    && considered "DPP'" > considered "DPP"
    && considered "DPP" > considered "DPAP-EB"
    && considered "DPAP-EB" > considered "FP"
    && considered "DPAP-LD" > considered "FP"
  in
  let cells =
    List.map
      (fun (r : Experiment.table2_row) ->
        Harness.cell ~seconds:r.Experiment.opt_seconds
          ("table2:" ^ r.Experiment.algo_name)
          [ ("plans_considered", Json.Int r.Experiment.considered) ])
      rows
  in
  (* plans considered DP >= DPP' > DPP > DPAP-EB > FP and DPAP-LD > FP *)
  (cells, ("table2_ordered", ordered))

(* ------------------------------------------------------------------ *)
(* Table 3: effect of data size via folding factors.                   *)

let table3 () =
  section "Table 3: data size vs plan execution (Q.Pers.3.d)";
  let folds = if fast then [ 1; 10; 100 ] else [ 1; 10; 100; 500 ] in
  (* base small enough that the x500 folding still executes within the
     tuple-materialization safety bound *)
  let rows = Experiment.table3 ~base_size:(scaled 600) ~folds () in
  Experiment.print_table3 rows;
  let units label fold =
    let row = List.find (fun r -> r.Experiment.label = label) rows in
    let _, u, _ =
      List.find (fun (f, _, _) -> f = fold) row.Experiment.per_fold
    in
    u
  in
  let first_fold = List.hd folds in
  let last_fold = List.nth folds (List.length folds - 1) in
  (* The paper's Table-3 narrative: with growing data the optimum becomes a
     fully-pipelined plan (DP converges to FP), while left-deep plans, which
     must sort materialized intermediate results, stay strictly worse. *)
  let fp_gap fold = units "FP" fold /. units "DP" fold in
  let ld_gap fold = units "DPAP-LD" fold /. units "DP" fold in
  let converges = fp_gap last_fold <= fp_gap first_fold +. 1e-9 in
  let ld_worse = ld_gap last_fold > 1.0 in
  Printf.printf
    "FP/DP gap x%d: %.2f -> x%d: %.2f; DPAP-LD/DP at x%d: %.2fx\n"
    first_fold (fp_gap first_fold) last_fold (fp_gap last_fold) last_fold
    (ld_gap last_fold);
  ("fp_converges_ld_stays_worse", converges && ld_worse)

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: the Te sweep.                                      *)

let figures () =
  section "Figure 7: DPAP-EB Te sweep, folding x100 (execution dominates)";
  Experiment.print_figure ~title:""
    (Experiment.figure_te ~base_size:(scaled 2_000) ~fold:100 ());
  section "Figure 8: DPAP-EB Te sweep, folding x1 (optimization matters)";
  Experiment.print_figure ~title:""
    (Experiment.figure_te ~base_size:(scaled 2_000) ~fold:1 ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: statistically sound per-call timing of the
   six optimization algorithms on the Table 2 query.                   *)

let micro () =
  section "Bechamel: optimizer micro-benchmarks (ns/run, Q.Pers.3.d)";
  let open Bechamel in
  let open Bechamel.Toolkit in
  let db =
    Database.of_document (Workload.generate ~size:(scaled 5_000) Workload.Pers)
  in
  let pat = Workload.q_pers_3_d.Workload.pattern in
  let provider = Database.provider db pat in
  let te = Optimizer.default_te pat in
  let mk name algo =
    Test.make ~name
      (Staged.stage (fun () -> ignore (Optimizer.optimize ~provider algo pat)))
  in
  let tests =
    Test.make_grouped ~name:"optimize" ~fmt:"%s/%s"
      [
        mk "dp" Optimizer.Dp;
        mk "dpp-nl" Optimizer.Dpp_no_lookahead;
        mk "dpp" Optimizer.Dpp;
        mk "dpap-eb" (Optimizer.Dpap_eb te);
        mk "dpap-ld" Optimizer.Dpap_ld;
        mk "fp" Optimizer.Fp;
      ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  List.iter
    (fun (name, ns) -> Printf.printf "%-20s %12.0f ns/run\n" name ns)
    rows

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper's tables: design choices called out in
   DESIGN.md.                                                           *)

(* Ablation A: how much does ordering DPP's priority list by Cost+ubCost
   (vs plain Cost) matter?  And the lookahead rule (DPP vs DPP') is shown
   in Table 2 already. *)
let ablation_priority () =
  section "Ablation: DPP priority list ordering (Cost+ubCost vs Cost)";
  let db =
    Database.of_document (Workload.generate ~size:(scaled 5_000) Workload.Pers)
  in
  let pat = Workload.q_pers_3_d.Workload.pattern in
  let provider = Database.provider db pat in
  let run label ~prioritize_by_ub =
    let ctx = Search.make_ctx ~provider pat in
    let t0 = Sjos_obs.Clock.now_ns () in
    let cost, _ = Dpp.run ~prioritize_by_ub ctx in
    Printf.printf "%-24s cost=%.0f plans=%d expanded=%d time=%.3fms\n" label
      cost ctx.Search.work.Sjos_obs.Work.plans_considered
      ctx.Search.work.Sjos_obs.Work.expansions
      (Sjos_obs.Clock.elapsed_seconds ~since:t0 *. 1000.)
  in
  run "DPP (Cost+ubCost)" ~prioritize_by_ub:true;
  run "DPP (Cost only)" ~prioritize_by_ub:false

(* Ablation B: optimizer scaling with pattern size — where DP's
   exponential status space starts to hurt and DPP's pruning pays off. *)
let ablation_scaling () =
  section "Ablation: optimizer effort vs pattern size (path patterns)";
  let db =
    Database.of_document (Workload.generate ~size:(scaled 5_000) Workload.Pers)
  in
  Printf.printf "%-6s | %-22s | %-22s | %-22s\n" "nodes" "DP plans/ms"
    "DPP plans/ms" "FP plans/ms";
  List.iter
    (fun n ->
      (* a path alternating the recursive tags so candidates stay non-empty *)
      let tags =
        List.init n (fun i ->
            match i mod 3 with 0 -> "manager" | 1 -> "employee" | _ -> "manager")
      in
      let labels = List.map Sjos_storage.Candidate.of_tag tags in
      let axes = List.init (n - 1) (fun _ -> Sjos_xml.Axes.Descendant) in
      let pat = Sjos_pattern.Shapes.path labels axes in
      let provider = Database.provider db pat in
      let effort algo =
        let r = Optimizer.optimize ~provider algo pat in
        ( r.Optimizer.work.Sjos_obs.Work.plans_considered,
          r.Optimizer.opt_seconds *. 1000. )
      in
      let dp_p, dp_t = effort Optimizer.Dp in
      let dpp_p, dpp_t = effort Optimizer.Dpp in
      let fp_p, fp_t = effort Optimizer.Fp in
      Printf.printf "%-6d | %10d %9.2f | %10d %9.2f | %10d %9.2f\n" n dp_p
        dp_t dpp_p dpp_t fp_p fp_t)
    [ 3; 4; 5; 6; 7; 8 ]

(* Ablation C: binary structural-join plans vs the holistic TwigStack
   plan (which is PathStack on path patterns) — the paper's §6 future
   work, implemented as an extension. *)
let ablation_holistic () =
  section "Ablation: optimal binary plans vs holistic joins (all queries)";
  Printf.printf "%-14s | %-5s | %14s | %14s | %10s\n" "query" "shape"
    "binary (kU)" "holistic (kU)" "matches";
  List.iter
    (fun (q : Workload.query) ->
      let db =
        Database.of_document
          (Workload.generate
             ~size:(scaled (Workload.default_size q.Workload.dataset))
             q.Workload.dataset)
      in
      let cell =
        Experiment.run_cell ~opts:(Experiment.cold_opts Optimizer.Dpp) db
          q.Workload.pattern
      in
      let p = q.Workload.pattern in
      let run =
        Sjos_exec.Executor.execute ~factors:(Database.factors db)
          (Database.index db) p
          (Sjos_plan.Plan.holistic_of_pattern p)
      in
      Printf.printf "%-14s | %-5s | %14.1f | %14.1f | %10d\n" q.Workload.id
        (if Sjos_pattern.Pattern.is_path p then "path" else "twig")
        (cell.Experiment.eval_units /. 1000.)
        (run.Sjos_exec.Executor.cost_units /. 1000.)
        (Array.length run.Sjos_exec.Executor.tuples))
    Workload.queries

(* Ablation D: Stack-Tree vs MPMGJN (the SIGMOD'01 merge join the
   Stack-Tree algorithms were designed to beat) as data nesting grows. *)
let ablation_mpmgjn () =
  section "Ablation: Stack-Tree vs MPMGJN scan work (manager//name)";
  Printf.printf "%-10s | %12s | %12s | %10s\n" "pers size" "STJ ops"
    "MPMGJN steps" "pairs";
  List.iter
    (fun size ->
      let doc = Workload.generate ~size Workload.Pers in
      let idx = Sjos_storage.Element_index.build doc in
      let scan m slot tag =
        Sjos_exec.Operators.index_scan ~work:m ~width:2 ~slot
          (Sjos_storage.Element_index.lookup idx tag)
      in
      let m1 = Sjos_obs.Work.zero () in
      let st =
        Sjos_exec.Stack_tree.join ~work:m1 ~doc
          ~axis:Sjos_xml.Axes.Descendant ~algo:Sjos_plan.Plan.Stack_tree_desc
          ~anc:(scan m1 0 "manager", 0)
          ~desc:(scan m1 1 "name", 1)
          ()
      in
      let m2 = Sjos_obs.Work.zero () in
      ignore
        (Sjos_exec.Merge_join.join ~work:m2 ~doc
           ~axis:Sjos_xml.Axes.Descendant
           ~anc:(scan m2 0 "manager", 0)
           ~desc:(scan m2 1 "name", 1));
      Printf.printf "%-10d | %12d | %12d | %10d\n" size
        m1.Sjos_obs.Work.stack_ops m2.Sjos_obs.Work.stack_ops
        (Array.length st))
    [ scaled 1_000; scaled 4_000; scaled 16_000 ]

(* Ablation E: buffer-pool sensitivity — repeated candidate-list scans of
   the Table-1 workload through an LRU pool of varying size (the SHORE
   16 MB buffer pool of the paper's setup, §4). *)
let ablation_buffer_pool () =
  section "Ablation: buffer-pool hit ratio for workload candidate scans";
  let db =
    Database.of_document (Workload.generate ~size:(scaled 20_000) Workload.Pers)
  in
  let idx = Database.index db in
  let tags = [ "manager"; "employee"; "department"; "name" ] in
  let total_items =
    List.fold_left
      (fun acc tag -> acc + Sjos_storage.Element_index.cardinality idx tag)
      0 tags
  in
  let page_size = 64 in
  let total_pages = (total_items + page_size - 1) / page_size in
  Printf.printf
    "candidate lists: %d items over ~%d pages of %d items each\n"
    total_items total_pages page_size;
  Printf.printf "%-12s | %10s | %10s | %10s\n" "pool pages" "accesses"
    "misses" "hit ratio";
  List.iter
    (fun pool_pages ->
      let pager = Sjos_storage.Pager.create ~page_size ~pool_pages () in
      let segments =
        List.map
          (fun tag ->
            Sjos_storage.Pager.allocate pager
              ~items:(Sjos_storage.Element_index.cardinality idx tag))
          tags
      in
      (* two optimization+execution rounds re-read every candidate list,
         as the 5 optimizers of Table 1 would *)
      for _ = 1 to 2 do
        List.iter (Sjos_storage.Pager.scan pager) segments
      done;
      let s = Sjos_storage.Pager.stats pager in
      Printf.printf "%-12d | %10d | %10d | %9.2f%%\n" pool_pages
        s.Sjos_storage.Pager.accesses s.Sjos_storage.Pager.misses
        (100. *. Sjos_storage.Pager.hit_ratio pager))
    [ max 1 (total_pages / 8); max 1 (total_pages / 2); total_pages + 8 ]

(* Extension F: randomized search (II / SA) vs the paper's algorithms. *)
let ablation_randomized () =
  section "Ablation: randomized optimizers (II/SA) vs exact search";
  let db =
    Database.of_document (Workload.generate ~size:(scaled 5_000) Workload.Pers)
  in
  let pat = Workload.q_pers_3_d.Workload.pattern in
  let provider = Database.provider db pat in
  let report label run =
    let ctx = Search.make_ctx ~provider pat in
    let t0 = Sjos_obs.Clock.now_ns () in
    let cost, _ = run ctx in
    Printf.printf "%-22s est_cost=%10.0f plans=%5d time=%.3fms\n" label cost
      ctx.Search.work.Sjos_obs.Work.plans_considered
      (Sjos_obs.Clock.elapsed_seconds ~since:t0 *. 1000.)
  in
  report "DPP (optimal)" Dpp.run;
  report "Iterative Improvement" (Randomized.iterative_improvement ~seed:17);
  report "Simulated Annealing" (Randomized.simulated_annealing ~seed:18);
  report "FP" Fp.run

(* Extension G: estimation accuracy of the positional histograms. *)
let extension_estimation () =
  section "Extension: positional-histogram estimation accuracy";
  Printf.printf "%-14s | %12s | %12s | %8s\n" "query" "estimated" "actual"
    "ratio";
  List.iter
    (fun (q : Workload.query) ->
      let db =
        Database.of_document
          (Workload.generate
             ~size:(scaled (Workload.default_size q.Workload.dataset))
             q.Workload.dataset)
      in
      let pat = q.Workload.pattern in
      let provider = Database.provider db pat in
      let full = (1 lsl Sjos_pattern.Pattern.node_count pat) - 1 in
      let est = provider.Sjos_plan.Costing.cluster_card full in
      let actual =
        float_of_int
          (Array.length
             (Database.run db pat).Database.exec
               .Sjos_exec.Executor.tuples)
      in
      Printf.printf "%-14s | %12.0f | %12.0f | %8.2f\n" q.Workload.id est
        actual
        (if actual > 0. then est /. actual else nan))
    Workload.queries

(* Extension H: time-to-first-result — the FP motivation made measurable.
   A fully pipelined plan streams its first tuple almost immediately; the
   same pattern evaluated with a final sort (order-by on a node the FP
   plan does not naturally produce) must finish everything first. *)
let extension_time_to_first () =
  section "Extension: time to first result (pipelined vs blocking)";
  let db =
    Database.of_document (Workload.generate ~size:(scaled 40_000) Workload.Pers)
  in
  let idx = Database.index db in
  let pat = Workload.q_pers_3_d.Workload.pattern in
  let provider = Database.provider db pat in
  let fp = Optimizer.optimize ~provider Optimizer.Fp pat in
  let fp_plan = fp.Optimizer.plan in
  let blocking_plan =
    (* force a top-level sort by a different node *)
    let by = if Sjos_plan.Plan.ordered_by fp_plan = 0 then 1 else 0 in
    Sjos_plan.Plan.sort fp_plan ~by
  in
  List.iter
    (fun (label, plan) ->
      let first, total = Sjos_exec.Stream_exec.time_to_first idx pat plan in
      Printf.printf "%-22s first=%8.2fms total=%8.2fms first/total=%5.1f%%\n"
        label (first *. 1000.) (total *. 1000.)
        (100. *. first /. Float.max total 1e-9))
    [ ("FP (pipelined)", fp_plan); ("FP + final sort", blocking_plan) ]

(* Extension I: cost-model calibration — fit the f_* factors to this host
   and report the prediction error before/after. *)
let extension_calibration () =
  section "Extension: cost-model calibration on this host";
  let observations =
    List.concat_map
      (fun (q : Workload.query) ->
        let db =
          Database.of_document
            (Workload.generate
               ~size:(scaled (Workload.default_size q.Workload.dataset) / 2)
               q.Workload.dataset)
        in
        List.filter_map
          (fun algo ->
            match
              Experiment.run_cell ~opts:(Experiment.cold_opts algo) db
                q.Workload.pattern
            with
            | cell when cell.Experiment.matches >= 0 ->
                let run =
                  Database.run ~opts:(Query_opts.make ~algorithm:algo ()) db
                    q.Workload.pattern
                in
                Some
                  ( run.Database.exec.Sjos_exec.Executor.work,
                    run.Database.exec.Sjos_exec.Executor.seconds )
            | _ | (exception _) -> None)
          [ Optimizer.Dpp; Optimizer.Fp; Optimizer.Dpap_ld ])
      Workload.queries
  in
  let fitted = Sjos_exec.Calibrate.fit observations in
  let seconds_error f = Sjos_exec.Calibrate.mean_relative_error f observations in
  Printf.printf "observations: %d plan executions\n" (List.length observations);
  Printf.printf "fitted factors: %s\n"
    (Fmt.str "%a" Sjos_cost.Cost_model.pp_factors fitted);
  Printf.printf "mean relative error predicting seconds: %.1f%%\n"
    (100. *. seconds_error fitted)

let run () =
  Printf.printf "sjos paper evaluation (scale=%.2f%s)\n" scale
    (if fast then ", fast mode" else "");
  let t1_cells, t1_gates = table1 () in
  let t2_cells, t2_gate = table2 () in
  let t3_gate = table3 () in
  figures ();
  ablation_priority ();
  ablation_scaling ();
  ablation_holistic ();
  ablation_mpmgjn ();
  ablation_buffer_pool ();
  ablation_randomized ();
  extension_estimation ();
  extension_time_to_first ();
  extension_calibration ();
  if not fast then micro ();
  {
    Harness.suite = "paper";
    meta = [ ("scale", Json.Float scale); ("fast", Json.Bool fast) ];
    cells = t1_cells @ t2_cells;
    gates = t1_gates @ [ t2_gate; t3_gate ];
  }
