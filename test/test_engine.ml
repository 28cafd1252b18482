open Sjos_pattern
open Sjos_core
open Sjos_exec
open Sjos_engine
module Work = Sjos_obs.Work

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_database_basics () =
  let db = Database.of_string Helpers.tiny_pers_xml in
  check ci "doc size" 17 (Sjos_xml.Document.size (Database.document db));
  let s = Database.stats db in
  check ci "stats nodes" 17 s.Sjos_storage.Stats.node_count;
  check cb "factors default" true
    (Database.factors db = Sjos_cost.Cost_model.default)

let test_database_run_query () =
  let db = Database.of_string Helpers.tiny_pers_xml in
  let p = Helpers.pat "manager(//employee(/name))" in
  let run = Database.run db p in
  check ci "matches" 4 (Array.length run.Database.exec.Executor.tuples);
  let naive = Naive.count (Database.index db) p in
  check ci "naive agrees" naive (Array.length run.Database.exec.Executor.tuples);
  check cb "plan valid" true
    (Sjos_plan.Properties.is_valid p run.Database.opt.Optimizer.plan)

let test_database_all_algorithms () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let p = Helpers.pat "manager(//employee(/name),//department(/name))" in
  let expected = Naive.count (Database.index db) p in
  List.iter
    (fun algo ->
      let run = Database.run ~opts:(Query_opts.make ~algorithm:algo ()) db p in
      check ci
        ("count with " ^ Optimizer.name algo)
        expected
        (Array.length run.Database.exec.Executor.tuples))
    (Optimizer.all p)

let test_database_explain () =
  let db = Database.of_string Helpers.tiny_pers_xml in
  let p = Helpers.pat "manager(//employee)" in
  let s = Database.explain_prepared (Database.prepare db p) in
  check cb "mentions scan" true (Helpers.contains s "IdxScan");
  check cb "mentions cost" true (Helpers.contains s "cost~")

let test_database_load_file () =
  let path = Filename.temp_file "sjos" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc Helpers.tiny_pers_xml;
      close_out oc;
      let db = Database.load_file path in
      check ci "loaded" 17 (Sjos_xml.Document.size (Database.document db)))

let test_workload_queries () =
  check ci "eight queries" 8 (List.length Workload.queries);
  List.iter
    (fun (q : Workload.query) ->
      let n = Pattern.node_count q.Workload.pattern in
      let expected =
        match q.Workload.shape with
        | 'a' -> 3
        | 'b' -> 4
        | 'c' -> 5
        | 'd' -> 6
        | _ -> -1
      in
      check ci (q.Workload.id ^ " node count") expected n)
    Workload.queries;
  check cb "find works" true (Workload.find "Q.Pers.3.d" == Workload.q_pers_3_d);
  (match Workload.find "Q.Nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown id must raise");
  List.iter
    (fun ds ->
      check cb "dataset name nonempty" true
        (String.length (Workload.dataset_name ds) > 0);
      check cb "default size sane" true (Workload.default_size ds >= 1000))
    Workload.all_datasets

let test_workload_queries_have_matches () =
  (* every benchmark query must select something on its data set,
     otherwise the experiment is vacuous *)
  List.iter
    (fun (q : Workload.query) ->
      let doc = Workload.generate ~size:3000 q.Workload.dataset in
      let db = Database.of_document doc in
      let run = Database.run db q.Workload.pattern in
      check cb
        (q.Workload.id ^ " has matches")
        true
        (Array.length run.Database.exec.Executor.tuples > 0))
    Workload.queries

let test_experiment_cells () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let p = Helpers.pat "manager(//employee(/name))" in
  let cell = Experiment.run_cell ~opts:(Experiment.cold_opts Optimizer.Dpp) db p in
  check cb "opt time" true (cell.Experiment.opt_seconds >= 0.0);
  check cb "eval units" true (cell.Experiment.eval_units > 0.0);
  check cb "matches" true (cell.Experiment.matches > 0);
  let bad = Experiment.bad_plan_cell ~samples:5 db p in
  check cb "bad plan worse or equal" true
    (bad.Experiment.eval_units >= cell.Experiment.eval_units)

let test_experiment_bad_plan_limit () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let p = Helpers.pat "manager(//employee(/name),//department(/name))" in
  let bad = Experiment.bad_plan_cell ~samples:5 ~max_tuples:10 db p in
  check ci "not executed" (-1) bad.Experiment.matches;
  check cb "estimate reported" true (bad.Experiment.eval_units > 0.0)

let test_experiment_table2 () =
  let rows = Experiment.table2 ~size:1500 () in
  check ci "six algorithms" 6 (List.length rows);
  let get name =
    (List.find (fun r -> r.Experiment.algo_name = name) rows).Experiment.considered
  in
  check cb "DP most plans" true (get "DP" >= get "DPP'");
  check cb "DPP' > DPP" true (get "DPP'" > get "DPP");
  check cb "DPP > FP" true (get "DPP" > get "FP");
  List.iter
    (fun r -> check cb "positive counts" true (r.Experiment.considered > 0))
    rows

let test_experiment_table2_pinned () =
  check
    Alcotest.(list (pair string int))
    "Table 2 at the default size" Experiment.table2_expected
    (List.map
       (fun r -> (r.Experiment.algo_name, r.Experiment.considered))
       (Experiment.table2 ()))

(* The plan text the pins digest.  Its format is fixed: the pinned
   digests below were taken with it. *)
module Plan = Sjos_plan.Plan

let rec plan_to_string pat = function
  | Plan.Index_scan i -> Printf.sprintf "(scan %s)" (Pattern.name pat i)
  | Plan.Holistic { order; _ } ->
      (* mask and paths are derivable from the pattern, so the text
         carries only the ordering node (the root) *)
      Printf.sprintf "(twig %s)" (Pattern.name pat order)
  | Plan.Sort { input; by } ->
      Printf.sprintf "(sort %s %s)" (Pattern.name pat by)
        (plan_to_string pat input)
  | Plan.Structural_join { anc_side; desc_side; edge; algo } ->
      Printf.sprintf "(%s %s %s %s %s)"
        (match algo with
        | Plan.Stack_tree_anc -> "anc"
        | Plan.Stack_tree_desc -> "desc")
        (Pattern.name pat edge.Pattern.anc)
        (Pattern.name pat edge.Pattern.desc)
        (plan_to_string pat anc_side) (plan_to_string pat desc_side)

(* Every plan builder's estimate, plan and search effort on the paper's
   workload, pinned to the float bits: a refactor of the search, the
   costing or the random walk must leave each line unchanged.  A line is
   [query algorithm est_cost-bits plans_considered plan-digest]. *)
let estimate_pins () =
  let line id name cost plan considered pat =
    Printf.sprintf "%s %s %Lx %d %s" id name (Int64.bits_of_float cost)
      considered
      (String.sub
         (Digest.to_hex (Digest.string (plan_to_string pat plan)))
         0 8)
  in
  List.concat_map
    (fun (q : Workload.query) ->
      let pat = q.Workload.pattern in
      let db =
        Database.of_document (Workload.generate ~size:1500 q.Workload.dataset)
      in
      let provider = Database.provider db pat in
      let algos =
        Optimizer.
          [
            Dp; Dpp; Dpp_no_lookahead; Dpap_eb (default_te pat); Dpap_ld; Fp;
            Big_dp Bigdp.default_width;
          ]
      in
      let searched =
        List.map
          (fun algo ->
            let r = Optimizer.optimize ~provider algo pat in
            line q.Workload.id (Optimizer.name algo) r.Optimizer.est_cost
              r.Optimizer.plan r.Optimizer.work.Work.plans_considered pat)
          algos
      in
      let walk name run =
        let ctx = Search.make_ctx ~provider pat in
        let cost, plan = run ctx in
        line q.Workload.id name cost plan ctx.Search.work.Work.plans_considered
          pat
      in
      let random =
        [ walk "worst-of-20" (fun ctx -> Random_plan.worst_of ~seed:42 ctx 20) ]
      in
      let local =
        if q.Workload.id <> "Q.Pers.3.d" then []
        else
          [
            walk "II" (Random_plan.iterative_improvement ~seed:17);
            walk "SA" (Random_plan.simulated_annealing ~seed:18);
          ]
      in
      searched @ random @ local)
    Workload.queries

let expected_estimate_pins =
  [
    "Q.Mbench.1.a DP 402c000000000000 10 9d646c1b";
    "Q.Mbench.1.a DPP 402c000000000000 6 9d646c1b";
    "Q.Mbench.1.a DPP' 402c000000000000 8 9d646c1b";
    "Q.Mbench.1.a DPAP-EB(2) 402c000000000000 6 9d646c1b";
    "Q.Mbench.1.a DPAP-LD 402c000000000000 6 9d646c1b";
    "Q.Mbench.1.a FP 402c000000000000 6 9d646c1b";
    "Q.Mbench.1.a BigDP(1024) 402c000000000000 6 9d646c1b";
    "Q.Mbench.1.a worst-of-20 4051d55555555555 40 bcbc5bc5";
    "Q.Mbench.2.b DP 4062200000000000 42 1f481222";
    "Q.Mbench.2.b DPP 4062200000000000 16 07ff9abc";
    "Q.Mbench.2.b DPP' 4062200000000000 21 07ff9abc";
    "Q.Mbench.2.b DPAP-EB(3) 4062200000000000 16 07ff9abc";
    "Q.Mbench.2.b DPAP-LD 4062200000000000 14 07ff9abc";
    "Q.Mbench.2.b FP 4062200000000000 10 2aa5ddc3";
    "Q.Mbench.2.b BigDP(1024) 4062200000000000 10 ca1cf339";
    "Q.Mbench.2.b worst-of-20 408cc892a05a0aa7 60 41c08fc4";
    "Q.DBLP.1.b DP 40968c5fc242acb7 42 8f5689e7";
    "Q.DBLP.1.b DPP 40968c5fc242acb7 14 8f5689e7";
    "Q.DBLP.1.b DPP' 40968c5fc242acb7 18 8f5689e7";
    "Q.DBLP.1.b DPAP-EB(3) 40968c5fc242acb7 14 8f5689e7";
    "Q.DBLP.1.b DPAP-LD 40968c5fc242acb7 14 8f5689e7";
    "Q.DBLP.1.b FP 40a3123e1eb9eec7 10 4e698651";
    "Q.DBLP.1.b BigDP(1024) 40968c5fc242acb7 15 8f5689e7";
    "Q.DBLP.1.b worst-of-20 40ccc8d89c5fa542 60 ca1cf339";
    "Q.DBLP.2.c DP 40bebf531ee37106 154 ca277f9e";
    "Q.DBLP.2.c DPP 40bebf531ee37106 89 ca277f9e";
    "Q.DBLP.2.c DPP' 40bebf531ee37106 136 ca277f9e";
    "Q.DBLP.2.c DPAP-EB(4) 40c0449359b3219c 56 c9af5b0f";
    "Q.DBLP.2.c DPAP-LD 40c7a6d7dae743be 43 1620b1d2";
    "Q.DBLP.2.c FP 40c47d151ba7f33e 14 4be1de0a";
    "Q.DBLP.2.c BigDP(1024) 40bebf531ee37106 34 ca277f9e";
    "Q.DBLP.2.c worst-of-20 413af07eb39f82b2 80 e7c3d3f8";
    "Q.Pers.1.a DP 40b1a854b1928152 10 73be7a0b";
    "Q.Pers.1.a DPP 40b1a854b1928152 6 73be7a0b";
    "Q.Pers.1.a DPP' 40b1a854b1928152 8 73be7a0b";
    "Q.Pers.1.a DPAP-EB(2) 40b1a854b1928152 6 73be7a0b";
    "Q.Pers.1.a DPAP-LD 40b1a854b1928152 6 73be7a0b";
    "Q.Pers.1.a FP 40b51bbcaae4ffa9 6 3d478460";
    "Q.Pers.1.a BigDP(1024) 40b1a854b1928152 6 73be7a0b";
    "Q.Pers.1.a worst-of-20 4102888bd62642c5 40 bcbc5bc5";
    "Q.Pers.2.c DP 40c38b8f4c75ec52 154 dcd03181";
    "Q.Pers.2.c DPP 40c38b8f4c75ec52 56 dcd03181";
    "Q.Pers.2.c DPP' 40c38b8f4c75ec52 87 dcd03181";
    "Q.Pers.2.c DPAP-EB(4) 40c38b8f4c75ec52 46 dcd03181";
    "Q.Pers.2.c DPAP-LD 40ce303c3c9cfe50 29 9ed12fd1";
    "Q.Pers.2.c FP 40c7c5afe55f0b38 14 4be1de0a";
    "Q.Pers.2.c BigDP(1024) 40c38b8f4c75ec52 22 dcd03181";
    "Q.Pers.2.c worst-of-20 41348337b16127fe 80 73bb524f";
    "Q.Pers.3.d DP 40c07ce6cf617335 520 94a57bc3";
    "Q.Pers.3.d DPP 40c07ce6cf617335 162 94a57bc3";
    "Q.Pers.3.d DPP' 40c07ce6cf617335 231 94a57bc3";
    "Q.Pers.3.d DPAP-EB(5) 40c07ce6cf617336 69 94a57bc3";
    "Q.Pers.3.d DPAP-LD 40c482029aa64d9e 41 0c8e9954";
    "Q.Pers.3.d FP 40c5656fb68a4503 18 6df407d8";
    "Q.Pers.3.d BigDP(1024) 40c07ce6cf617336 35 94a57bc3";
    "Q.Pers.3.d worst-of-20 4134898c1f4b80ce 100 66ba91aa";
    "Q.Pers.3.d II 40c11553118e62ec 275 8cde82a7";
    "Q.Pers.3.d SA 40c147e1f952032e 201 b572fc51";
    "Q.Pers.4.d DP 40c291225a0c7c9c 520 db462864";
    "Q.Pers.4.d DPP 40c291225a0c7c9c 177 db462864";
    "Q.Pers.4.d DPP' 40c291225a0c7c9c 261 db462864";
    "Q.Pers.4.d DPAP-EB(5) 40c291225a0c7c9d 80 db462864";
    "Q.Pers.4.d DPAP-LD 40ce962260fcb7c0 52 dc5832af";
    "Q.Pers.4.d FP 40cd90662f8dcae8 18 fd9a87a6";
    "Q.Pers.4.d BigDP(1024) 40c291225a0c7c9c 37 db462864";
    "Q.Pers.4.d worst-of-20 412ac7474afabba6 100 336bed10";
  ]

let test_estimates_pinned () =
  check
    Alcotest.(list string)
    "estimates, plans and plan counts at size 1500" expected_estimate_pins
    (estimate_pins ())

let test_experiment_table3_scaling () =
  let rows =
    Experiment.table3 ~base_size:400 ~folds:[ 1; 3 ] ~max_tuples:5_000_000 ()
  in
  check ci "six rows (5 algos + bad)" 6 (List.length rows);
  List.iter
    (fun r ->
      match r.Experiment.per_fold with
      | [ (1, u1, _); (3, u3, _) ] ->
          check cb
            (Printf.sprintf "%s grows with folding (%.0f -> %.0f)"
               r.Experiment.label u1 u3)
            true (u3 > u1)
      | _ -> Alcotest.fail "expected folds 1 and 3")
    rows

let test_experiment_figure_te () =
  let points = Experiment.figure_te ~base_size:400 ~fold:1 () in
  (* 6 Te settings + 4 reference algorithms *)
  check ci "point count" 10 (List.length points);
  List.iter
    (fun p ->
      check cb "components nonnegative" true
        (p.Experiment.opt_units_s >= 0.0 && p.Experiment.eval_units_s >= 0.0))
    points

let test_order_by_end_to_end () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let doc = Database.document db in
  List.iter
    (fun algo ->
      List.iter
        (fun node ->
          let p =
            Pattern.with_order_by
              (Helpers.pat "manager(//employee(/name))")
              (Some node)
          in
          let run = Database.run ~opts:(Query_opts.make ~algorithm:algo ()) db p in
          let tuples = run.Database.exec.Executor.tuples in
          check ci "count stable" (Naive.count (Database.index db) p)
            (Array.length tuples);
          let sorted = ref true in
          Array.iteri
            (fun i t ->
              if
                i > 0
                && Tuple.compare_by_slot doc node tuples.(i - 1) t > 0
              then sorted := false)
            tuples;
          check cb
            (Printf.sprintf "%s sorted by %s" (Optimizer.name algo)
               (Pattern.name p node))
            true !sorted)
        [ 0; 1; 2 ])
    [ Optimizer.Dp; Optimizer.Dpp; Optimizer.Fp ]

let test_mbench_attribute_query () =
  let db = Database.of_document (Lazy.force Helpers.mbench_1k) in
  let p, _ =
    Sjos_pattern.Xpath.compile "//eNest[@aLevel='3']//eNest[@aLevel='6']"
  in
  let run = Database.run db p in
  check ci "agrees with naive" (Naive.count (Database.index db) p)
    (Array.length run.Database.exec.Executor.tuples)

(* ---------- per-database statistics ---------- *)

module Stats_catalog = Sjos_histogram.Stats_catalog

let one_node spec =
  Pattern.create ~labels:[| spec |] ~edges:[||] ()

(* Served patterns can carry any number of distinct text labels; the
   catalog keeps at most its capacity of them. *)
let test_catalog_bounded () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  for i = 1 to 10_000 do
    let spec =
      { Sjos_storage.Candidate.any with
        tag = Some "name"; text = Some (Printf.sprintf "t%d" i) }
    in
    let p = Database.provider db (one_node spec) in
    ignore (p.Sjos_plan.Costing.node_card 0)
  done;
  let c = Database.catalog db in
  check ci "catalog at capacity" Stats_catalog.capacity
    (Stats_catalog.length c);
  check ci "one selection per label" 10_000 (Stats_catalog.selects c)

(* Chaos runs use private statistics. *)
let test_catalog_only_own_grid () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let p = Helpers.pat "manager(//employee(/name))" in
  ignore (Database.prepare db p);
  let c = Database.catalog db in
  let held = Stats_catalog.length c and selects = Stats_catalog.selects c in
  check cb "labels held" true (held > 0);
  let untouched msg =
    check cb (msg ^ ": same catalog") true (Database.catalog db == c);
    check ci (msg ^ ": labels") held (Stats_catalog.length c);
    check ci (msg ^ ": selections") selects (Stats_catalog.selects c)
  in
  ignore
    (Database.prepare
       ~opts:(Query_opts.make ~chaos:(Sjos_guard.Chaos.create ~seed:5 ()) ())
       db (Helpers.pat "department(//employee)"));
  untouched "chaos"

(* Statistics are paid once: a repeated cold prepare builds no
   histogram, and a plan-cache hit selects no candidates at all. *)
let test_statistics_paid_once () =
  let db = Database.of_document (Lazy.force Helpers.mbench_1k) in
  let p = Helpers.pat "eNest[@aFour='1'](/eNest(//eOccasional),//eNest)" in
  let histogram_items f =
    match Work.scoped f with
    | w, Ok _ -> w.Work.histogram_items
    | _, Error e -> raise e
  in
  let cold () =
    Database.prepare ~opts:(Query_opts.make ~use_cache:false ()) db p
  in
  check cb "first prepare builds histograms" true (histogram_items cold > 0);
  check ci "repeated prepare builds none" 0 (histogram_items cold);
  let c = Database.catalog db in
  let cached () = Database.prepare db p in
  ignore (cached ());
  let selects = Stats_catalog.selects c in
  let hit = ref false in
  check ci "cache hit builds none" 0
    (histogram_items (fun () ->
         let h = cached () in
         hit := Database.prepared_from_cache h));
  check cb "served from the plan cache" true !hit;
  check ci "cache hit selects no candidates" selects (Stats_catalog.selects c)

let suite =
  [
    ("database basics", `Quick, test_database_basics);
    ("database run_query", `Quick, test_database_run_query);
    ("database all algorithms agree", `Quick, test_database_all_algorithms);
    ("database explain", `Quick, test_database_explain);
    ("database load_file", `Quick, test_database_load_file);
    ("workload queries", `Quick, test_workload_queries);
    ("workload queries have matches", `Slow, test_workload_queries_have_matches);
    ("experiment cells", `Quick, test_experiment_cells);
    ("experiment bad-plan limit", `Quick, test_experiment_bad_plan_limit);
    ("experiment table2", `Quick, test_experiment_table2);
    ("experiment table2 pinned", `Quick, test_experiment_table2_pinned);
    ("optimizer estimates pinned", `Quick, test_estimates_pinned);
    ("experiment table3 scaling", `Slow, test_experiment_table3_scaling);
    ("experiment figure te", `Slow, test_experiment_figure_te);
    ("order-by end to end", `Quick, test_order_by_end_to_end);
    ("mbench attribute query", `Quick, test_mbench_attribute_query);
    ("statistics catalog is bounded", `Quick, test_catalog_bounded);
    ( "statistics catalog holds only its own grid",
      `Quick,
      test_catalog_only_own_grid );
    ("statistics paid once per database", `Quick, test_statistics_paid_once);
  ]
