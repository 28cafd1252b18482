open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_plan
open Sjos_exec
module Work = Sjos_obs.Work
module Budget = Sjos_guard.Budget

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ---------- Tuple ---------- *)

let test_tuple () =
  let doc = Lazy.force Helpers.tiny_pers in
  let t = Tuple.create 3 in
  check cb "unbound" false (Tuple.is_bound t 0);
  let s = Tuple.singleton ~width:3 1 (Document.node doc 5) in
  check ci "bound id" 5 (Tuple.get s 1);
  check ci "mask" 0b010 (Tuple.bound_mask s);
  let s2 = Tuple.singleton ~width:3 0 (Document.node doc 1) in
  let m = Tuple.merge s s2 in
  check ci "merged mask" 0b011 (Tuple.bound_mask m);
  check cb "to_string" true (Helpers.contains (Tuple.to_string m) "5");
  (match Tuple.merge s s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlapping merge should fail");
  (match Tuple.merge s (Tuple.create 4) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width mismatch should fail")

(* ---------- Stack-Tree joins (node level) ---------- *)

(* doc:  <a><a><b/></a><b/><c><b/></c></a>
   ids:   0  1  2       3   4  5
   a-ids: 0,1 ; b-ids: 2,3,5 ; c-id: 4 *)
let st_doc = lazy (Parser.parse_string "<a><a><b/></a><b/><c><b/></c></a>")

let scan_tuples _doc idx tag slot width ~work =
  Operators.index_scan ~work ~width ~slot (Helpers.ids idx tag)

let run_join algo axis =
  let doc = Lazy.force st_doc in
  let idx = Element_index.build doc in
  let work = Work.zero () in
  let anc = scan_tuples doc idx "a" 0 2 ~work in
  let desc = scan_tuples doc idx "b" 1 2 ~work in
  let out =
    Stack_tree.join ~work ~doc ~axis ~algo ~anc:(anc, 0) ~desc:(desc, 1) ()
  in
  (out, work)

let pairs_of out = Array.to_list out |> List.map (fun t -> (Tuple.get t 0, Tuple.get t 1))

let test_stj_desc_descendant () =
  let out, work = run_join Plan.Stack_tree_desc Axes.Descendant in
  (* expected (a,b) with a ancestor of b: (0,2),(1,2),(0,3),(0,5) *)
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "pairs ordered by descendant"
    [ (0, 2); (1, 2); (0, 3); (0, 5) ]
    (pairs_of out);
  check ci "output tuples" 4 work.Work.tuples_emitted;
  check ci "no buffered io" 0 work.Work.io_items;
  check ci "stack ops 2|A|" 4 work.Work.stack_ops

let test_stj_anc_descendant () =
  let out, work = run_join Plan.Stack_tree_anc Axes.Descendant in
  (* ordered by ancestor: a=0 pairs first (in b order), then a=1 *)
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "pairs ordered by ancestor"
    [ (0, 2); (0, 3); (0, 5); (1, 2) ]
    (pairs_of out);
  check ci "buffered io 2|AB|" 8 work.Work.io_items

let test_stj_child_axis () =
  let out, _ = run_join Plan.Stack_tree_desc Axes.Child in
  (* only direct children: (1,2),(0,3) *)
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "child pairs" [ (1, 2); (0, 3) ] (pairs_of out)

let test_stj_empty_inputs () =
  let doc = Lazy.force st_doc in
  let idx = Element_index.build doc in
  let work = Work.zero () in
  let a = scan_tuples doc idx "a" 0 2 ~work in
  let none = scan_tuples doc idx "zz" 1 2 ~work in
  let out =
    Stack_tree.join ~work ~doc ~axis:Axes.Descendant
      ~algo:Plan.Stack_tree_desc ~anc:(a, 0) ~desc:(none, 1) ()
  in
  check ci "empty desc" 0 (Array.length out);
  let none_anc = scan_tuples doc idx "zz" 0 2 ~work in
  let b = scan_tuples doc idx "b" 1 2 ~work in
  let out2 =
    Stack_tree.join ~work ~doc ~axis:Axes.Descendant
      ~algo:Plan.Stack_tree_anc ~anc:(none_anc, 0) ~desc:(b, 1) ()
  in
  check ci "empty anc" 0 (Array.length out2)

let test_stj_unsorted_rejected () =
  let doc = Lazy.force st_doc in
  let idx = Element_index.build doc in
  let work = Work.zero () in
  let a = scan_tuples doc idx "a" 0 2 ~work in
  let reversed = Array.of_list (List.rev (Array.to_list a)) in
  match
    Stack_tree.join ~work ~doc ~axis:Axes.Descendant
      ~algo:Plan.Stack_tree_desc ~anc:(reversed, 0) ~desc:(a, 1) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsorted input should be rejected"

(* Join where one input is an intermediate result with duplicate join-node
   values: (a,b) pairs joined with c on a//c. *)
let test_stj_duplicate_join_values () =
  let doc = Lazy.force st_doc in
  let idx = Element_index.build doc in
  let work = Work.zero () in
  let width = 3 in
  let a = Operators.index_scan ~work ~width ~slot:0 (Helpers.ids idx "a") in
  let b = Operators.index_scan ~work ~width ~slot:1 (Helpers.ids idx "b") in
  let ab =
    Stack_tree.join ~work ~doc ~axis:Axes.Descendant
      ~algo:Plan.Stack_tree_anc ~anc:(a, 0) ~desc:(b, 1) ()
  in
  (* ab ordered by a (slot 0), with a=0 appearing three times *)
  let c = Operators.index_scan ~work ~width ~slot:2 (Helpers.ids idx "c") in
  let abc =
    Stack_tree.join ~work ~doc ~axis:Axes.Descendant
      ~algo:Plan.Stack_tree_desc ~anc:(ab, 0) ~desc:(c, 2) ()
  in
  (* c=4 is a descendant of a=0 only; expect one tuple per (0,b) pair *)
  let triples =
    Array.to_list abc
    |> List.map (fun t -> (Tuple.get t 0, Tuple.get t 1, Tuple.get t 2))
    |> List.sort compare
  in
  check
    (Alcotest.list (Alcotest.triple ci ci ci))
    "triples" [ (0, 2, 4); (0, 3, 4); (0, 5, 4) ] triples

(* ---------- Sort operator ---------- *)

let test_sort_operator () =
  let doc = Lazy.force st_doc in
  let idx = Element_index.build doc in
  let work = Work.zero () in
  let out, _ = run_join Plan.Stack_tree_desc Axes.Descendant in
  ignore idx;
  let sorted = Operators.sort ~work ~doc ~by:0 out in
  let firsts = Array.to_list sorted |> List.map (fun t -> Tuple.get t 0) in
  check (Alcotest.list ci) "sorted by slot 0" [ 0; 0; 0; 1 ]
    (List.sort compare firsts);
  (* verify actual order, not just multiset *)
  check (Alcotest.list ci) "order" [ 0; 0; 0; 1 ] firsts;
  check ci "sorted items" 4 work.Work.sorted_items;
  check cb "sort cost recorded" true (work.Work.sort_cost > 0.0)

(* ---------- Executor vs naive oracle ---------- *)

let patterns_for_oracle =
  [
    "manager(//employee(/name))";
    "manager(//employee,//department)";
    "manager(//employee(/name),//manager(/department(/name)))";
    "company(//manager(/name))";
    "manager(//manager)";
    "*(//name)";
    "manager(//name[.='dan'])";
  ]

let test_executor_matches_naive () =
  let idx = Lazy.force Helpers.tiny_index in
  List.iter
    (fun s ->
      let p = Helpers.pat s in
      let provider = Helpers.exact_provider idx p in
      let r = Sjos_core.Optimizer.optimize ~provider Sjos_core.Optimizer.Dpp p in
      let run = Executor.execute idx p r.Sjos_core.Optimizer.plan in
      let expected = Naive.matches idx p in
      Helpers.check_same_matches s expected (Array.to_list run.Executor.tuples))
    patterns_for_oracle

let test_executor_all_algorithms_agree () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//employee(/name),//department(/name))" in
  let provider = Helpers.exact_provider idx p in
  let counts =
    List.map
      (fun algo ->
        let r = Sjos_core.Optimizer.optimize ~provider algo p in
        Array.length
          (Executor.execute idx p r.Sjos_core.Optimizer.plan).Executor.tuples)
      (Sjos_core.Optimizer.all p)
  in
  match counts with
  | first :: rest ->
      List.iter (fun c -> check ci "same count across algorithms" first c) rest
  | [] -> Alcotest.fail "no algorithms"

let test_executor_output_order () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let doc = Element_index.document idx in
  let p = Helpers.pat "manager(//employee(/name))" in
  let provider = Helpers.exact_provider idx p in
  List.iter
    (fun algo ->
      let r = Sjos_core.Optimizer.optimize ~provider algo p in
      let plan = r.Sjos_core.Optimizer.plan in
      let by = Plan.ordered_by plan in
      let run = Executor.execute idx p plan in
      let ok = ref true in
      Array.iteri
        (fun i t ->
          if i > 0 then
            let prev = run.Executor.tuples.(i - 1) in
            if Tuple.compare_by_slot doc by prev t > 0 then ok := false)
        run.Executor.tuples;
      check cb
        (Printf.sprintf "%s output ordered by %s"
           (Sjos_core.Optimizer.name algo)
           (Pattern.name p by))
        true !ok)
    (Sjos_core.Optimizer.all p)

let test_executor_rejects_invalid () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  match Executor.execute idx p (Plan.scan 0) with
  | exception Sjos_guard.Error.Error (Sjos_guard.Error.Invalid_plan _) -> ()
  | _ -> Alcotest.fail "partial plan must be rejected"

(* On the tiny document the scans have 3 and 8 rows and the join 11, so a
   ceiling of 8 lets both scans through and stops the join at exactly
   its 9th tuple — as the root join and as an interior one. *)
let check_limit_exact () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//name)" in
  let edge = List.hd (Pattern.edges p) in
  List.iter
    (fun algo ->
      let join =
        Plan.join ~anc_side:(Plan.scan 0) ~desc_side:(Plan.scan 1) ~edge ~algo
      in
      List.iter
        (fun (where, plan) ->
          let budget = Sjos_guard.Budget.make ~max_tuples:8 () in
          match Executor.execute ~budget idx p plan with
          | exception
              Sjos_guard.Budget.Exhausted
                {
                  resource =
                    Sjos_guard.Budget.Tuples_materialized { limit; count };
                  _;
                } ->
              check (Alcotest.pair ci ci)
                (Printf.sprintf "%s %s join stops at tuple 9"
                   (Plan.algo_to_string algo) where)
                (8, 9) (limit, count)
          | _ -> Alcotest.fail "expected Budget.Exhausted (Tuples_materialized)")
        [ ("root", join); ("interior", Plan.sort join ~by:0) ])
    [ Plan.Stack_tree_desc; Plan.Stack_tree_anc ]

let test_executor_limit () =
  check_limit_exact ();
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//name)" in
  let provider = Helpers.exact_provider idx p in
  let r = Sjos_core.Optimizer.optimize ~provider Sjos_core.Optimizer.Dpp p in
  let budget = Sjos_guard.Budget.make ~max_tuples:3 () in
  match Executor.execute ~budget idx p r.Sjos_core.Optimizer.plan with
  | exception
      Sjos_guard.Budget.Exhausted
        {
          resource = Sjos_guard.Budget.Tuples_materialized { limit; count };
          _;
        } ->
      check ci "limit preserved" 3 limit;
      check cb "partial count reported" true (count > 3)
  | _ -> Alcotest.fail "expected Budget.Exhausted (Tuples_materialized)"

let test_metrics_accounting () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee)" in
  let edge = List.hd (Pattern.edges p) in
  let plan =
    Plan.join ~anc_side:(Plan.scan 0) ~desc_side:(Plan.scan 1) ~edge
      ~algo:Plan.Stack_tree_desc
  in
  let run = Executor.execute idx p plan in
  let w = run.Executor.work in
  check ci "index items = |A|+|B|" 6 w.Work.candidates_scanned;
  check cb "cost units positive" true (run.Executor.cost_units > 0.0);
  Helpers.check_float "cost units priced from the work"
    (Sjos_cost.Cost_model.cost_units Sjos_cost.Cost_model.default w)
    run.Executor.cost_units;
  let w2 = Work.zero () in
  Work.merge_into w2 w;
  check cb "merge_into adds" true (Work.equal w w2);
  check cb "work pp" true (String.length (Fmt.str "%a" Work.pp w2) > 0)

(* ---------- holistic plans (TwigStack; PathStack on paths) ---------- *)

let holistic idx p =
  Executor.execute idx p (Plan.holistic_of_pattern p)

let test_path_stack_matches_naive () =
  let idx = Lazy.force Helpers.tiny_index in
  List.iter
    (fun s ->
      let p = Helpers.pat s in
      Helpers.check_same_matches ("pathstack " ^ s) (Naive.matches idx p)
        (Array.to_list (holistic idx p).Executor.tuples))
    [
      "manager(//employee(/name))";
      "manager(/name)";
      "company(//manager(//manager(/department)))";
      "manager(//manager)";
      "company(//manager(//employee(/name)))";
      "name";
    ]

let test_path_stack_no_intermediate_blowup () =
  (* the whole point of holistic joins: intermediate results of a binary
     plan can exceed the final result; on a path every path solution is
     an output tuple, so only output is ever materialized (and buffered
     once, the TwigStack intermediate-list write+read) *)
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "company(//manager(//name))" in
  let run = holistic idx p in
  let n = Array.length run.Executor.tuples in
  check cb "has results" true (n > 0);
  check ci "output tuples metric = result size" n
    run.Executor.work.Work.tuples_emitted;
  check ci "buffered io = 2 per output tuple" (2 * n)
    run.Executor.work.Work.io_items

let test_twig_join_matches_naive () =
  let idx = Lazy.force Helpers.tiny_index in
  List.iter
    (fun s ->
      let p = Helpers.pat s in
      Helpers.check_same_matches ("twig " ^ s) (Naive.matches idx p)
        (Array.to_list (holistic idx p).Executor.tuples))
    ([ "manager(//employee,//department)";
       "manager(//employee(/name),//department(/name))";
       "manager(//employee(/name),//manager(/department(/name)))";
       "company(//manager(/name),//manager(//employee))";
       "manager(//manager(/department),//employee)";
     ]
    @ patterns_for_oracle)

let test_twig_join_path_solutions () =
  (* path solutions are buffered as IO, 2 items each: one per match of
     every root-to-leaf path (A//B/C and A//D) *)
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name),//department)" in
  let run = holistic idx p in
  let path_abc = Helpers.pat "manager(//employee(/name))" in
  let path_ad = Helpers.pat "manager(//department)" in
  check ci "io = 2 x path solutions"
    (2 * (Naive.count idx path_abc + Naive.count idx path_ad))
    run.Executor.work.Work.io_items

let test_twig_join_single_node () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager" in
  check ci "single node twig" 3 (Array.length (holistic idx p).Executor.tuples)

let test_naive_cluster_count () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  check ci "full" 4 (Naive.cluster_count idx p 0b111);
  (* B//C cluster: employee/name pairs = 3 *)
  check ci "sub cluster" 3 (Naive.cluster_count idx p 0b110);
  check ci "single" 3 (Naive.cluster_count idx p 0b001)

(* ---------- results hold nothing of a run's scratch ---------- *)

(* An execution's interior outputs are lent by a scratch set that later
   executions reuse, so a result must hold none of them.  The results of
   a join root, a sort root, a lone scan and a holistic root must stay
   tuple for tuple what they were through 50 later executions of other
   random plans and widths (each equal to [Naive]), then through a run
   stopped mid-join by its tuple ceiling and a run cancelled mid-join,
   after which the stopped plan, unbudgeted, still equals [Naive]. *)
let test_results_survive_reuse () =
  let doc = Lazy.force Helpers.pers_1k in
  let idx = Lazy.force Helpers.pers_1k_index in
  let module Rng = Sjos_datagen.Rng in
  let rng = Rng.create (Helpers.seed + 333) in
  let tags = Array.of_list (Document.tags doc) in
  let optimized p =
    let provider = Helpers.exact_provider idx p in
    (Sjos_core.Optimizer.optimize ~provider Sjos_core.Optimizer.Dpp p)
      .Sjos_core.Optimizer.plan
  in
  let twig = Helpers.pat "manager(//employee(/name),//department)" in
  let join_plan = optimized twig in
  (match join_plan with
  | Plan.Structural_join _ -> ()
  | _ -> Alcotest.fail "expected a join at the root");
  let held =
    [
      ("join root", twig, join_plan);
      ("sort root", twig, Plan.Sort { input = join_plan; by = 3 });
      ("lone scan", Helpers.pat "employee", Plan.Index_scan 0);
      ("holistic root", twig, Plan.holistic_of_pattern twig);
    ]
    |> List.map (fun (name, p, plan) ->
           let r = (Executor.execute idx p plan).Executor.tuples in
           Helpers.check_same_matches name (Naive.matches idx p)
             (Array.to_list r);
           check cb (name ^ ": non-empty") true (Array.length r > 0);
           (name, r, Array.map Array.copy r))
  in
  let unchanged after =
    List.iter
      (fun (name, r, copy) ->
        check cb
          (Printf.sprintf "%s unchanged after %s" name after)
          true
          (Array.for_all2 Tuple.equal r copy))
      held
  in
  for k = 1 to 50 do
    let n = 1 + Rng.int rng 5 in
    let p =
      Pattern.create
        ~labels:
          (Array.init n (fun _ ->
               Candidate.of_tag tags.(Rng.int rng (Array.length tags))))
        ~edges:
          (Array.init (n - 1) (fun i ->
               (Rng.int rng (i + 1), Helpers.random_axis rng, i + 1)))
        ()
    in
    let plan =
      match
        Sjos_core.Random_plan.sample ~seed:(Helpers.seed + k)
          (Sjos_core.Search.make_ctx
             ~provider:(Costing.constant_provider 5.0) p)
          1
      with
      | [ (_, plan) ] -> plan
      | _ -> Alcotest.fail "expected one random plan"
    in
    Helpers.check_same_matches
      (Printf.sprintf "later run %d: %s" k (Pattern.to_string p))
      (Naive.matches idx p)
      (Array.to_list (Executor.execute idx p plan).Executor.tuples)
  done;
  unchanged "50 later runs";
  let expected = Naive.matches idx twig in
  let stopped what budget ?fetch () =
    match Executor.execute ~budget ?fetch idx twig join_plan with
    | exception Budget.Exhausted { resource; during = "execute" } -> resource
    | _ -> Alcotest.failf "%s: the run was not stopped" what
  in
  (match
     stopped "ceiling"
       (Budget.make ~max_tuples:(List.length expected / 2) ())
       ()
   with
  | Budget.Tuples_materialized _ -> ()
  | _ -> Alcotest.fail "ceiling: stopped by something else");
  unchanged "a run stopped by its ceiling";
  (* the last scan cancels, so the root join, whose inputs are already
     lent, is what polls the flag *)
  let budget = Budget.make ~cancelled:(Atomic.make false) () in
  let scans = ref 0 in
  let fetch spec =
    incr scans;
    if !scans = Pattern.node_count twig then Budget.cancel budget;
    (Candidate.select idx spec).Cols.ids
  in
  (match stopped "cancel" budget ~fetch () with
  | Budget.Cancelled -> ()
  | _ -> Alcotest.fail "cancel: stopped by something else");
  unchanged "a cancelled run";
  Helpers.check_same_matches "the stopped plan, unbudgeted" expected
    (Array.to_list (Executor.execute idx twig join_plan).Executor.tuples)

let suite =
  [
    ("tuple operations", `Quick, test_tuple);
    ("STJ-Desc descendant axis", `Quick, test_stj_desc_descendant);
    ("STJ-Anc descendant axis", `Quick, test_stj_anc_descendant);
    ("STJ child axis", `Quick, test_stj_child_axis);
    ("STJ empty inputs", `Quick, test_stj_empty_inputs);
    ("STJ unsorted input rejected", `Quick, test_stj_unsorted_rejected);
    ("STJ duplicate join values", `Quick, test_stj_duplicate_join_values);
    ("sort operator", `Quick, test_sort_operator);
    ("executor matches naive oracle", `Quick, test_executor_matches_naive);
    ("all algorithms same result", `Quick, test_executor_all_algorithms_agree);
    ("executor output ordering", `Quick, test_executor_output_order);
    ("executor rejects invalid plans", `Quick, test_executor_rejects_invalid);
    ("executor tuple limit", `Quick, test_executor_limit);
    ("metrics accounting", `Quick, test_metrics_accounting);
    ("naive cluster counts", `Quick, test_naive_cluster_count);
    ("pathstack matches naive", `Quick, test_path_stack_matches_naive);
    ("pathstack materializes only output", `Quick,
      test_path_stack_no_intermediate_blowup);
    ("twig join matches naive", `Quick, test_twig_join_matches_naive);
    ("twig join path solutions", `Quick, test_twig_join_path_solutions);
    ("twig join single node", `Quick, test_twig_join_single_node);
    ("results survive scratch reuse", `Quick, test_results_survive_reuse);
  ]
