open Sjos_pattern
open Sjos_plan
open Sjos_core
module Work = Sjos_obs.Work

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let ctx_for ?(provider = Costing.constant_provider 10.0) p =
  Search.make_ctx ~provider p

(* ---------- Status and search primitives ---------- *)

let test_status_start () =
  let p = Helpers.pat "a(//b(/c))" in
  let ctx = ctx_for p in
  let s = Search.start ctx in
  check ci "three clusters" 3 (List.length s.Status.clusters);
  check ci "level 0" 0 (Status.level s);
  check cb "not final" false (Status.is_final s);
  check ci "no multi clusters" 0 (Status.multi_cluster_count s);
  Helpers.checkf "cost = scans" 30.0 s.Status.cost;
  List.iter
    (fun (c : Status.cluster) ->
      check ci "singleton ordered by itself"
        (c.Status.mask land (1 lsl Plan.ordered_by c.Status.plan))
        (c.Status.mask))
    s.Status.clusters;
  check ci "popcount" 3 (Status.popcount 0b10101);
  check cb "pp prints" true
    (String.length (Fmt.str "%a" (Status.pp p) s) > 0)

let test_expand_moves () =
  let p = Helpers.pat "a(//b(/c))" in
  let ctx = ctx_for p in
  let s = Search.start ctx in
  let succs = Search.expand ctx s in
  (* 2 edges x 2 algorithms x (1 natural + useful sorts) *)
  check cb "successors exist" true (List.length succs >= 4);
  List.iter
    (fun (succ : Status.t) ->
      check ci "level 1" 1 (Status.level succ);
      check ci "two clusters" 2 (List.length succ.Status.clusters);
      check cb "cost grows" true (succ.Status.cost >= s.Status.cost))
    succs;
  check ci "expanded counter" 1 ctx.Search.work.Work.expansions;
  check ci "considered = generated" ctx.Search.work.Work.statuses_generated
    ctx.Search.work.Work.plans_considered

let test_deadend_detection () =
  let p = Helpers.pat "a(//b,//c)" in
  let ctx = ctx_for p in
  let s = Search.start ctx in
  (* Join A-B with STJ-Desc and no re-sort: cluster {A,B} ordered by B.
     Remaining edge A-C needs {A,B} ordered by A: deadend. *)
  let deadends, alive =
    List.partition (Search.is_deadend ctx) (Search.expand ctx s)
  in
  check cb "some deadends exist" true (deadends <> []);
  check cb "some alive" true (alive <> []);
  (* With lookahead, none are generated. *)
  let ctx2 = ctx_for p in
  let s2 = Search.start ctx2 in
  let filtered = Search.expand ~lookahead:true ctx2 s2 in
  check cb "lookahead filters deadends" true
    (List.for_all (fun x -> not (Search.is_deadend ctx2 x)) filtered);
  check cb "lookahead generates fewer" true
    (List.length filtered < List.length deadends + List.length alive)

let test_finalize_order_by () =
  let p = Helpers.pat "a(//b) order by B" in
  let ctx = ctx_for p in
  let cost, plan = Dp.run ctx in
  check ci "final order" 1 (Plan.ordered_by plan);
  check cb "cost positive" true (cost > 0.0);
  (* order by A forces either STJ-Anc output or a final sort *)
  let p2 = Helpers.pat "a(//b) order by A" in
  let ctx2 = ctx_for p2 in
  let _, plan2 = Dp.run ctx2 in
  check ci "final order A" 0 (Plan.ordered_by plan2)

(* ---------- Optimality: DP == exhaustive enumeration ---------- *)

let small_patterns =
  [
    "manager(//employee)";
    "manager(//employee(/name))";
    "manager(/name,//employee)";
    "company(//manager(//employee,/name))";
  ]

let test_dp_matches_enumeration () =
  let idx = Lazy.force Helpers.tiny_index in
  List.iter
    (fun s ->
      let p = Helpers.pat s in
      let provider = Helpers.exact_provider idx p in
      let dp_cost, dp_plan = Dp.run (Search.make_ctx ~provider p) in
      let enum_cost, _ = Enumerate.optimal (Search.make_ctx ~provider p) in
      Helpers.checkf ("optimal cost " ^ s) enum_cost dp_cost;
      check cb "plan valid" true (Properties.is_valid p dp_plan))
    small_patterns

let test_dpp_matches_dp () =
  let idx = Lazy.force Helpers.pers_1k_index in
  List.iter
    (fun (q : Sjos_engine.Workload.query) ->
      let p = q.Sjos_engine.Workload.pattern in
      let provider = Helpers.exact_provider idx p in
      let dp_cost, _ = Dp.run (Search.make_ctx ~provider p) in
      let dpp_cost, dpp_plan = Dpp.run (Search.make_ctx ~provider p) in
      let dpp'_cost, _ = Dpp.run ~lookahead:false (Search.make_ctx ~provider p) in
      Helpers.checkf ("DPP optimal " ^ q.Sjos_engine.Workload.id) dp_cost dpp_cost;
      Helpers.checkf ("DPP' optimal " ^ q.Sjos_engine.Workload.id) dp_cost dpp'_cost;
      check cb "plan valid" true (Properties.is_valid p dpp_plan))
    (List.filter
       (fun (q : Sjos_engine.Workload.query) ->
         q.Sjos_engine.Workload.dataset = Sjos_engine.Workload.Pers)
       Sjos_engine.Workload.queries)

let test_dp_with_order_by_optimal () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name)) order by C" in
  let provider = Helpers.exact_provider idx p in
  let dp_cost, dp_plan = Dp.run (Search.make_ctx ~provider p) in
  let enum_cost, _ = Enumerate.optimal (Search.make_ctx ~provider p) in
  Helpers.checkf "optimal with order-by" enum_cost dp_cost;
  check ci "ordered by C" 2 (Plan.ordered_by dp_plan)

(* ---------- FP ---------- *)

let test_fp_pipelined () =
  let idx = Lazy.force Helpers.pers_1k_index in
  List.iter
    (fun s ->
      let p = Helpers.pat s in
      let provider = Helpers.exact_provider idx p in
      let cost, plan = Fp.run (Search.make_ctx ~provider p) in
      check cb ("fp plan valid " ^ s) true (Properties.is_valid p plan);
      check cb "fully pipelined" true (Properties.is_fully_pipelined plan);
      let dp_cost, _ = Dp.run (Search.make_ctx ~provider p) in
      check cb "fp >= optimal" true (cost >= dp_cost -. 1e-6))
    ([ "manager(//employee(/name),//manager(/department(/name)))" ]
    @ small_patterns)

let test_fp_order_by () =
  let idx = Lazy.force Helpers.tiny_index in
  for node = 0 to 2 do
    let p =
      Pattern.with_order_by (Helpers.pat "manager(//employee(/name))")
        (Some node)
    in
    let provider = Helpers.exact_provider idx p in
    let _, plan = Fp.run (Search.make_ctx ~provider p) in
    check ci "fp respects order-by" node (Plan.ordered_by plan);
    check cb "still pipelined" true (Properties.is_fully_pipelined plan)
  done

let test_fp_best_ordered_by () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let provider = Helpers.exact_provider idx p in
  List.iter
    (fun node ->
      let _, plan = Fp.best_ordered_by (Search.make_ctx ~provider p) node in
      check ci "ordered as requested" node (Plan.ordered_by plan))
    [ 0; 1; 2 ]

let test_fp_single_node_pattern () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager" in
  let provider = Helpers.exact_provider idx p in
  let cost, plan = Fp.run (Search.make_ctx ~provider p) in
  check cb "scan plan" true (plan = Plan.scan 0);
  Helpers.checkf "scan cost" 3.0 cost

(* ---------- DPAP ---------- *)

let test_dpap_eb_spectrum () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//employee(/name),//manager(/department(/name)))" in
  let provider = Helpers.exact_provider idx p in
  let dp_cost, _ = Dp.run (Search.make_ctx ~provider p) in
  let prev = ref None in
  for te = 1 to Pattern.node_count p do
    let cost, plan =
      Dpp.run ~expansion_bound:(Some te) (Search.make_ctx ~provider p)
    in
    check cb (Printf.sprintf "te=%d valid" te) true (Properties.is_valid p plan);
    check cb "te cost >= optimal" true (cost >= dp_cost -. 1e-6);
    (match !prev with _ -> ());
    prev := Some cost
  done;
  (* with a generous bound DPAP-EB finds the optimum *)
  let cost, _ =
    Dpp.run ~expansion_bound:(Some 10_000) (Search.make_ctx ~provider p)
  in
  Helpers.checkf "unbounded EB = optimal" dp_cost cost

let test_dpap_ld_left_deep () =
  let idx = Lazy.force Helpers.pers_1k_index in
  List.iter
    (fun s ->
      let p = Helpers.pat s in
      let provider = Helpers.exact_provider idx p in
      let cost, plan = Dpp.run ~left_deep:true (Search.make_ctx ~provider p) in
      check cb ("ld valid " ^ s) true (Properties.is_valid p plan);
      check cb "left deep" true (Properties.is_left_deep plan);
      let dp_cost, _ = Dp.run (Search.make_ctx ~provider p) in
      check cb "ld >= optimal" true (cost >= dp_cost -. 1e-6))
    [
      "manager(//employee(/name))";
      "manager(//employee(/name),//department(/name))";
      "manager(//employee(/name),//manager(/department(/name)))";
    ]

let test_dpp_priority_ablation () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//employee(/name),//manager(/department(/name)))" in
  let provider = Helpers.exact_provider idx p in
  let dp_cost, _ = Dp.run (Search.make_ctx ~provider p) in
  let cost_only, _ =
    Dpp.run ~prioritize_by_ub:false (Search.make_ctx ~provider p)
  in
  Helpers.checkf "Cost-only priority is still optimal" dp_cost cost_only

(* ---------- Counters (Table 2 property) ---------- *)

let test_effort_ordering () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//employee(/name),//manager(/department(/name)))" in
  let provider = Helpers.exact_provider idx p in
  let considered algo =
    (Optimizer.optimize ~provider algo p).Optimizer.work.Work.plans_considered
  in
  let dp = considered Optimizer.Dp in
  let dpp' = considered Optimizer.Dpp_no_lookahead in
  let dpp = considered Optimizer.Dpp in
  let eb = considered (Optimizer.Dpap_eb (Optimizer.default_te p)) in
  let ld = considered Optimizer.Dpap_ld in
  let fp = considered Optimizer.Fp in
  check cb (Printf.sprintf "DP(%d) >= DPP'(%d)" dp dpp') true (dp >= dpp');
  check cb (Printf.sprintf "DPP'(%d) > DPP(%d)" dpp' dpp) true (dpp' > dpp);
  check cb (Printf.sprintf "DPP(%d) > EB(%d)" dpp eb) true (dpp > eb);
  check cb (Printf.sprintf "EB(%d) > FP(%d)" eb fp) true (eb > fp);
  check cb (Printf.sprintf "LD(%d) > FP(%d)" ld fp) true (ld > fp)

(* ---------- Random plans ---------- *)

let test_random_plans_valid () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name),//department(/name))" in
  let provider = Helpers.exact_provider idx p in
  let ctx = Search.make_ctx ~provider p in
  List.iter
    (fun (cost, plan) ->
      check cb "random plan valid" true (Properties.is_valid p plan);
      check cb "cost positive" true (cost > 0.0))
    (Random_plan.sample ~seed:5 ctx 25)

let test_random_plans_deterministic () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let provider = Helpers.exact_provider idx p in
  let s1 = Random_plan.sample ~seed:9 (Search.make_ctx ~provider p) 5 in
  let s2 = Random_plan.sample ~seed:9 (Search.make_ctx ~provider p) 5 in
  check cb "same seed same plans" true
    (List.for_all2 (fun (c1, p1) (c2, p2) -> c1 = c2 && Plan.equal p1 p2) s1 s2)

let test_worst_best () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//employee(/name),//department(/name))" in
  let provider = Helpers.exact_provider idx p in
  let ctx = Search.make_ctx ~provider p in
  let wc, _ = Random_plan.worst_of ~seed:3 ctx 30 in
  let bc, _ = Random_plan.best_of ~seed:3 ctx 30 in
  check cb "worst >= best" true (wc >= bc);
  let dp_cost, _ = Dp.run (Search.make_ctx ~provider p) in
  check cb "optimal <= best random" true (dp_cost <= bc +. 1e-6);
  match Random_plan.worst_of ctx 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k=0 must be rejected"

(* ---------- Optimizer facade ---------- *)

let test_optimizer_facade () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let provider = Helpers.exact_provider idx p in
  List.iter
    (fun algo ->
      let r = Optimizer.optimize ~provider algo p in
      check cb "plan valid" true (Properties.is_valid p r.Optimizer.plan);
      check cb "considered positive" true
        (r.Optimizer.work.Work.plans_considered > 0);
      check cb "time recorded" true (r.Optimizer.opt_seconds >= 0.0))
    (Optimizer.all p @ [ Optimizer.Dpp_no_lookahead ]);
  check Alcotest.string "names" "DPAP-EB(3)" (Optimizer.name (Optimizer.Dpap_eb 3));
  check ci "default te" (Pattern.edge_count p) (Optimizer.default_te p)

(* ---------- Priority queue ---------- *)

let test_pq () =
  let q = Pq.create () in
  check cb "empty" true (Pq.is_empty q);
  List.iter (fun (pr, v) -> Pq.push q pr v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (1.0, "a2"); (0.5, "z") ];
  check ci "length" 5 (Pq.length q);
  (match Pq.peek q with
  | Some (pr, v) ->
      Helpers.checkf "peek prio" 0.5 pr;
      check Alcotest.string "peek value" "z" v
  | None -> Alcotest.fail "peek");
  let order = ref [] in
  let rec drain () =
    match Pq.pop q with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list Alcotest.string) "pop order (FIFO ties)"
    [ "z"; "a"; "a2"; "b"; "c" ]
    (List.rev !order);
  check cb "empty after drain" true (Pq.pop q = None)

let suite =
  [
    ("status start", `Quick, test_status_start);
    ("expand moves", `Quick, test_expand_moves);
    ("deadend detection & lookahead", `Quick, test_deadend_detection);
    ("finalize with order-by", `Quick, test_finalize_order_by);
    ("DP matches exhaustive enumeration", `Quick, test_dp_matches_enumeration);
    ("DPP and DPP' match DP", `Quick, test_dpp_matches_dp);
    ("DP optimal with order-by", `Quick, test_dp_with_order_by_optimal);
    ("FP plans are pipelined and valid", `Quick, test_fp_pipelined);
    ("FP respects order-by", `Quick, test_fp_order_by);
    ("FP best_ordered_by", `Quick, test_fp_best_ordered_by);
    ("FP on single-node pattern", `Quick, test_fp_single_node_pattern);
    ("DPAP-EB across Te", `Quick, test_dpap_eb_spectrum);
    ("DPAP-LD produces left-deep plans", `Quick, test_dpap_ld_left_deep);
    ("DPP priority ablation stays optimal", `Quick, test_dpp_priority_ablation);
    ("search effort ordering", `Quick, test_effort_ordering);
    ("random plans valid", `Quick, test_random_plans_valid);
    ("random plans deterministic", `Quick, test_random_plans_deterministic);
    ("worst/best of random plans", `Quick, test_worst_best);
    ("optimizer facade", `Quick, test_optimizer_facade);
    ("priority queue", `Quick, test_pq);
  ]
