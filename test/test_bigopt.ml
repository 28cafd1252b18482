(* The large-pattern optimizer tier and the status-space fixes that ride
   with it:

   - Status.key regression: keys must separate statuses whose cluster
     partitions coincide but whose consumed-edge sets differ (the old
     [(mask, order) list] key collided them);
   - Pattern.max_nodes: oversized patterns are rejected structurally,
     never silently wrapped into a negative bitmask;
   - bit-identical effort counters after the popcount/cluster-map
     rework, pinned on the paper's Pers.3.d query;
   - BigDP differential: plan-cost equality with DP and DPP on every
     generated pattern <= 10 nodes, across the generator's four shape
     classes (seed via SJOS_BIGOPT_SEED, default 42);
   - budget truncation degrades structurally (Ok + degraded_from),
     never crashes;
   - generator shape invariants and determinism;
   - automatic tiering past the node threshold, end to end through
     Database. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_plan
open Sjos_core
open Sjos_engine
module Work = Sjos_obs.Work

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string

let seed =
  match Sys.getenv_opt "SJOS_BIGOPT_SEED" with
  | Some s -> ( try int_of_string s with _ -> 42)
  | None -> 42

(* A deterministic synthetic cardinality provider: cheap (no document),
   spread over three orders of magnitude, and a pure function of the
   mask so DP and BigDP price identical plans identically. *)
let synth_provider =
  {
    Costing.node_card = (fun i -> float_of_int (10 + (i * 37 mod 91)));
    cluster_card =
      (fun m ->
        let h = (m * 2654435761) land 0xFFFF in
        float_of_int (1 + (h mod 1000)));
  }

(* ---------- Status.key includes the consumed-edge set ---------- *)

let test_status_key_regression () =
  (* a(/b,//c): joining edge A-B and joining edge A-C can both leave the
     partition {A,B} | {C} vs {A,B,C}... instead build the collision
     directly: equal partitions, different [joined].  Such a pair is
     unreachable for tree patterns (a connected cluster determines its
     internal edges) but the key must not rely on reachability. *)
  let plan = Plan.scan 0 in
  let mk joined =
    {
      Status.clusters =
        [
          { Status.mask = 0b011; order = 0; plan; card = 1.0 };
          { Status.mask = 0b100; order = 2; plan; card = 1.0 };
        ];
      joined;
      cost = 1.0;
    }
  in
  let a = mk 0b01 and b = mk 0b10 in
  check cb "equal partitions" true
    ((Status.key a).Status.parts = (Status.key b).Status.parts);
  check cb "keys differ on joined" true (Status.key a <> Status.key b);
  check cb "equal statuses share a key" true
    (Status.key a = Status.key (mk 0b01))

(* ---------- word-parallel popcount and the cluster map ---------- *)

let test_popcount_and_cluster_map () =
  let reference m =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go m 0
  in
  List.iter
    (fun m -> check ci (Printf.sprintf "popcount %x" m) (reference m)
        (Status.popcount m))
    [ 0; 1; 0b10101; 0xFF; 0xDEADBEEF; max_int; (1 lsl 60) - 1; 1 lsl 60 ];
  let p = Helpers.pat "a(//b(/c),//d)" in
  let ctx = Search.make_ctx ~provider:(Costing.constant_provider 5.0) p in
  let s =
    Status.start ~factors:ctx.Search.factors ~provider:ctx.Search.provider p
  in
  let map = Status.cluster_map ~n:4 s in
  for i = 0 to 3 do
    check cb "map agrees with cluster_of" true
      (map.(i) == Status.cluster_of s i)
  done

(* ---------- the node-count ceiling ---------- *)

let big_chain n =
  let labels = Array.make n (Candidate.of_tag "a") in
  let edges = Array.init (n - 1) (fun i -> (i, Axes.Descendant, i + 1)) in
  Pattern.create ~labels ~edges ()

let test_node_limit () =
  check ci "limit is the mask-safe width" (Sys.int_size - 2) Pattern.max_nodes;
  (* the largest legal pattern still optimizes without mask overflow *)
  let p = big_chain Pattern.max_nodes in
  check ci "node_count" Pattern.max_nodes (Pattern.node_count p);
  let r = Optimizer.optimize ~provider:synth_provider (Optimizer.Big_dp 64) p in
  check (Alcotest.result Alcotest.unit cs) "plan valid"
    (Ok ()) (Properties.validate p r.Optimizer.plan);
  (* one node more is rejected at construction, as a structured request
     error through the guarded surface *)
  (match big_chain (Pattern.max_nodes + 1) with
  | _ -> Alcotest.fail "oversized pattern accepted"
  | exception Invalid_argument _ -> ());
  match
    Sjos_guard.Error.protect (fun () -> big_chain (Pattern.max_nodes + 1))
  with
  | Error (Sjos_guard.Error.Invalid_request _) -> ()
  | _ -> Alcotest.fail "oversized pattern not classed Invalid_request"

(* ---------- effort counters pinned (popcount/cluster-map rework) ---- *)

let test_effort_pins () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let q = Sjos_engine.Workload.q_pers_3_d in
  let p = q.Sjos_engine.Workload.pattern in
  let provider = Helpers.exact_provider idx p in
  let expect =
    (* (algo, considered, generated, expanded, pruned_bound,
       pruned_deadend, pruned_left_deep) — captured before the
       cluster-map/popcount rework; any drift means search behavior
       changed, not just speed *)
    [
      (Optimizer.Dp, 520, 520, 138, 0, 0, 0);
      (Optimizer.Dpp, 235, 235, 72, 102, 105, 0);
      (Optimizer.Dpp_no_lookahead, 340, 340, 102, 102, 0, 0);
      (Optimizer.Dpap_eb 5, 65, 65, 18, 7, 35, 0);
      (Optimizer.Dpap_ld, 64, 64, 33, 25, 3, 51);
      (Optimizer.Fp, 18, 0, 0, 0, 0, 0);
    ]
  in
  List.iter
    (fun (algo, considered, generated, expanded, pb, pd, pl) ->
      let r = Optimizer.optimize ~provider algo p in
      let w = r.Optimizer.work in
      let nm = Optimizer.name algo in
      check ci (nm ^ " considered") considered w.Work.plans_considered;
      check ci (nm ^ " generated") generated w.Work.statuses_generated;
      check ci (nm ^ " expanded") expanded w.Work.expansions;
      check ci (nm ^ " pruned_bound") pb w.Work.pruned_bound;
      check ci (nm ^ " pruned_deadend") pd w.Work.pruned_deadend;
      check ci (nm ^ " pruned_left_deep") pl w.Work.pruned_left_deep)
    expect

(* ---------- BigDP differential against DP/DPP on small patterns ----- *)

let test_bigdp_differential () =
  List.iter
    (fun shape ->
      List.iter
        (fun nodes ->
          List.iter
            (fun s ->
              let p = Shapes.generate ~seed:s ~nodes shape in
              let id =
                Printf.sprintf "%s/%d/seed%d" (Shapes.gen_shape_name shape)
                  nodes s
              in
              let dp = Optimizer.optimize ~provider:synth_provider Optimizer.Dp p in
              let dpp = Optimizer.optimize ~provider:synth_provider Optimizer.Dpp p in
              let big =
                Optimizer.optimize ~provider:synth_provider
                  (Optimizer.Big_dp Bigdp.default_width) p
              in
              Helpers.checkf (id ^ " BigDP = DP cost") dp.Optimizer.est_cost
                big.Optimizer.est_cost;
              Helpers.checkf (id ^ " BigDP = DPP cost") dpp.Optimizer.est_cost
                big.Optimizer.est_cost;
              check (Alcotest.result Alcotest.unit cs) (id ^ " plan valid")
                (Ok ())
                (Properties.validate p big.Optimizer.plan);
              (* the plan is priced honestly: re-costing both plans
                 through the same external cost function agrees (the
                 function's order-by accounting differs from the search's
                 internal tally by a constant, so compare plan to plan,
                 not plan to estimate) *)
              let recost plan =
                Costing.cost Sjos_cost.Cost_model.default synth_provider p plan
              in
              Helpers.checkf (id ^ " plan recost")
                (recost dp.Optimizer.plan)
                (recost big.Optimizer.plan))
            [ seed; seed + 1 ])
        [ 4; 5; 6; 7; 8; 9; 10 ])
    Shapes.all_gen_shapes

(* ---------- budget truncation degrades, never crashes ---------- *)

let test_budget_degrades () =
  let p = Shapes.generate ~seed ~nodes:20 Shapes.Star in
  (* DPP on 20 nodes auto-tiers to BigDP; a tiny expansion budget fires
     inside the layered enumeration and the result degrades to the
     narrow-beam fallback tier instead of crashing *)
  let budget = Sjos_guard.Budget.make ~max_expanded:5 () in
  (match
     Optimizer.optimize_r ~budget ~provider:synth_provider Optimizer.Dpp p
   with
  | Ok r ->
      check cb "degraded_from set" true
        (r.Optimizer.degraded_from = Some Optimizer.Dpp);
      check (Alcotest.result Alcotest.unit cs) "degraded plan valid"
        (Ok ())
        (Properties.validate p r.Optimizer.plan)
  | Error e ->
      Alcotest.failf "budgeted big-pattern optimize failed: %s"
        (Sjos_guard.Error.message e));
  (* forcing the tier explicitly degrades the same way *)
  match
    Optimizer.optimize_r ~budget ~provider:synth_provider
      (Optimizer.Big_dp 64) p
  with
  | Ok r -> check cb "forced tier degrades too" true
      (r.Optimizer.degraded_from = Some (Optimizer.Big_dp 64))
  | Error e ->
      Alcotest.failf "budgeted forced BigDP failed: %s"
        (Sjos_guard.Error.message e)

(* ---------- generator invariants ---------- *)

let test_generator_invariants () =
  List.iter
    (fun shape ->
      List.iter
        (fun nodes ->
          let p = Shapes.generate ~seed ~nodes shape in
          let id =
            Printf.sprintf "%s/%d" (Shapes.gen_shape_name shape) nodes
          in
          (* Pattern.create already validates tree-ness/connectivity and
             root-to-leaf edge direction; surviving construction is the
             invariant, the rest is per-class structure *)
          check ci (id ^ " node count") nodes (Pattern.node_count p);
          check ci (id ^ " edge count") (nodes - 1) (Pattern.edge_count p);
          (match shape with
          | Shapes.Chain ->
              check cb (id ^ " is a path") true (Pattern.is_path p);
              let desc =
                List.length
                  (List.filter
                     (fun (e : Pattern.edge) -> e.Pattern.axis = Axes.Descendant)
                     (Pattern.edges p))
              in
              check cb (id ^ " mostly // edges") true (2 * desc >= nodes - 1)
          | Shapes.Star ->
              check cb (id ^ " bushy hub") true
                (List.length (Pattern.children_of p 0) >= nodes / 3)
          | Shapes.Balanced ->
              check cb (id ^ " shallow") true
                (Pattern.depth p <= 1 + (nodes |> float_of_int |> log
                                          |> fun l -> int_of_float (l /. log 2.)))
          | Shapes.Mixed -> ());
          (* determinism: same inputs, same pattern *)
          check cs (id ^ " deterministic")
            (Pattern.to_string p)
            (Pattern.to_string (Shapes.generate ~seed ~nodes shape));
          (* distinct seeds disagree somewhere across the batch — the
             stream actually depends on the seed *)
          ())
        [ 15; 25; 40 ])
    Shapes.all_gen_shapes;
  let batch s =
    List.map
      (fun shape -> Pattern.to_string (Shapes.generate ~seed:s ~nodes:25 shape))
      Shapes.all_gen_shapes
  in
  check cb "seed changes the stream" true (batch seed <> batch (seed + 1))

(* ---------- automatic tiering ---------- *)

let test_auto_tiering () =
  let small = big_chain Optimizer.big_pattern_threshold in
  let large = big_chain (Optimizer.big_pattern_threshold + 1) in
  check cb "small stays DPP" true
    (Optimizer.effective small Optimizer.Dpp = Optimizer.Dpp);
  check cb "large re-tiers" true
    (Optimizer.effective large Optimizer.Dpp
    = Optimizer.Big_dp Bigdp.default_width);
  check cb "heuristics never re-tier" true
    (Optimizer.effective large Optimizer.Fp = Optimizer.Fp);
  let r = Optimizer.optimize ~provider:synth_provider Optimizer.Dpp large in
  check cs "result reports the effective tier" "BigDP(1024)"
    (Optimizer.name r.Optimizer.algorithm);
  (* and the effort counters are reproducible run over run *)
  let r2 = Optimizer.optimize ~provider:synth_provider Optimizer.Dpp large in
  check cb "work deterministic" true
    (Work.equal r.Optimizer.work r2.Optimizer.work)

(* ---------- end to end through Database ---------- *)

let test_database_end_to_end () =
  let db =
    Database.of_document (Lazy.force Helpers.pers_1k)
  in
  (* a 15-node // self-chain of managers: deep, selective, empty at this
     depth — the point is the pipeline (tiering, caching, execution),
     not the result set *)
  let n = 15 in
  let labels = Array.make n (Candidate.of_tag "manager") in
  let edges = Array.init (n - 1) (fun i -> (i, Axes.Descendant, i + 1)) in
  let p = Pattern.create ~labels ~edges () in
  let run = Database.run db p in
  check cs "ran under the BigDP tier" "BigDP(1024)"
    (Optimizer.name run.Database.opt.Optimizer.algorithm);
  check ci "deep self-chain is empty at 1k nodes" 0
    (Array.length run.Database.exec.Sjos_exec.Executor.tuples);
  (* the second run hits the plan cache under the effective-tier key *)
  let again = Database.prepare db p in
  check cb "cache hit on the BigDP key" true
    (Database.prepared_from_cache again)

let suite =
  [
    ("Status.key separates consumed-edge sets", `Quick, test_status_key_regression);
    ("popcount and cluster map", `Quick, test_popcount_and_cluster_map);
    ("node-count ceiling", `Quick, test_node_limit);
    ("effort counters pinned", `Quick, test_effort_pins);
    ("BigDP = DP = DPP on generated patterns <= 10", `Quick, test_bigdp_differential);
    ("budget truncation degrades structurally", `Quick, test_budget_degrades);
    ("generator shape invariants", `Quick, test_generator_invariants);
    ("automatic tiering past the threshold", `Quick, test_auto_tiering);
    ("Database end to end at 15 nodes", `Quick, test_database_end_to_end);
  ]
