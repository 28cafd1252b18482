open Sjos_xml
open Sjos_pattern
open Sjos_cost
open Sjos_plan

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ---------- Cost model ---------- *)

let test_cost_formulas () =
  let f = Cost_model.make ~f_index:2.0 ~f_sort:3.0 ~f_io:5.0 ~f_stack:7.0 () in
  Helpers.checkf "index" 20.0 (Cost_model.index_access f 10.0);
  Helpers.checkf "sort of 8" (3.0 *. 8.0 *. 3.0) (Cost_model.sort f 8.0);
  Helpers.checkf "sort of 1" 0.0 (Cost_model.sort f 1.0);
  Helpers.checkf "sort of 0" 0.0 (Cost_model.sort f 0.0);
  Helpers.checkf "stj-anc" ((2.0 *. 4.0 *. 5.0) +. (2.0 *. 3.0 *. 7.0))
    (Cost_model.stack_tree_anc f ~anc:3.0 ~output:4.0);
  Helpers.checkf "stj-desc" (2.0 *. 3.0 *. 7.0)
    (Cost_model.stack_tree_desc f ~anc:3.0)

let test_cost_monotonic () =
  let f = Cost_model.default in
  check cb "sort grows" true (Cost_model.sort f 100.0 < Cost_model.sort f 200.0);
  check cb "anc >= desc" true
    (Cost_model.stack_tree_anc f ~anc:10.0 ~output:0.0
    >= Cost_model.stack_tree_desc f ~anc:10.0)

let test_cost_make_errors () =
  expect_invalid (fun () -> Cost_model.make ~f_io:(-1.0) ());
  check cb "pp" true
    (String.length (Fmt.str "%a" Cost_model.pp_factors Cost_model.default) > 0)

(* ---------- Plan properties ---------- *)

let p3 () = Helpers.pat "manager(//employee(/name))"

let edge p i j = Option.get (Pattern.edge_between p i j)

let pipelined_plan p =
  (* ((A desc B) desc C): the first join outputs ordered by B, exactly what
     the second join's ancestor side needs — fully pipelined *)
  Plan.join
    ~anc_side:
      (Plan.join ~anc_side:(Plan.scan 0) ~desc_side:(Plan.scan 1)
         ~edge:(edge p 0 1) ~algo:Plan.Stack_tree_desc)
    ~desc_side:(Plan.scan 2) ~edge:(edge p 1 2) ~algo:Plan.Stack_tree_desc

let test_plan_accessors () =
  let p = p3 () in
  let plan = pipelined_plan p in
  check ci "mask" 0b111 (Plan.nodes_mask plan);
  check ci "joins" 2 (Plan.join_count plan);
  check ci "sorts" 0 (Plan.sort_count plan);
  check ci "ordered by C" 2 (Plan.ordered_by plan);
  let sorted = Plan.sort plan ~by:0 in
  check ci "sort changes order" 0 (Plan.ordered_by sorted);
  check ci "sort count" 1 (Plan.sort_count sorted);
  check Alcotest.string "algo names" "STJ-Anc"
    (Plan.algo_to_string Plan.Stack_tree_anc)

let test_plan_validate_ok () =
  let p = p3 () in
  (match Properties.validate p (pipelined_plan p) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check cb "valid" true (Properties.is_valid p (pipelined_plan p))

let test_plan_validate_rejects () =
  let p = p3 () in
  (* wrong input order: B side ordered by A after STJ-Anc, then joined on B *)
  let bad_order =
    Plan.join
      ~anc_side:
        (Plan.join ~anc_side:(Plan.scan 1) ~desc_side:(Plan.scan 2)
           ~edge:(edge p 1 2) ~algo:Plan.Stack_tree_desc)
        (* ordered by C, but the next join needs order by B *)
      ~desc_side:(Plan.scan 0) ~edge:(edge p 0 1) ~algo:Plan.Stack_tree_anc
  in
  check cb "bad order rejected" true (not (Properties.is_valid p bad_order));
  (* scanning the same node twice *)
  let double_scan =
    Plan.join ~anc_side:(Plan.scan 0) ~desc_side:(Plan.scan 0)
      ~edge:(edge p 0 1) ~algo:Plan.Stack_tree_anc
  in
  check cb "double scan rejected" true (not (Properties.is_valid p double_scan));
  (* missing node *)
  let partial =
    Plan.join ~anc_side:(Plan.scan 0) ~desc_side:(Plan.scan 1)
      ~edge:(edge p 0 1) ~algo:Plan.Stack_tree_anc
  in
  check cb "partial plan rejected" true (not (Properties.is_valid p partial));
  (* sort by unbound node *)
  let bad_sort = Plan.sort (Plan.scan 0) ~by:2 in
  check cb "sort unbound rejected" true (not (Properties.is_valid p bad_sort));
  (* join on a non-edge *)
  let non_edge =
    Plan.join ~anc_side:(Plan.scan 0) ~desc_side:(Plan.scan 2)
      ~edge:{ Pattern.anc = 0; desc = 2; axis = Axes.Descendant }
      ~algo:Plan.Stack_tree_anc
  in
  check cb "non-edge rejected" true (not (Properties.is_valid p non_edge));
  (* join on an edge, with the other axis *)
  let flip (e : Pattern.edge) =
    {
      e with
      Pattern.axis =
        (if e.Pattern.axis = Axes.Child then Axes.Descendant else Axes.Child);
    }
  in
  let wrong_axis =
    Plan.join
      ~anc_side:
        (Plan.join ~anc_side:(Plan.scan 0) ~desc_side:(Plan.scan 1)
           ~edge:(flip (edge p 0 1)) ~algo:Plan.Stack_tree_desc)
      ~desc_side:(Plan.scan 2) ~edge:(edge p 1 2) ~algo:Plan.Stack_tree_desc
  in
  check cb "wrong axis rejected" true
    (not (Properties.is_valid p wrong_axis))

let test_plan_shapes () =
  let p = p3 () in
  let plan = pipelined_plan p in
  check cb "fully pipelined" true (Properties.is_fully_pipelined plan);
  check cb "left deep" true (Properties.is_left_deep plan);
  check cb "not bushy" false (Properties.is_bushy plan);
  check cb "covers" true (Properties.covers p plan);
  let with_sort = Plan.sort plan ~by:0 in
  check cb "sorted not pipelined" false (Properties.is_fully_pipelined with_sort);
  (* a bushy plan over a 4-node pattern *)
  let p4 = Helpers.pat "a(//b,//c(/d))" in
  let bushy =
    Plan.join
      ~anc_side:
        (Plan.join ~anc_side:(Plan.scan 0) ~desc_side:(Plan.scan 1)
           ~edge:(edge p4 0 1) ~algo:Plan.Stack_tree_anc)
      ~desc_side:
        (Plan.join ~anc_side:(Plan.scan 2) ~desc_side:(Plan.scan 3)
           ~edge:(edge p4 2 3) ~algo:Plan.Stack_tree_anc)
      ~edge:(edge p4 0 2) ~algo:Plan.Stack_tree_anc
  in
  check cb "bushy valid" true (Properties.is_valid p4 bushy);
  check cb "bushy detected" true (Properties.is_bushy bushy);
  check cb "bushy pipelined" true (Properties.is_fully_pipelined bushy)

(* ---------- Costing ---------- *)

let test_costing_constant () =
  let p = p3 () in
  let f = Cost_model.make ~f_index:1.0 ~f_sort:1.0 ~f_io:1.0 ~f_stack:1.0 () in
  let provider = Costing.constant_provider 10.0 in
  let plan = pipelined_plan p in
  (* scans: 3 * 10; each STJ-Desc join: 2 * 10 = 20 *)
  Helpers.checkf "total" (30.0 +. 20.0 +. 20.0)
    (Costing.cost f provider p plan);
  Helpers.checkf "operator cost of scan" 10.0
    (Costing.operator_cost f provider (Plan.scan 0));
  let sort_node = Plan.sort plan ~by:0 in
  Helpers.checkf "sort operator" (10.0 *. Float.log 10.0 /. Float.log 2.0)
    (Costing.operator_cost f provider sort_node)

let test_costing_real_provider () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = p3 () in
  let provider = Helpers.exact_provider idx p in
  let plan = pipelined_plan p in
  let cost = Costing.cost Cost_model.default provider p plan in
  check cb "cost positive" true (cost > 0.0)

(* ---------- Explain ---------- *)

let test_explain () =
  let p = p3 () in
  let plan = Plan.sort (pipelined_plan p) ~by:0 in
  let s = Explain.to_string p plan in
  check cb "mentions STJ-Desc" true (Helpers.contains s "STJ-Desc");
  check cb "mentions sort" true (Helpers.contains s "Sort by A");
  check cb "mentions scan" true (Helpers.contains s "IdxScan C");
  let one = Explain.one_line p plan in
  check Alcotest.string "one line" "sort[A](((A desc B) desc C))" one;
  let wc =
    Explain.with_costs Cost_model.default (Costing.constant_provider 5.0) p plan
  in
  check cb "costs annotated" true (Helpers.contains wc "card~5")

let suite =
  [
    ("cost formulas", `Quick, test_cost_formulas);
    ("cost monotonicity", `Quick, test_cost_monotonic);
    ("cost make errors", `Quick, test_cost_make_errors);
    ("plan accessors", `Quick, test_plan_accessors);
    ("plan validate ok", `Quick, test_plan_validate_ok);
    ("plan validate rejects", `Quick, test_plan_validate_rejects);
    ("plan shapes", `Quick, test_plan_shapes);
    ("costing constant provider", `Quick, test_costing_constant);
    ("costing real provider", `Quick, test_costing_real_provider);
    ("explain", `Quick, test_explain);
  ]
