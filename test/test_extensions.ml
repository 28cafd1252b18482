(* Tests for the extension modules: randomized optimizers, cost
   calibration, attribute index, and the FLWOR front end. *)

open Sjos_xml
open Sjos_storage
open Sjos_plan
open Sjos_core
open Sjos_exec
open Sjos_engine
module Work = Sjos_obs.Work

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string

(* ---------- Randomized optimizers ---------- *)

let test_randomized_valid_and_bounded () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//employee(/name),//manager(/department(/name)))" in
  let provider = Naive.exact_provider idx p in
  let dp_cost, _ = Dp.run (Search.make_ctx ~provider p) in
  let ii_cost, ii_plan =
    Random_plan.iterative_improvement ~seed:3 (Search.make_ctx ~provider p)
  in
  check cb "II plan valid" true (Properties.is_valid p ii_plan);
  check cb "II >= optimal" true (ii_cost >= dp_cost -. 1e-6);
  let sa_cost, sa_plan =
    Random_plan.simulated_annealing ~seed:4 (Search.make_ctx ~provider p)
  in
  check cb "SA plan valid" true (Properties.is_valid p sa_plan);
  check cb "SA >= optimal" true (sa_cost >= dp_cost -. 1e-6);
  (* both should land well below the worst random plan *)
  let worst, _ = Random_plan.worst_of ~seed:5 (Search.make_ctx ~provider p) 30 in
  check cb "II beats worst random" true (ii_cost < worst);
  check cb "SA beats worst random" true (sa_cost < worst)

let test_randomized_deterministic () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let provider = Naive.exact_provider idx p in
  let c1, _ = Random_plan.iterative_improvement ~seed:7 (Search.make_ctx ~provider p) in
  let c2, _ = Random_plan.iterative_improvement ~seed:7 (Search.make_ctx ~provider p) in
  Helpers.checkf "same seed same result" c1 c2

(* ---------- Calibrate ---------- *)

let synthetic_work (i, s, io, st) =
  let m = Work.zero () in
  m.Work.candidates_scanned <- i;
  m.Work.sort_cost <- s;
  m.Work.io_items <- io;
  m.Work.stack_ops <- st;
  m

let test_calibrate_recovers_factors () =
  let truth =
    Sjos_cost.Cost_model.make ~f_index:2.0 ~f_sort:0.5 ~f_io:7.0 ~f_stack:1.5 ()
  in
  let observations =
    List.map
      (fun spec ->
        let m = synthetic_work spec in
        (m, Sjos_cost.Cost_model.cost_units truth m))
      [
        (100, 5.0, 20, 300);
        (50, 80.0, 5, 10);
        (10, 1.0, 200, 50);
        (400, 20.0, 3, 900);
        (7, 300.0, 60, 2);
        (33, 0.0, 0, 44);
      ]
  in
  let fitted = Calibrate.fit observations in
  Helpers.checkf "f_index" 2.0 fitted.Sjos_cost.Cost_model.f_index;
  Helpers.checkf "f_sort" 0.5 fitted.Sjos_cost.Cost_model.f_sort;
  Helpers.checkf "f_io" 7.0 fitted.Sjos_cost.Cost_model.f_io;
  Helpers.checkf "f_stack" 1.5 fitted.Sjos_cost.Cost_model.f_stack;
  Helpers.checkf "zero residual" 0.0
    (Calibrate.mean_relative_error fitted observations)

let test_calibrate_degenerate () =
  (* one observation: singular system; fall back to scaled defaults *)
  let m = synthetic_work (100, 0.0, 0, 0) in
  let fitted = Calibrate.fit [ (m, 5.0) ] in
  Helpers.checkf "prediction matches total" 5.0
    (Sjos_cost.Cost_model.cost_units fitted m);
  match Calibrate.fit [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty observations rejected"

let test_calibrate_on_real_runs () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let observations =
    List.concat_map
      (fun (q : Workload.query) ->
        if q.Workload.dataset = Workload.Pers then begin
          let run = Database.run db q.Workload.pattern in
          [ (run.Database.exec.Executor.work, run.Database.exec.Executor.seconds) ]
        end
        else [])
      Workload.queries
  in
  let fitted = Calibrate.fit observations in
  (* fitted factors are non-negative and prediction error is bounded *)
  check cb "non-negative" true
    (fitted.Sjos_cost.Cost_model.f_index >= 0.
    && fitted.Sjos_cost.Cost_model.f_sort >= 0.
    && fitted.Sjos_cost.Cost_model.f_io >= 0.
    && fitted.Sjos_cost.Cost_model.f_stack >= 0.)

(* ---------- Attribute index ---------- *)

let test_attribute_index () =
  let doc = Lazy.force Helpers.mbench_1k in
  let idx = Element_index.build doc in
  let via_index = Element_index.attr_cols idx ~tag:"eNest" ~attr:"aLevel" ~value:"3" in
  let via_filter =
    Array.to_list (Helpers.nodes idx "eNest")
    |> List.filter (fun n -> Node.has_attr_value n "aLevel" "3")
    |> List.map (fun (n : Node.t) -> n.Node.id)
  in
  check ci "same cardinality" (List.length via_filter) (Cols.length via_index);
  check cb "same nodes" true (Array.to_list via_index.Cols.ids = via_filter);
  check cb "cached" true
    (via_index == Element_index.attr_cols idx ~tag:"eNest" ~attr:"aLevel" ~value:"3");
  check ci "missing value" 0
    (Cols.length (Element_index.attr_cols idx ~tag:"eNest" ~attr:"aLevel" ~value:"99"));
  check ci "missing attr" 0
    (Cols.length (Element_index.attr_cols idx ~tag:"eNest" ~attr:"nope" ~value:"1"));
  (* Candidate.select goes through the secondary index and agrees *)
  let spec = { (Candidate.of_tag "eNest") with Candidate.attr = Some ("aLevel", "3") } in
  check cb "candidate select agrees" true
    (Candidate.select idx spec == via_index)

(* ---------- Xquery ---------- *)

let tiny_db = lazy (Database.of_string Helpers.tiny_pers_xml)

let test_xquery_basic () =
  let db = Lazy.force tiny_db in
  let doc =
    Xquery.run db
      "for $m in //manager for $e in $m//employee return <r>{$e/text()}</r>"
  in
  (* one <r> per (manager, employee) pair: (1,3),(1,9),(5,9),(13,15) *)
  check ci "results" 4
    (List.length (Document.children doc (Document.root doc)))

let test_xquery_where () =
  let db = Lazy.force tiny_db in
  let out =
    Xquery.run_string db
      "for $m in //manager for $e in $m//employee where $e/name = 'dan' \
       return <hit>{$m/name/text()}</hit>"
  in
  (* dan works under ann and under cid *)
  check cb "two hits" true
    (Helpers.contains out "<hit>ann</hit>" && Helpers.contains out "<hit>cid</hit>")

let test_xquery_existence_and_copy () =
  let db = Lazy.force tiny_db in
  let doc =
    Xquery.run db
      "for $m in //manager where $m/department return <boss>{$m/name}</boss>"
  in
  (* managers with a *child* department: ann and cid *)
  let results = Document.children doc (Document.root doc) in
  check ci "two bosses" 2 (List.length results);
  (* {$m/name} would copy a subtree — here name: one name child each *)
  List.iter
    (fun r ->
      check ci "copied subtree" 1 (List.length (Document.children doc r)))
    results

let test_xquery_errors () =
  let db = Lazy.force tiny_db in
  List.iter
    (fun q ->
      match Xquery.run db q with
      | exception
          Sjos_guard.Error.Error (Sjos_guard.Error.Parse_error { input; _ })
        when input = q ->
          ()
      | _ -> Alcotest.fail ("expected failure: " ^ q))
    [
      "";
      "for $x in //a";
      "for $x in $y//a return <r></r>";
      "for $x in //a for $x in $x/b return <r></r>";
      "for $x in //a where $x return <r></r>";
      "for $x in //a return <r>{$zzz}</r>";
      "for $x in //a return <r>{$x/bogus()}</r>";
      "for $x in //a return <r></s>";
    ]

let test_xquery_optimized_consistently () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let q =
    "for $m in //manager for $d in $m//department for $n in $d/name \
     return <x></x>"
  in
  let count algorithm =
    let doc = Xquery.run ~opts:(Query_opts.make ~algorithm ()) db q in
    List.length (Document.children doc (Document.root doc))
  in
  let dp = count Optimizer.Dp in
  List.iter
    (fun a -> check ci "same result count" dp (count a))
    [ Optimizer.Dpp; Optimizer.Fp; Optimizer.Dpap_ld ]

let suite =
  [
    ("randomized optimizers valid & bounded", `Quick, test_randomized_valid_and_bounded);
    ("randomized deterministic", `Quick, test_randomized_deterministic);
    ("calibrate recovers factors", `Quick, test_calibrate_recovers_factors);
    ("calibrate degenerate input", `Quick, test_calibrate_degenerate);
    ("calibrate on real runs", `Quick, test_calibrate_on_real_runs);
    ("attribute index", `Quick, test_attribute_index);
    ("xquery basic", `Quick, test_xquery_basic);
    ("xquery where", `Quick, test_xquery_where);
    ("xquery existence and copy", `Quick, test_xquery_existence_and_copy);
    ("xquery errors", `Quick, test_xquery_errors);
    ("xquery all optimizers agree", `Quick, test_xquery_optimized_consistently);
  ]
