(* Observability layer: JSON, spans, and EXPLAIN ANALYZE. *)

open Sjos_obs
open Sjos_engine
module Work = Sjos_obs.Work

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string

let with_obs_enabled f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

(* ---------- JSON ---------- *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("n", Json.Int (-42));
      ("x", Json.Float 1.5);
      ("big", Json.Float 5232.0666643235254);
      ("s", Json.Str "quote \" backslash \\ newline \n tab \t");
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ( "nested",
        Json.List [ Json.Int 1; Json.Obj [ ("k", Json.Str "v") ]; Json.Null ] );
    ]

let test_json_roundtrip () =
  let compact = Json.to_string sample_json in
  let pretty = Json.to_string_pretty sample_json in
  (match Json.of_string compact with
  | Ok j -> check cb "compact round-trips" true (Json.equal j sample_json)
  | Error e -> Alcotest.failf "compact parse failed: %s" e);
  (match Json.of_string pretty with
  | Ok j -> check cb "pretty round-trips" true (Json.equal j sample_json)
  | Error e -> Alcotest.failf "pretty parse failed: %s" e);
  (* non-finite floats serialize as null (valid JSON) *)
  let nan_doc = Json.to_string (Json.List [ Json.Float nan ]) in
  check cs "nan -> null" "[null]" nan_doc;
  (* malformed inputs are rejected, not crashed on *)
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted malformed JSON: %s" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

let test_json_accessors () =
  check cb "member hit" true
    (Json.member "n" sample_json = Some (Json.Int (-42)));
  check cb "member miss" true (Json.member "absent" sample_json = None);
  check cb "number of int" true (Json.number (Json.Int 3) = Some 3.0);
  check cb "number of float" true (Json.number (Json.Float 2.5) = Some 2.5);
  check cb "number of str" true (Json.number (Json.Str "x") = None)

(* ---------- spans ---------- *)

let test_span_nesting () =
  with_obs_enabled (fun () ->
      let outer = Trace.begin_span "outer" in
      let inner = Trace.begin_span "inner" in
      Trace.end_span inner ~attrs:[ ("rows", Json.Int 7) ];
      Trace.end_span outer;
      Trace.with_span "second_root" (fun () -> Trace.event "tick");
      match Trace.to_json () with
      | Json.List [ first; second ] ->
          check cb "first root named outer" true
            (Json.member "name" first = Some (Json.Str "outer"));
          (match Json.member "children" first with
          | Some (Json.List [ child ]) ->
              check cb "inner nests under outer" true
                (Json.member "name" child = Some (Json.Str "inner"));
              let attrs =
                match Json.member "attrs" child with
                | Some a -> a
                | None -> Json.Null
              in
              check cb "close attrs recorded" true
                (Json.member "rows" attrs = Some (Json.Int 7))
          | _ -> Alcotest.fail "outer should have exactly one child");
          check cb "second root present" true
            (Json.member "name" second = Some (Json.Str "second_root"))
      | j -> Alcotest.failf "unexpected trace shape: %s" (Json.to_string j))

let test_span_orphan_close () =
  with_obs_enabled (fun () ->
      (* closing a span also closes still-open descendants *)
      let outer = Trace.begin_span "outer" in
      let _leaked = Trace.begin_span "leaked" in
      Trace.end_span outer;
      check cb "forest not empty" true (not (Trace.is_empty ()));
      let rendered = Trace.to_string () in
      check cb "render mentions leaked span" true
        (Helpers.contains rendered "leaked"))

(* ---------- disabled tracing ---------- *)

let test_noop_mode () =
  Trace.reset ();
  (* tracing disabled: instrumented code must record nothing *)
  check cb "trace off by default" false (Trace.enabled ());
  let s = Trace.begin_span "ignored" in
  check cb "disabled begin_span yields null span" true (s == Trace.null_span);
  Trace.end_span s;
  Trace.event "ignored event";
  let db = Database.of_string Helpers.tiny_pers_xml in
  let pat = Sjos_pattern.Parse.pattern "manager(//employee(/name))" in
  ignore (Database.analyze_prepared (Database.prepare db pat));
  check cb "no spans recorded" true (Trace.is_empty ());
  check cs "trace renders empty" "" (Trace.to_string ())

(* ---------- tracing must not change optimizer behavior ---------- *)

let test_counters_invariant_under_tracing () =
  let db =
    Database.of_document
      (Workload.generate ~size:800 Workload.q_pers_3_d.Workload.dataset)
  in
  let pat = Workload.q_pers_3_d.Workload.pattern in
  let effort algo =
    (Helpers.cold_result ~algorithm:algo db pat).Sjos_core.Optimizer.work
  in
  let algos =
    Sjos_core.Optimizer.
      [ Dp; Dpp; Dpp_no_lookahead; Dpap_eb 2; Dpap_ld; Fp ]
  in
  let plain = List.map effort algos in
  let traced = with_obs_enabled (fun () -> List.map effort algos) in
  List.iter2
    (fun w w' -> check cb "search work unchanged" true (Work.equal w w'))
    plain traced

(* ---------- EXPLAIN ANALYZE ---------- *)

let analyze_queries () =
  (* every workload query, on small data so the whole matrix stays fast *)
  List.map
    (fun (q : Workload.query) ->
      let db =
        Database.of_document (Workload.generate ~size:600 q.Workload.dataset)
      in
      (q, db, Database.analyze_prepared (Database.prepare db q.Workload.pattern)))
    Workload.queries

let test_analyze_rows_populated () =
  List.iter
    (fun ((q : Workload.query), _db, a) ->
      let plan = a.Database.opt.Sjos_core.Optimizer.plan in
      let rec count_ops p =
        1
        +
        match p with
        | Sjos_plan.Plan.Index_scan _ | Sjos_plan.Plan.Holistic _ -> 0
        | Sjos_plan.Plan.Sort { input; _ } -> count_ops input
        | Sjos_plan.Plan.Structural_join { anc_side; desc_side; _ } ->
            count_ops anc_side + count_ops desc_side
      in
      check ci
        (q.Workload.id ^ ": one analysis row per plan operator")
        (count_ops plan)
        (List.length a.Database.rows);
      List.iter
        (fun (r : Sjos_plan.Explain.analysis_row) ->
          let name = q.Workload.id in
          check cb (name ^ ": est_rows finite") true
            (Float.is_finite r.Sjos_plan.Explain.est_rows);
          check cb (name ^ ": est_rows >= 0") true
            (r.Sjos_plan.Explain.est_rows >= 0.0);
          check cb (name ^ ": actual_rows >= 0") true
            (r.Sjos_plan.Explain.actual_rows >= 0);
          check cb (name ^ ": est_units >= 0") true
            (r.Sjos_plan.Explain.est_units >= 0.0);
          check cb (name ^ ": actual_units >= 0") true
            (r.Sjos_plan.Explain.actual_units >= 0.0);
          check cb (name ^ ": q_error >= 1") true
            (r.Sjos_plan.Explain.q_error >= 1.0);
          check cb (name ^ ": seconds >= 0") true
            (r.Sjos_plan.Explain.seconds >= 0.0))
        a.Database.rows;
      (* the root row's actual cardinality is the query's match count *)
      match a.Database.rows with
      | root :: _ ->
          check ci
            (q.Workload.id ^ ": root actual_rows = matches")
            (Array.length a.Database.exec.Sjos_exec.Executor.tuples)
            root.Sjos_plan.Explain.actual_rows
      | [] -> Alcotest.fail "no analysis rows")
    (analyze_queries ())

let test_analyze_renderings () =
  let db = Database.of_string Helpers.tiny_pers_xml in
  let pat = Sjos_pattern.Parse.pattern "manager(//employee(/name))" in
  let a = Database.analyze_prepared (Database.prepare db pat) in
  let table = Sjos_plan.Explain.analyze_to_string pat a.Database.rows in
  List.iter
    (fun needle ->
      check cb ("table mentions " ^ needle) true (Helpers.contains table needle))
    [ "est.rows"; "act.rows"; "q-err"; "act.units"; "time(ms)"; "IdxScan" ];
  let json = Sjos_plan.Explain.analysis_to_json pat a.Database.rows in
  match Json.of_string (Json.to_string_pretty json) with
  | Ok j -> check cb "analysis JSON round-trips" true (Json.equal j json)
  | Error e -> Alcotest.failf "analysis JSON did not parse: %s" e

let test_q_error () =
  let q = Sjos_plan.Explain.q_error in
  Alcotest.(check (float 1e-9)) "exact" 1.0 (q ~est:10.0 ~actual:10.);
  Alcotest.(check (float 1e-9)) "over by 2x" 2.0 (q ~est:20.0 ~actual:10.);
  Alcotest.(check (float 1e-9)) "under by 4x" 4.0 (q ~est:2.5 ~actual:10.);
  (* zeroes clamp instead of dividing by zero *)
  check cb "zero actual finite" true (Float.is_finite (q ~est:5.0 ~actual:0.));
  check cb "zero both" true (q ~est:0.0 ~actual:0. = 1.0)

(* ---------- optimizer result export ---------- *)

let test_optimizer_result_json () =
  let db = Database.of_string Helpers.tiny_pers_xml in
  let pat = Sjos_pattern.Parse.pattern "manager(//employee(/name))" in
  let r = Helpers.cold_result ~algorithm:Sjos_core.Optimizer.Dpp db pat in
  let json =
    Sjos_core.Optimizer.result_to_json
      ~fingerprint:(Sjos_pattern.Fingerprint.fingerprint pat)
      pat r
  in
  check cb "algorithm present" true
    (Json.member "algorithm" json = Some (Json.Str "DPP"));
  (match Json.member "work" json with
  | Some work ->
      check cb "work.plans_considered matches record" true
        (Json.member "plans_considered" work
        = Some (Json.Int r.Sjos_core.Optimizer.work.Work.plans_considered))
  | None -> Alcotest.fail "work block missing");
  check cb "no effort block" true (Json.member "effort" json = None);
  match Json.of_string (Json.to_string json) with
  | Ok j -> check cb "result JSON round-trips" true (Json.equal j json)
  | Error e -> Alcotest.failf "result JSON did not parse: %s" e

let suite =
  [
    Alcotest.test_case "JSON round-trip and rejection" `Quick
      test_json_roundtrip;
    Alcotest.test_case "JSON accessors" `Quick test_json_accessors;
    Alcotest.test_case "span nesting and attrs" `Quick test_span_nesting;
    Alcotest.test_case "closing closes open descendants" `Quick
      test_span_orphan_close;
    Alcotest.test_case "disabled layer records nothing" `Quick test_noop_mode;
    Alcotest.test_case "tracing leaves search effort unchanged" `Quick
      test_counters_invariant_under_tracing;
    Alcotest.test_case "EXPLAIN ANALYZE covers every operator" `Quick
      test_analyze_rows_populated;
    Alcotest.test_case "EXPLAIN ANALYZE renderings" `Quick
      test_analyze_renderings;
    Alcotest.test_case "q-error definition" `Quick test_q_error;
    Alcotest.test_case "optimizer result JSON" `Quick
      test_optimizer_result_json;
  ]
