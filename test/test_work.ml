(* Deterministic work accounting, trace export and the perf-history gate.

   The load-bearing claims, each tested directly:

   - Work counters are partition-invariant: the same join charged
     through pools of 1, 2 and 4 domains (sharding forced with
     [par_min_rows:0]) produces bit-identical totals, and the columnar
     and reference Stack-Tree kernels agree on every engine-invariant
     counter.
   - The full work record of every workload query's binary and holistic
     run is pinned, so a kernel change that moves any counter fails.
   - [Pool.run] absorbs each task's scoped delta at the barrier, so
     manual counter bumps from parallel tasks sum exactly.
   - The Chrome trace export round-trips through the project's own JSON
     parser and carries the span/track structure Perfetto needs.
   - The perf-history store appends, lists and reloads datapoints, and
     its gate passes on equal/improved runs, bootstraps on short
     history, and fails on work regressions, allocation regressions and
     disappearing entries. *)

open Sjos_xml
open Sjos_storage
open Sjos_plan
open Sjos_exec
module Pool = Sjos_par.Pool
module Work = Sjos_obs.Work
module Json = Sjos_obs.Json
module Trace = Sjos_obs.Trace
module Perf_history = Sjos_obs.Perf_history

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let with_pool n f =
  let p = Pool.create ~domains:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let check_work_equal msg (a : Work.t) (b : Work.t) =
  List.iter2
    (fun (name, av) (_, bv) -> check ci (msg ^ ": " ^ name) av bv)
    (Work.fields a) (Work.fields b)

(* ---------- accumulator mechanics ---------- *)

let test_scoped_isolation () =
  Work.reset ();
  let outer = Work.current () in
  outer.Work.comparisons <- 5;
  let inner, result =
    Work.scoped (fun () ->
        let w = Work.current () in
        w.Work.comparisons <- w.Work.comparisons + 3;
        w.Work.tuples_emitted <- 7;
        "done")
  in
  check cb "thunk ran" true (result = Ok "done");
  check ci "inner delta captured" 3 inner.Work.comparisons;
  check ci "inner tuples captured" 7 inner.Work.tuples_emitted;
  check ci "outer untouched by inner" 5 (Work.current ()).Work.comparisons;
  (* the delta lands only when explicitly absorbed *)
  Work.absorb inner;
  check ci "absorb adds" 8 (Work.current ()).Work.comparisons;
  (* exceptions still return the charged work *)
  let w, r =
    Work.scoped (fun () ->
        (Work.current ()).Work.expansions <- 11;
        failwith "boom")
  in
  check cb "exception reported" true (match r with Error _ -> true | _ -> false);
  check ci "work charged before raise survives" 11 w.Work.expansions;
  Work.reset ()

let test_pool_absorbs_task_work () =
  [ 1; 2; 4 ]
  |> List.iter @@ fun domains ->
     with_pool domains @@ fun pool ->
     Work.reset ();
     let results =
       Pool.run pool 32 (fun i ->
           let w = Work.current () in
           w.Work.comparisons <- w.Work.comparisons + i;
           w.Work.page_touches <- w.Work.page_touches + 1;
           i)
     in
     check ci "results intact" 32 (Array.length results);
     let total = Work.snapshot () in
     check ci
       (Printf.sprintf "comparisons sum @%d domains" domains)
       (31 * 32 / 2) total.Work.comparisons;
     check ci
       (Printf.sprintf "page_touches sum @%d domains" domains)
       32 total.Work.page_touches;
     Work.reset ()

let test_json_roundtrip () =
  let w = Work.zero () in
  w.Work.comparisons <- 17;
  w.Work.tuples_emitted <- 3;
  w.Work.items_skipped <- 99;
  w.Work.page_touches <- 2;
  let json_str = Json.to_string (Work.to_json w) in
  match Result.bind (Json.of_string json_str) Work.of_json with
  | Error msg -> Alcotest.failf "work json roundtrip: %s" msg
  | Ok w' ->
      check_work_equal "roundtrip" w w';
      check ci "score excludes skips" (17 + 3 + 2) (Work.score w')

(* ---------- kernel invariance ---------- *)

let doc_and_index () =
  let doc = Sjos_datagen.Dblp.generate ~seed:42 ~target_nodes:900 () in
  (doc, Element_index.build doc)

(* Kernels charge only the record they are handed: the domain
   accumulator stays untouched until an executor run completes. *)
let charged work f =
  let outside, result = Work.scoped f in
  check cb "kernel leaves the domain accumulator alone" true
    (Work.is_zero outside);
  (work, result)

let columnar_join ?pool ~doc ~idx ~atag ~dtag ~algo () =
  let work = Work.zero () in
  let anc =
    Operators.index_scan ~work ~width:2 ~slot:0
      (Element_index.lookup idx atag)
  in
  let desc =
    Operators.index_scan ~work ~width:2 ~slot:1
      (Element_index.lookup idx dtag)
  in
  charged work (fun () ->
      Stack_tree.join ?pool ~par_min_rows:0 ~work ~doc
        ~axis:Axes.Descendant ~algo ~anc:(anc, 0) ~desc:(desc, 1)
        ())

let legacy_join ~doc ~idx ~atag ~dtag ~algo () =
  let work = Work.zero () in
  let anc =
    Operators.index_scan ~work ~width:2 ~slot:0
      (Element_index.lookup idx atag)
  in
  let desc =
    Operators.index_scan ~work ~width:2 ~slot:1
      (Element_index.lookup idx dtag)
  in
  charged work (fun () ->
      Stack_tree_legacy.join ~work ~doc
        ~axis:Axes.Descendant ~algo ~anc:(anc, 0) ~desc:(desc, 1)
        ())

let algos = [ Plan.Stack_tree_desc; Plan.Stack_tree_anc ]

let test_work_identical_across_domains () =
  let doc, idx = doc_and_index () in
  List.iter
    (fun algo ->
      let serial_work, serial_r =
        columnar_join ~doc ~idx ~atag:"article" ~dtag:"author" ~algo ()
      in
      (match serial_r with Ok _ -> () | Error e -> raise e);
      check cb "serial charged comparisons" true
        (serial_work.Work.comparisons > 0);
      [ 1; 2; 4 ]
      |> List.iter (fun domains ->
             with_pool domains @@ fun pool ->
             let work, r =
               columnar_join ~pool ~doc ~idx ~atag:"article" ~dtag:"author"
                 ~algo ()
             in
             (match r with Ok _ -> () | Error e -> raise e);
             check_work_equal
               (Printf.sprintf "pool of %d vs serial" domains)
               serial_work work))
    algos

let test_work_identical_across_engines () =
  let doc, idx = doc_and_index () in
  List.iter
    (fun algo ->
      let col, cr =
        columnar_join ~doc ~idx ~atag:"article" ~dtag:"author" ~algo ()
      in
      let leg, lr = legacy_join ~doc ~idx ~atag:"article" ~dtag:"author" ~algo () in
      (match (cr, lr) with
      | Ok _, Ok _ -> ()
      | Error e, _ | _, Error e -> raise e);
      (* items_skipped is the one legitimate difference: only the
         columnar kernels skip *)
      check ci "comparisons engine-invariant" leg.Work.comparisons
        col.Work.comparisons;
      check ci "tuples engine-invariant" leg.Work.tuples_emitted
        col.Work.tuples_emitted;
      check ci "stack_ops engine-invariant" leg.Work.stack_ops
        col.Work.stack_ops;
      check ci "io engine-invariant" leg.Work.io_items col.Work.io_items;
      check ci "legacy never skips" 0 leg.Work.items_skipped)
    algos

let test_repeat_run_determinism () =
  let doc, idx = doc_and_index () in
  let run () =
    let w, r =
      columnar_join ~doc ~idx ~atag:"article" ~dtag:"title"
        ~algo:Plan.Stack_tree_desc ()
    in
    (match r with Ok _ -> () | Error e -> raise e);
    w
  in
  check_work_equal "two consecutive runs" (run ()) (run ())

let test_pager_page_touches () =
  let before = (Work.snapshot ()).Work.page_touches in
  let p = Pager.create ~page_size:10 ~pool_pages:2 () in
  let seg = Pager.allocate p ~items:95 in
  Pager.scan p seg;
  let after = (Work.snapshot ()).Work.page_touches in
  check ci "one work unit per page access" 10 (after - before)

(* ---------- one vocabulary: profile, run, search ---------- *)

let pers_db = lazy (Sjos_engine.Database.of_document (Lazy.force Helpers.pers_1k))

let rec profile_total total (m : Explain.measured) =
  Work.merge_into total m.Explain.work;
  List.iter (profile_total total) m.Explain.inputs

let test_profile_sums_to_run () =
  let idx = Sjos_engine.Database.index (Lazy.force pers_db) in
  List.iter
    (fun text ->
      let p = Helpers.pat text in
      let _, plan =
        Sjos_core.Dpp.run
          (Sjos_core.Search.make_ctx ~provider:(Helpers.exact_provider idx p) p)
      in
      List.iter
        (fun (name, plan) ->
          let msg = Printf.sprintf "%s %s" text name in
          let delta, r =
            Work.scoped (fun () -> Executor.execute idx p plan)
          in
          let run = match r with Ok run -> run | Error e -> raise e in
          let total = Work.zero () in
          profile_total total run.Executor.profile;
          check cb (msg ^ ": operator deltas sum to the run") true
            (Work.equal total run.Executor.work);
          check cb (msg ^ ": the run is what the domain was charged") true
            (Work.equal delta run.Executor.work);
          check cb (msg ^ ": comparisons counted") true
            (run.Executor.work.Work.comparisons > 0))
        [ ("binary", plan); ("holistic", Plan.holistic_of_pattern p) ])
    [
      "manager(//employee(/name))";
      "manager(//employee(/name),//manager(/department(/name)))";
    ]

let test_cold_prepare_work_is_charged () =
  let db = Lazy.force pers_db in
  let p = Helpers.pat "manager(//employee(/name),//department(/name))" in
  List.iter
    (fun engine ->
      List.iter
        (fun algorithm ->
          let msg =
            Sjos_core.Optimizer.(engine_name engine ^ "/" ^ name algorithm)
          in
          let delta, r =
            Work.scoped (fun () -> Helpers.cold_result ~algorithm ~engine db p)
          in
          let r = match r with Ok r -> r | Error e -> raise e in
          check cb (msg ^ ": result work = charged work") true
            (Work.equal delta r.Sjos_core.Optimizer.work))
        (Sjos_core.Optimizer.all p))
    Sjos_core.Optimizer.[ Binary; Holistic; Auto ]

(* Auto's result counts the binary search plus the holistic alternative,
   whichever plan wins — on a deep // chain the holistic plan wins. *)
let test_auto_work_is_binary_plus_one () =
  let db = Sjos_engine.Database.of_document (Lazy.force Helpers.mbench_1k) in
  List.iter
    (fun text ->
      let p = Helpers.pat text in
      let bin = Helpers.cold_result ~engine:Sjos_core.Optimizer.Binary db p in
      let auto = Helpers.cold_result ~engine:Sjos_core.Optimizer.Auto db p in
      let expected = Work.copy bin.Sjos_core.Optimizer.work in
      expected.Work.plans_considered <- expected.Work.plans_considered + 1;
      check cb (text ^ ": auto work = binary work + 1 plan") true
        (Work.equal expected auto.Sjos_core.Optimizer.work))
    [ "eNest(//eNest(//eNest(//eNest))) order by A"; "eNest(/eOccasional)" ];
  let deep = Helpers.pat "eNest(//eNest(//eNest(//eNest))) order by A" in
  check cb "holistic wins the deep chain" true
    (Plan.uses_holistic
       (Helpers.cold_result ~engine:Sjos_core.Optimizer.Auto db deep)
         .Sjos_core.Optimizer.plan)

(* A work object as written before the search-breakdown counters and
   [sort_cost] existed: it must still load, the new fields as 0. *)
let test_reads_older_datapoints () =
  let old =
    {|{"comparisons":17,"tuples_emitted":3,"items_skipped":99,"candidates_scanned":5,"stack_ops":8,"io_items":4,"sorted_items":2,"expansions":6,"plans_considered":7,"page_touches":1,"score":46}|}
  in
  match Result.bind (Json.of_string old) Work.of_json with
  | Error msg -> Alcotest.failf "older work json: %s" msg
  | Ok w ->
      check ci "old field kept" 17 w.Work.comparisons;
      check ci "old field kept" 7 w.Work.plans_considered;
      check ci "score unchanged" 46 (Work.score w);
      check ci "new field reads 0" 0 w.Work.statuses_generated;
      check ci "new field reads 0" 0 w.Work.pruned_bound;
      check cb "sort_cost reads 0" true (w.Work.sort_cost = 0.0)

(* ---------- chrome trace export ---------- *)

let test_chrome_trace_roundtrip () =
  Trace.set_enabled true;
  Trace.reset ();
  Trace.with_span "outer" (fun () ->
      Trace.with_span
        ~attrs:[ ("k", Json.Int 3) ]
        "inner"
        (fun () -> ignore (Sys.opaque_identity (List.init 100 Fun.id))));
  let chrome = Trace.to_chrome_json () in
  Trace.set_enabled false;
  Trace.reset ();
  (* must round-trip through our own parser *)
  let reparsed =
    match Json.of_string (Json.to_string chrome) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "chrome json does not reparse: %s" msg
  in
  let events =
    match Json.member "traceEvents" reparsed with
    | Some (Json.List es) -> es
    | _ -> Alcotest.fail "no traceEvents list"
  in
  let has_phase ph name =
    List.exists
      (fun e ->
        Json.member "ph" e = Some (Json.Str ph)
        && Json.member "name" e = Some (Json.Str name))
      events
  in
  check cb "thread_name metadata present" true (has_phase "M" "thread_name");
  check cb "outer span exported" true (has_phase "X" "outer");
  check cb "inner span exported" true (has_phase "X" "inner");
  (* X events need ts/dur numbers and a tid *)
  List.iter
    (fun e ->
      if Json.member "ph" e = Some (Json.Str "X") then begin
        check cb "has ts" true (Option.is_some (Option.bind (Json.member "ts" e) Json.number));
        check cb "has dur" true (Option.is_some (Option.bind (Json.member "dur" e) Json.number));
        check cb "has tid" true (Option.is_some (Option.bind (Json.member "tid" e) Json.number))
      end)
    events

(* ---------- perf-history store and gate ---------- *)

let mk_entry ?(alloc = 1000.0) id score =
  let w = Work.zero () in
  w.Work.comparisons <- score;
  {
    Perf_history.entry_id = id;
    work = w;
    allocated_bytes = alloc;
    seconds = 0.001;
  }

let mk_datapoint ~timestamp entries =
  { Perf_history.bench = "test"; timestamp; meta = []; entries }

let temp_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sjos_hist_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  dir

let test_history_store () =
  let dir = temp_dir () in
  let d1 = mk_datapoint ~timestamp:100 [ mk_entry "q1" 50 ] in
  let d2 = mk_datapoint ~timestamp:200 [ mk_entry "q1" 50 ] in
  let p1 = Perf_history.append ~dir d1 in
  let p2 = Perf_history.append ~dir d2 in
  check cb "files differ" true (p1 <> p2);
  (match Perf_history.history ~dir ~bench:"test" with
  | [ h1; h2 ] ->
      check cb "oldest first" true (h1 = p1 && h2 = p2)
  | files -> Alcotest.failf "expected 2 history files, got %d" (List.length files));
  (* latest.json exists, reloads, but is not part of the history *)
  let latest = Filename.concat dir "test-latest.json" in
  check cb "latest written" true (Sys.file_exists latest);
  (match Perf_history.load latest with
  | Ok d -> check ci "latest is the newest datapoint" 200 d.Perf_history.timestamp
  | Error m -> Alcotest.fail m);
  (* same-second append gets a suffixed file instead of clobbering *)
  let p2' = Perf_history.append ~dir d2 in
  check cb "same-second suffix" true (p2' <> p2);
  check ci "history grew" 3
    (List.length (Perf_history.history ~dir ~bench:"test"))

let verdict_label = function
  | Perf_history.Pass _ -> "pass"
  | Perf_history.Bootstrap _ -> "bootstrap"
  | Perf_history.Fail _ -> "fail"

let test_gate_verdicts () =
  let dir = temp_dir () in
  let gate () = verdict_label (Perf_history.gate ~dir ~bench:"test" ()) in
  check Alcotest.string "empty store bootstraps" "bootstrap" (gate ());
  ignore (Perf_history.append ~dir (mk_datapoint ~timestamp:100 [ mk_entry "q1" 1000 ]));
  check Alcotest.string "single datapoint bootstraps" "bootstrap" (gate ());
  (* equal work, equal alloc: pass *)
  ignore (Perf_history.append ~dir (mk_datapoint ~timestamp:200 [ mk_entry "q1" 1000 ]));
  check Alcotest.string "identical run passes" "pass" (gate ());
  (* an improvement passes *)
  ignore (Perf_history.append ~dir (mk_datapoint ~timestamp:300 [ mk_entry "q1" 700 ]));
  check Alcotest.string "improvement passes" "pass" (gate ());
  (* a >1% work regression fails *)
  ignore (Perf_history.append ~dir (mk_datapoint ~timestamp:400 [ mk_entry "q1" 720 ]));
  check Alcotest.string "work regression fails" "fail" (gate ());
  (* an entry disappearing fails even with scores fine *)
  ignore
    (Perf_history.append ~dir
       (mk_datapoint ~timestamp:500 [ mk_entry "q1" 720; mk_entry "q2" 10 ]));
  ignore (Perf_history.append ~dir (mk_datapoint ~timestamp:600 [ mk_entry "q1" 720 ]));
  check Alcotest.string "missing entry fails" "fail" (gate ())

let test_gate_alloc_tolerance () =
  let base = mk_datapoint ~timestamp:1 [ mk_entry ~alloc:1000.0 "q" 100 ] in
  let within = mk_datapoint ~timestamp:2 [ mk_entry ~alloc:1080.0 "q" 100 ] in
  let beyond = mk_datapoint ~timestamp:3 [ mk_entry ~alloc:1200.0 "q" 100 ] in
  check Alcotest.string "alloc within 10% passes" "pass"
    (verdict_label
       (Perf_history.compare_datapoints ~baseline:base ~current:within ()));
  check Alcotest.string "alloc beyond 10% fails" "fail"
    (verdict_label
       (Perf_history.compare_datapoints ~baseline:base ~current:beyond ()));
  (* work tolerance is configurable *)
  let more_work = mk_datapoint ~timestamp:4 [ mk_entry "q" 105 ] in
  check Alcotest.string "5% fails at default tolerance" "fail"
    (verdict_label
       (Perf_history.compare_datapoints ~baseline:base ~current:more_work ()));
  check Alcotest.string "5% passes at 10% tolerance" "pass"
    (verdict_label
       (Perf_history.compare_datapoints ~work_tolerance:0.10 ~baseline:base
          ~current:more_work ()))

let test_datapoint_json_roundtrip () =
  let d =
    {
      Perf_history.bench = "perf";
      timestamp = 12345;
      meta = [ ("scale", Json.Float 0.5) ];
      entries = [ mk_entry "a" 10; mk_entry "b" 20 ];
    }
  in
  match Perf_history.of_string (Json.to_string (Perf_history.to_json d)) with
  | Error msg -> Alcotest.failf "datapoint roundtrip: %s" msg
  | Ok d' ->
      check Alcotest.string "bench" d.Perf_history.bench d'.Perf_history.bench;
      check ci "timestamp" d.Perf_history.timestamp d'.Perf_history.timestamp;
      check ci "entries" 2 (List.length d'.Perf_history.entries);
      List.iter2
        (fun (a : Perf_history.entry) (b : Perf_history.entry) ->
          check Alcotest.string "id" a.Perf_history.entry_id
            b.Perf_history.entry_id;
          check_work_equal "entry work" a.Perf_history.work b.Perf_history.work)
        d.Perf_history.entries d'.Perf_history.entries

(* ---------- pinned workload work ---------- *)

(* The full work record of every workload query at size 1500, planned by
   DPP under the exact-cardinality provider, for both physical algebras:
   the binary Stack-Tree plan and the holistic TwigStack plan.  Columns
   are {!Work.fields} in order, then [sort_cost] as an exact hex float.
   A kernel change that moves any counter moves this table. *)
let pinned_workload_work =
  [
    ("Q.Mbench.1.a", "binary", [| 7; 7; 0; 8; 8; 0; 0; 0; 0; 0; 0; 0; 0; 0 |], 0x0p+0);
    ("Q.Mbench.1.a", "holistic", [| 20; 4; 0; 8; 10; 8; 4; 0; 0; 0; 0; 0; 0; 0 |], 0x1p+3);
    ("Q.Mbench.2.b", "binary", [| 94; 25; 67; 143; 48; 0; 1; 0; 0; 0; 0; 0; 0; 0 |], 0x0p+0);
    ("Q.Mbench.2.b", "holistic", [| 283; 5; 40; 143; 115; 6; 5; 0; 0; 0; 0; 0; 0; 0 |], 0x1p+2);
    ("Q.DBLP.1.b", "binary", [| 108; 122; 876; 1008; 262; 0; 30; 0; 0; 0; 0; 0; 0; 0 |], 0x1.2669d6eca7502p+7);
    ("Q.DBLP.1.b", "holistic", [| 1665; 234; 688; 1008; 374; 344; 234; 0; 0; 0; 0; 0; 0; 0 |], 0x1.7ee861fa480dep+10);
    ("Q.DBLP.2.c", "binary", [| 413; 6549; 399; 766; 412; 0; 238; 0; 0; 0; 0; 0; 0; 0 |], 0x1.b5397bc4c9285p+10);
    ("Q.DBLP.2.c", "holistic", [| 2291; 6478; 310; 766; 589; 476; 6478; 0; 0; 0; 0; 0; 0; 0 |], 0x1.3a22a3ab979a7p+16);
    ("Q.Pers.1.a", "binary", [| 2989; 5352; 279; 1055; 5652; 0; 0; 0; 0; 0; 0; 0; 0; 0 |], 0x0p+0);
    ("Q.Pers.1.a", "holistic", [| 2942; 2676; 177; 1055; 1227; 5352; 2676; 0; 0; 0; 0; 0; 0; 0 |], 0x1.dc124569330f1p+14);
    ("Q.Pers.2.c", "binary", [| 4217; 133575; 763; 1776; 3496; 2312; 442; 0; 0; 0; 0; 0; 0; 0 |], 0x1.b5672cc504beep+11);
    ("Q.Pers.2.c", "holistic", [| 9685; 135809; 742; 1776; 1613; 7664; 135809; 0; 0; 0; 0; 0; 0; 0 |], 0x1.17316f5813506p+21);
    ("Q.Pers.3.d", "binary", [| 4904; 132079; 836; 1926; 3536; 2054; 442; 0; 0; 0; 0; 0; 0; 0 |], 0x1.b5672cc504beep+11);
    ("Q.Pers.3.d", "holistic", [| 12554; 134184; 742; 1926; 1900; 7406; 134184; 0; 0; 0; 0; 0; 0; 0 |], 0x1.13a4a98e7f076p+21);
    ("Q.Pers.4.d", "binary", [| 5425; 131477; 820; 1926; 3792; 2312; 442; 0; 0; 0; 0; 0; 0; 0 |], 0x1.b5672cc504beep+11);
    ("Q.Pers.4.d", "holistic", [| 13700; 133085; 746; 1926; 1894; 7038; 133085; 0; 0; 0; 0; 0; 0; 0 |], 0x1.1147863923383p+21);
  ]

let test_workload_work_pinned () =
  let open Sjos_engine in
  List.iter
    (fun (q : Workload.query) ->
      let idx = Element_index.build (Workload.generate ~size:1500 q.Workload.dataset) in
      let p = q.Workload.pattern in
      let _, binary =
        Sjos_core.Dpp.run
          (Sjos_core.Search.make_ctx ~provider:(Naive.exact_provider idx p) p)
      in
      List.iter
        (fun (engine, plan) ->
          let msg = q.Workload.id ^ " " ^ engine in
          let _, _, counts, sort_cost =
            List.find
              (fun (id, e, _, _) -> id = q.Workload.id && e = engine)
              pinned_workload_work
          in
          let w = (Executor.execute idx p plan).Executor.work in
          check (Alcotest.list ci) (msg ^ ": counters") (Array.to_list counts)
            (List.map snd (Work.fields w));
          check (Alcotest.float 0.0) (msg ^ ": sort_cost") sort_cost
            w.Work.sort_cost)
        [ ("binary", binary); ("holistic", Plan.holistic_of_pattern p) ])
    Workload.queries

let suite =
  [
    Alcotest.test_case "scoped deltas isolate and absorb" `Quick
      test_scoped_isolation;
    Alcotest.test_case "pool absorbs task work at the barrier" `Quick
      test_pool_absorbs_task_work;
    Alcotest.test_case "work json roundtrip + score" `Quick test_json_roundtrip;
    Alcotest.test_case "work identical across 1/2/4 domains" `Quick
      test_work_identical_across_domains;
    Alcotest.test_case "workload work counters pinned" `Slow
      test_workload_work_pinned;
    Alcotest.test_case "work identical across engines" `Quick
      test_work_identical_across_engines;
    Alcotest.test_case "repeat runs bit-identical" `Quick
      test_repeat_run_determinism;
    Alcotest.test_case "pager charges page_touches" `Quick
      test_pager_page_touches;
    Alcotest.test_case "profile work sums to the run" `Quick
      test_profile_sums_to_run;
    Alcotest.test_case "cold prepare charges its result work" `Quick
      test_cold_prepare_work_is_charged;
    Alcotest.test_case "auto work = binary work + one plan" `Quick
      test_auto_work_is_binary_plus_one;
    Alcotest.test_case "older work datapoints still load" `Quick
      test_reads_older_datapoints;
    Alcotest.test_case "chrome trace export round-trips" `Quick
      test_chrome_trace_roundtrip;
    Alcotest.test_case "perf-history store append/list/load" `Quick
      test_history_store;
    Alcotest.test_case "gate: bootstrap/pass/regression/missing" `Quick
      test_gate_verdicts;
    Alcotest.test_case "gate: allocation and tolerance knobs" `Quick
      test_gate_alloc_tolerance;
    Alcotest.test_case "datapoint json roundtrip" `Quick
      test_datapoint_json_roundtrip;
  ]
