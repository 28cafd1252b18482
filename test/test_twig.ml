(* The holistic twig engine: two slices of the shared configuration
   property (test_properties.ml) run it against the naive matcher and on
   both storage backends; the other tests cover deterministic work,
   engine selection, externally fetched candidate streams, and budget
   truncation and chaos fault injection (structured errors only), seeded
   from [Helpers.seed]. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_core
open Sjos_exec
open Sjos_engine
open Sjos_guard
module Work = Sjos_obs.Work

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let tuple_lists run = List.map Array.to_list (Array.to_list run)
let matches_of (run : Database.query_run) =
  Array.to_list run.Database.exec.Executor.tuples

(* The twig counters are deterministic: same query, same counters, every
   time — and path solutions are priced as buffered IO. *)
let test_columnar_work_deterministic () =
  let doc = Helpers.random_doc (Helpers.seed * 3) in
  let idx = Element_index.build doc in
  let p = Helpers.random_pattern (Helpers.seed * 3) in
  let hplan = Sjos_plan.Plan.holistic_of_pattern p in
  let once () =
    let w, r = Work.scoped (fun () -> Executor.execute idx p hplan) in
    match r with Ok run -> (w, run) | Error e -> raise e
  in
  let w1, r1 = once () in
  let w2, r2 = once () in
  Helpers.check_work_equal "work identical across runs" w1 w2;
  check ci "tuples identical" (Array.length r1.Executor.tuples)
    (Array.length r2.Executor.tuples);
  (* each match projects onto one path solution per leaf, and every path
     solution is written and read once *)
  let rec root_path i =
    match Pattern.parent_of p i with
    | Some (j, _) -> i :: root_path j
    | None -> [ i ]
  in
  let solutions leaf =
    Array.to_list r1.Executor.tuples
    |> List.map (fun t -> List.map (Tuple.get t) (root_path leaf))
    |> List.sort_uniq compare |> List.length
  in
  let leaves =
    List.filter
      (fun i -> Pattern.children_of p i = [])
      (List.init (Pattern.node_count p) Fun.id)
  in
  check cb "io_items covers path solutions" true
    (r1.Executor.work.Work.io_items
    >= 2 * List.fold_left (fun n leaf -> n + solutions leaf) 0 leaves)

(* ---------- engine selection ---------- *)

let pers_db = lazy (Database.of_document (Lazy.force Helpers.pers_1k))

let test_holistic_engine_forced () =
  let db = Lazy.force pers_db in
  let p = Helpers.pat "manager(//employee(/name),//department)" in
  let prep =
    Database.prepare ~opts:(Query_opts.make ~engine:Optimizer.Holistic ()) db p
  in
  let r = Database.prepared_result prep in
  check cb "plan is holistic" true (Sjos_plan.Plan.uses_holistic r.Optimizer.plan);
  check ci "one plan considered" 1 r.Optimizer.work.Work.plans_considered;
  check cb "EXPLAIN names the operator" true
    (Helpers.contains (Database.explain_prepared prep) "TwigStack")

let test_auto_matches_binary_results () =
  let db = Lazy.force pers_db in
  List.iter
    (fun src ->
      let p = Helpers.pat src in
      let bin =
        Database.run ~opts:(Query_opts.make ~use_cache:false ()) db p
      in
      let auto =
        Database.run
          ~opts:(Query_opts.make ~engine:Optimizer.Auto ~use_cache:false ())
          db p
      in
      let hol =
        Database.run
          ~opts:
            (Query_opts.make ~engine:Optimizer.Holistic ~use_cache:false ())
          db p
      in
      Helpers.check_same_matches (src ^ ": auto = binary") (matches_of bin)
        (matches_of auto);
      Helpers.check_same_matches (src ^ ": holistic = binary") (matches_of bin)
        (matches_of hol);
      check ci
        (src ^ ": auto considered the holistic alternative too")
        (bin.Database.opt.Optimizer.work.Work.plans_considered + 1)
        auto.Database.opt.Optimizer.work.Work.plans_considered)
    [
      "manager(//employee)";
      "manager(//employee(/name))";
      "manager(//employee(/name),//department(/name))";
    ]

(* ---------- budgets: truncation is a structured failure ---------- *)

let test_budget_truncation () =
  let db = Lazy.force pers_db in
  let p = Helpers.pat "manager(//employee(/name),//department)" in
  let full =
    Database.run
      ~opts:(Query_opts.make ~engine:Optimizer.Holistic ~use_cache:false ())
      db p
  in
  let n = Array.length full.Database.exec.Executor.tuples in
  check cb "fixture produces enough matches" true (n >= 2);
  let idx = Database.index db in
  let hplan = Sjos_plan.Plan.holistic_of_pattern p in
  match
    let budget = Budget.make ~max_tuples:(n - 1) () in
    Error.protect (fun () -> Executor.execute ~budget idx p hplan)
  with
  | Ok _ -> Alcotest.fail "truncated budget must fail"
  | Error (Error.Budget_exhausted { during; _ }) ->
      check Alcotest.string "failed during execution" "execute" during
  | Error e -> Alcotest.fail ("unexpected error class: " ^ Error.class_name e)

(* ---------- external streams are verified ---------- *)

(* An externally supplied fetch is a trust boundary for both algebras:
   an out-of-order stream or an id the document does not know is a
   structured [Corrupt_input], and honest external streams reproduce the
   default result exactly. *)
(* DPP's binary plan and the holistic twig plan of one pattern over the
   tiny document: the plans the external-stream tests run. *)
let tiny_plans p =
  let idx = Lazy.force Helpers.tiny_index in
  let binary =
    (Optimizer.optimize ~provider:(Naive.exact_provider idx p) Optimizer.Dpp p)
      .Optimizer.plan
  in
  [ ("binary", binary); ("holistic", Sjos_plan.Plan.holistic_of_pattern p) ]

let test_external_streams_verified () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let reversed spec =
    let a = (Candidate.select idx spec).Cols.ids in
    let n = Array.length a in
    Array.init n (fun j -> a.(n - 1 - j))
  in
  let bogus _ = [| 999 |] in
  let honest spec = (Candidate.select idx spec).Cols.ids in
  List.iter
    (fun (name, plan) ->
      let corrupt what fetch expect =
        match Error.protect (fun () -> Executor.execute ~fetch idx p plan) with
        | Error (Error.Corrupt_input { reason; _ }) ->
            check cb
              (Printf.sprintf "%s %s: reason mentions %S" name what expect)
              true
              (Helpers.contains reason expect)
        | Ok _ -> Alcotest.failf "%s: %s stream must be rejected" name what
        | Error e ->
            Alcotest.failf "%s: unexpected error class %s" name
              (Error.class_name e)
      in
      corrupt "reversed" reversed "document order";
      corrupt "out-of-document id" bogus "999";
      let own = Executor.execute idx p plan in
      let fetched = Executor.execute ~fetch:honest idx p plan in
      check
        (Alcotest.list (Alcotest.list ci))
        (name ^ ": honest external streams change nothing")
        (tuple_lists own.Executor.tuples)
        (tuple_lists fetched.Executor.tuples);
      Helpers.check_work_equal
        (name ^ ": honest external streams change no counter")
        own.Executor.work fetched.Executor.work)
    (tiny_plans p)

(* A fetch that repeats its first candidate: the binary engine groups
   the two equal rows into one join group, so every match of that node
   comes out twice; the holistic engine rejects the stream as not a
   candidate stream.  Tuples and counters are pinned. *)
let test_fetch_repeated_id () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let repeat spec =
    let a = (Candidate.select idx spec).Cols.ids in
    Array.append [| a.(0) |] a
  in
  List.iter
    (fun (name, plan) ->
      match
        Error.protect (fun () -> Executor.execute ~fetch:repeat idx p plan)
      with
      | Ok run when name = "binary" ->
          check
            (Alcotest.list (Alcotest.list ci))
            "binary: repeated id doubles its matches"
            [
              [ 1; 3; 4 ]; [ 1; 3; 4 ]; [ 1; 3; 4 ]; [ 1; 3; 4 ]; [ 1; 9; 10 ];
              [ 1; 9; 10 ]; [ 5; 9; 10 ]; [ 13; 15; 16 ];
            ]
            (tuple_lists run.Executor.tuples);
          List.iter
            (fun (k, v) ->
              check ci ("binary: repeated id " ^ k)
                (Option.value ~default:0
                   (List.assoc_opt k
                      [
                        ("comparisons", 7);
                        ("tuples_emitted", 16);
                        ("items_skipped", 6);
                        ("candidates_scanned", 17);
                        ("stack_ops", 24);
                      ]))
                v)
            (Work.fields run.Executor.work)
      | Error (Error.Invalid_request _) when name = "holistic" -> ()
      | Ok _ -> Alcotest.failf "%s: repeated id must be rejected" name
      | Error e ->
          Alcotest.failf "%s: unexpected error class %s" name
            (Error.class_name e))
    (tiny_plans p)

(* ---------- chaos: structured errors only, results never invented ----- *)

let test_chaos_parity () =
  let db = Lazy.force pers_db in
  let patterns =
    [ "manager(//employee(/name))"; "manager(//employee,//department)" ]
  in
  List.iter
    (fun engine ->
      for i = 0 to 14 do
        let seed = (Helpers.seed * 1000) + i in
        List.iter
          (fun src ->
            let p = Helpers.pat src in
            let chaos =
              Chaos.create
                ~faults:
                  Chaos.
                    [ Truncate_candidates; Unsort_candidates; Lie_cardinalities ]
                ~seed ()
            in
            let opts = Query_opts.make ~engine ~chaos ~use_cache:false () in
            match Error.protect (fun () -> Database.run ~opts db p) with
            | Ok run ->
                (* whatever survives is a subset of the truth: chaos can
                   drop candidates, never invent matches *)
                let truth =
                  Database.run
                    ~opts:(Query_opts.make ~engine ~use_cache:false ())
                    db p
                in
                let truth_sorted =
                  Helpers.sorted_tuples (matches_of truth)
                in
                let got = Helpers.sorted_tuples (matches_of run) in
                let rec is_subset small big =
                  match (small, big) with
                  | [], _ -> true
                  | _ :: _, [] -> false
                  | s :: srest, b :: brest ->
                      if s = b then is_subset srest brest
                      else if compare s b > 0 then is_subset small brest
                      else false
                in
                check cb
                  (Printf.sprintf "%s seed %d: no invented matches" src seed)
                  true
                  (is_subset got truth_sorted)
            | Error (Error.Corrupt_input _) -> ()
            | Error e ->
                Alcotest.fail
                  (Printf.sprintf "%s seed %d: unexpected class %s" src seed
                     (Error.class_name e))
            | exception e ->
                Alcotest.fail
                  (Printf.sprintf "%s seed %d: unstructured exception %s" src
                     seed (Printexc.to_string e)))
          patterns
      done)
    [ Optimizer.Holistic; Optimizer.Auto ]

let suite =
  [
    Alcotest.test_case "columnar twig work is deterministic" `Quick
      test_columnar_work_deterministic;
    Alcotest.test_case "engine=holistic forces the twig plan" `Quick
      test_holistic_engine_forced;
    Alcotest.test_case "engine=auto matches binary results" `Quick
      test_auto_matches_binary_results;
    Alcotest.test_case "budget truncation fails structurally" `Quick
      test_budget_truncation;
    Alcotest.test_case "executor verifies external streams" `Quick
      test_external_streams_verified;
    Alcotest.test_case "chaos: structured errors, no invented matches" `Quick
      test_chaos_parity;
    Test_properties.configuration_test ~count:60
      "differential: twig/binary/naive"
      ~engines:[ Optimizer.Holistic; Optimizer.Auto ]
      ~disk:false;
    Test_properties.configuration_test ~count:100
      "mem and disk backends agree bit-for-bit"
      ~engines:[ Optimizer.Binary; Optimizer.Holistic; Optimizer.Auto ]
      ~disk:true;
    Alcotest.test_case "fetch: a repeated id keeps its pinned result" `Quick
      test_fetch_repeated_id;
  ]
