(* Resource governance and graceful degradation: budgets, structured
   errors, degradation to DPAP-EB, corrupt-cache recovery, the
   malformed-input matrix, and the seeded fault-injection property suite.

   The chaos properties run over a deterministic seed range; CI varies the
   base via the SJOS_GUARD_SEED environment variable so different runs
   explore different corruption sequences while any failure stays
   replayable from its seed. *)

open Sjos_guard
open Sjos_engine
module Work = Sjos_obs.Work

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let seed_base =
  match Sys.getenv_opt "SJOS_GUARD_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 7)
  | None -> 7

let pers_db = lazy (Database.of_document (Lazy.force Helpers.pers_1k))

(* ---------- Budget ---------- *)

let test_budget_unlimited () =
  check cb "make () is unlimited" true (Budget.is_unlimited (Budget.make ()));
  check cb "physically the same" true (Budget.make () == Budget.unlimited);
  check cb "poll is None" true (Budget.poll Budget.unlimited = None);
  Budget.check Budget.unlimited ~during:"test";
  Budget.check_search Budget.unlimited ~during:"test" ~expanded:max_int;
  Budget.check_tuples Budget.unlimited ~during:"test" ~count:max_int

let test_budget_ceilings () =
  let b = Budget.make ~max_expanded:5 ~max_tuples:10 () in
  Budget.check_search b ~during:"t" ~expanded:4;
  (match Budget.check_search b ~during:"t" ~expanded:5 with
  | exception Budget.Exhausted { resource = Budget.Statuses_expanded; during }
    ->
      check Alcotest.string "during" "t" during
  | () -> Alcotest.fail "expansion ceiling did not fire");
  Budget.check_tuples b ~during:"t" ~count:10;
  (match Budget.check_tuples b ~during:"t" ~count:11 with
  | exception
      Budget.Exhausted
        { resource = Budget.Tuples_materialized { limit; count }; _ } ->
      check ci "limit" 10 limit;
      check ci "count" 11 count
  | () -> Alcotest.fail "tuple ceiling did not fire");
  let flag = Atomic.make false in
  let c = Budget.make ~cancelled:flag () in
  check cb "not cancelled yet" true (Budget.poll c = None);
  Budget.cancel c;
  check cb "cancelled" true (Budget.poll c = Some Budget.Cancelled);
  check cb "cancel writes the caller's flag" true (Atomic.get flag);
  let d = Budget.make ~deadline_ms:0.0 () in
  (match Budget.check d ~during:"t" with
  | exception Budget.Exhausted { resource = Budget.Wall_clock; _ } -> ()
  | () -> Alcotest.fail "zero deadline did not fire")

let test_budget_cap_tuples () =
  let b = Budget.cap_tuples Budget.unlimited (Some 5) in
  check cb "cap on unlimited" true (b.Budget.max_tuples = Some 5);
  let b2 = Budget.cap_tuples (Budget.make ~max_tuples:3 ()) (Some 5) in
  check cb "min wins" true (b2.Budget.max_tuples = Some 3);
  let b3 = Budget.cap_tuples (Budget.make ~max_tuples:7 ()) (Some 5) in
  check cb "min wins (other side)" true (b3.Budget.max_tuples = Some 5);
  check cb "None is identity" true
    (Budget.cap_tuples Budget.unlimited None == Budget.unlimited)

(* A budget with no ceilings but a cancel flag must never be mistaken
   for [unlimited] (the serve path builds exactly this shape so a
   client disconnect can cancel an otherwise uncapped query): the
   engine has to keep polling it all the way down. *)
let test_budget_cancel_only_not_unlimited () =
  let b = Budget.make ~cancelled:(Atomic.make false) () in
  check cb "cancellable budget is not unlimited" false (Budget.is_unlimited b);
  Budget.cancel b;
  let db = Lazy.force pers_db in
  let p = Helpers.pat "manager(//employee(/name))" in
  match
    Database.run_r ~opts:(Query_opts.make ~use_cache:false ~budget:b ()) db p
  with
  | Result.Error (Error.Budget_exhausted { resource = Budget.Cancelled; _ })
    ->
      ()
  | Result.Error e ->
      Alcotest.failf "unexpected error class: %s" (Error.class_name e)
  | Result.Ok _ -> Alcotest.fail "cancelled uncapped budget did not abort"

(* ---------- Error ---------- *)

let all_errors =
  [
    Error.Parse_error { input = "x"; message = "m" };
    Error.Invalid_request "m";
    Error.Invalid_plan "m";
    Error.Budget_exhausted { resource = Budget.Wall_clock; during = "t" };
    Error.Corrupt_cache_entry { key = "k"; reason = "r" };
    Error.Corrupt_input { source = "s"; reason = "r" };
    Error.Internal "m";
  ]

let test_error_exit_codes () =
  let codes = List.map Error.exit_code all_errors in
  check ci "seven classes" 7 (List.length (List.sort_uniq compare codes));
  List.iter
    (fun c -> check cb "nonzero, distinct from cmdliner's 124/125" true
        (c >= 2 && c <= 8))
    codes;
  let names = List.map Error.class_name all_errors in
  check ci "distinct names" 7 (List.length (List.sort_uniq compare names));
  List.iter
    (fun e -> check cb "non-empty message" true (Error.message e <> ""))
    all_errors

let test_error_protect () =
  check cb "ok" true (Error.protect (fun () -> 2) = Ok 2);
  check cb "structured error passes through" true
    (Error.protect (fun () -> Error.fail (Error.Invalid_plan "p"))
    = Result.Error (Error.Invalid_plan "p"));
  (match
     Error.protect (fun () ->
         raise
           (Budget.Exhausted { resource = Budget.Wall_clock; during = "t" }))
   with
  | Result.Error (Error.Budget_exhausted { resource = Budget.Wall_clock; _ })
    ->
      ()
  | _ -> Alcotest.fail "Budget.Exhausted not mapped");
  (match Error.protect (fun () -> failwith "boom") with
  | Result.Error (Error.Internal _) -> ()
  | _ -> Alcotest.fail "stray exception not mapped to Internal");
  match
    Error.protect
      ~map:(function
        | Failure m -> Some (Error.Parse_error { input = ""; message = m })
        | _ -> None)
      (fun () -> failwith "syntax")
  with
  | Result.Error (Error.Parse_error { message = "syntax"; _ }) -> ()
  | _ -> Alcotest.fail "map not consulted"

(* ---------- structured tuple limit ---------- *)

let test_tuple_limit_structured () =
  let db = Lazy.force pers_db in
  let p = Helpers.pat "manager(//name)" in
  match Database.run_r ~opts:(Query_opts.make ~max_tuples:3 ()) db p with
  | Result.Error
      (Error.Budget_exhausted
         {
           resource = Budget.Tuples_materialized { limit; count };
           during = "execute";
         }) ->
      check ci "limit preserved" 3 limit;
      check cb "partial count preserved" true (count > 3)
  | Ok _ -> Alcotest.fail "limit did not fire"
  | Result.Error e -> Alcotest.fail ("wrong error: " ^ Error.class_name e)

(* ---------- degradation ---------- *)

let matches_of (run : Database.query_run) =
  Array.to_list run.Database.exec.Sjos_exec.Executor.tuples

let test_degradation_to_dpap () =
  let db = Lazy.force pers_db in
  let p = Helpers.pat "manager(//employee(/name),//department)" in
  let full = Database.run ~opts:(Query_opts.cold Query_opts.default) db p in
  Sjos_obs.Registry.set_enabled true;
  Sjos_obs.Registry.reset ();
  let opts =
    Query_opts.make ~use_cache:false
      ~budget:(Budget.make ~max_expanded:1 ())
      ()
  in
  let degraded = Sjos_obs.Registry.counter "guard.degraded" in
  let result = Database.run_r ~opts db p in
  let count = Sjos_obs.Registry.counter_value degraded in
  Sjos_obs.Registry.set_enabled false;
  match result with
  | Ok run ->
      (match run.Database.opt.Sjos_core.Optimizer.degraded_from with
      | Some Sjos_core.Optimizer.Dpp -> ()
      | _ -> Alcotest.fail "expected degraded_from = Some Dpp");
      (match run.Database.opt.Sjos_core.Optimizer.algorithm with
      | Sjos_core.Optimizer.Dpap_eb _ -> ()
      | _ -> Alcotest.fail "fallback tier should be DPAP-EB");
      check cb "guard.degraded counted" true (count >= 1);
      Helpers.check_same_matches "degraded plan computes the same matches"
        (matches_of full) (matches_of run)
  | Result.Error e ->
      Alcotest.fail ("degradation should absorb: " ^ Error.class_name e)

let test_heuristic_tier_not_degraded () =
  (* a budget firing inside an already-heuristic tier is a hard error *)
  let db = Lazy.force pers_db in
  let p = Helpers.pat "manager(//employee(/name),//department)" in
  let opts =
    Query_opts.make ~use_cache:false
      ~algorithm:(Sjos_core.Optimizer.Dpap_eb 2)
      ~budget:(Budget.make ~max_expanded:1 ())
      ()
  in
  match Database.run_r ~opts db p with
  | Result.Error (Error.Budget_exhausted { during = "optimize"; _ }) -> ()
  | Ok _ -> Alcotest.fail "Te=2 search should exceed one expansion"
  | Result.Error e -> Alcotest.fail ("wrong error: " ^ Error.class_name e)

let test_degraded_plan_not_cached () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let p = Helpers.pat "manager(//employee(/name))" in
  let opts = Query_opts.make ~budget:(Budget.make ~max_expanded:1 ()) () in
  (match Database.run_r ~opts db p with
  | Ok run ->
      check cb "degraded" true
        (run.Database.opt.Sjos_core.Optimizer.degraded_from <> None)
  | Result.Error e -> Alcotest.fail (Error.class_name e));
  (* the budgeted run must not have poisoned the cache for healthy queries *)
  let prep = Database.prepare db p in
  check cb "no cache entry from the degraded run" false
    (Database.prepared_from_cache prep);
  check cb "fresh search happened" true
    ((Database.prepared_result prep).Sjos_core.Optimizer.work.Work.plans_considered
     > 0)

(* ---------- corrupt cache recovery ---------- *)

let test_corrupt_cache_recovery () =
  let db = Database.of_document (Lazy.force Helpers.pers_1k) in
  let p = Helpers.pat "manager(//employee(/name))" in
  let full = Database.run ~opts:(Query_opts.cold Query_opts.default) db p in
  let prep = Database.prepare db p in
  let key = "binary|DPP|" ^ Database.prepared_fingerprint prep in
  let poison plan_text =
    Sjos_cache.Plan_cache.add (Database.plan_cache db) key
      { Sjos_cache.Plan_cache.plan_text; est_cost = 1.0; algorithm = "DPP" };
    Sjos_obs.Registry.set_enabled true;
    Sjos_obs.Registry.reset ();
    let corrupt = Sjos_obs.Registry.counter "guard.corrupt_cache" in
    let run = Database.run db p in
    let count = Sjos_obs.Registry.counter_value corrupt in
    Sjos_obs.Registry.set_enabled false;
    check cb "corruption counted" true (count >= 1);
    Helpers.check_same_matches "re-optimized result is correct"
      (matches_of full) (matches_of run)
  in
  (* unparseable text, then a well-formed plan that doesn't evaluate the
     pattern (deserializes fine, fails validation) *)
  poison "not a plan";
  poison (Sjos_plan.Plan_io.to_string p (Sjos_plan.Plan.scan 0));
  (* the corrupt entry was overwritten: next lookup is a healthy hit *)
  let prep2 = Database.prepare db p in
  check cb "cache repaired" true (Database.prepared_from_cache prep2)

(* ---------- malformed-input matrix ---------- *)

let test_malformed_inputs () =
  let db = Lazy.force pers_db in
  (* bad axis / operator in the pattern language *)
  (match Sjos_pattern.Parse.pattern_opt "manager(||employee)" with
  | Result.Error _ -> ()
  | Ok _ -> Alcotest.fail "bad axis accepted");
  (* empty pattern *)
  (match Sjos_pattern.Parse.pattern_opt "" with
  | Result.Error _ -> ()
  | Ok _ -> Alcotest.fail "empty pattern accepted");
  (* unclosed tag in a document *)
  (match Sjos_xml.Parser.parse_string "<a><b></a>" with
  | exception Sjos_xml.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "unclosed tag accepted");
  (* malformed XQuery surfaces as a structured parse error *)
  (match Xquery.run_r db "for $x in" with
  | Result.Error (Error.Parse_error _) -> ()
  | _ -> Alcotest.fail "expected Parse_error from truncated XQuery");
  (match Xquery.run_r db "for $m in //manager return <r>{$ghost}</r>" with
  | Result.Error (Error.Parse_error _) -> ()
  | _ -> Alcotest.fail "expected Parse_error for unbound variable");
  (* oversized / nonsensical histogram grid *)
  (match Database.of_document ~grid:100_000 (Lazy.force Helpers.tiny_pers) with
  | exception Error.Error (Error.Invalid_request _) -> ()
  | _ -> Alcotest.fail "oversized grid accepted");
  (match Database.set_grid db 0 with
  | exception Error.Error (Error.Invalid_request _) -> ()
  | () -> Alcotest.fail "zero grid accepted");
  let p = Helpers.pat "manager(//name)" in
  match Database.run_r ~opts:(Query_opts.make ~grid:(-3) ()) db p with
  | Result.Error (Error.Invalid_request _) -> ()
  | Ok _ -> Alcotest.fail "negative per-query grid accepted"
  | Result.Error e -> Alcotest.fail ("wrong error: " ^ Error.class_name e)

(* ---------- chaos: determinism ---------- *)

let test_chaos_deterministic () =
  let candidates =
    Sjos_storage.Element_index.lookup (Lazy.force Helpers.pers_1k_index) "name"
  in
  let drive seed =
    let c = Chaos.create ~seed () in
    let outs =
      List.init 50 (fun _ ->
          Array.map
            (fun n -> n.Sjos_xml.Node.start_pos)
            (Chaos.wrap_candidates c candidates))
    in
    (outs, Chaos.injected c)
  in
  let o1, i1 = drive (seed_base * 31) and o2, i2 = drive (seed_base * 31) in
  check cb "same seed, same corruption sequence" true (o1 = o2);
  check ci "same injection count" i1 i2;
  let o3, _ = drive ((seed_base * 31) + 1) in
  check cb "different seed, different sequence" true (o1 <> o3)

(* ---------- chaos: the engine contract under injection ---------- *)

let chaos_patterns =
  [
    "manager(//name)";
    "manager(//employee(/name))";
    "manager(//employee,//department)";
    "manager(//employee(/name),//department(/name))";
  ]

let run_under_chaos ~faults ~seed db p =
  let chaos = Chaos.create ~faults ~seed () in
  Database.run_r ~opts:(Query_opts.make ~chaos ~use_cache:false ()) db p

(* Every query under full fault injection returns Ok or a structured
   error; nothing unstructured escapes, and the only corruption the
   engine can actually detect is an out-of-order stream. *)
let test_chaos_ok_or_structured () =
  let db = Lazy.force pers_db in
  for i = 0 to 19 do
    let seed = (seed_base * 1000) + i in
    List.iter
      (fun src ->
        let p = Helpers.pat src in
        match
          run_under_chaos
            ~faults:
              Chaos.
                [ Truncate_candidates; Unsort_candidates; Lie_cardinalities ]
            ~seed db p
        with
        | Ok _ -> ()
        | Result.Error (Error.Corrupt_input _) -> ()
        | Result.Error e ->
            Alcotest.fail
              (Printf.sprintf "seed %d %s: unexpected class %s" seed src
                 (Error.class_name e))
        | exception e ->
            Alcotest.fail
              (Printf.sprintf "seed %d %s: unstructured exception %s" seed src
                 (Printexc.to_string e)))
      chaos_patterns
  done

(* Lying cardinalities may change the chosen plan but never the result. *)
let test_chaos_lies_preserve_results () =
  let db = Lazy.force pers_db in
  List.iter
    (fun src ->
      let p = Helpers.pat src in
      let truth = Database.run ~opts:(Query_opts.cold Query_opts.default) db p in
      for i = 0 to 9 do
        let seed = (seed_base * 100) + i in
        match
          run_under_chaos ~faults:[ Chaos.Lie_cardinalities ] ~seed db p
        with
        | Ok run ->
            Helpers.check_same_matches
              (Printf.sprintf "lie seed %d %s" seed src)
              (matches_of truth) (matches_of run)
        | Result.Error e ->
            Alcotest.fail ("lies must not fail a query: " ^ Error.class_name e)
      done)
    chaos_patterns

(* Both lists ordered by [Helpers.sorted_tuples]: a linear merge walk. *)
let rec is_subset small big =
  match (small, big) with
  | [], _ -> true
  | _ :: _, [] -> false
  | s :: srest, b :: brest ->
      if s = b then is_subset srest brest
      else if compare s b > 0 then is_subset small brest
      else false

(* Truncation is undetectable (a shorter stream is a valid stream); the
   contract is a correct answer over the surviving data: a subset. *)
let test_chaos_truncation_yields_subset () =
  let db = Lazy.force pers_db in
  List.iter
    (fun src ->
      let p = Helpers.pat src in
      let truth = Database.run ~opts:(Query_opts.cold Query_opts.default) db p in
      let full = Helpers.sorted_tuples (matches_of truth) in
      for i = 0 to 9 do
        let seed = (seed_base * 10) + i in
        match
          run_under_chaos ~faults:[ Chaos.Truncate_candidates ] ~seed db p
        with
        | Ok run ->
            if not (is_subset (Helpers.sorted_tuples (matches_of run)) full)
            then
              Alcotest.fail
                (Printf.sprintf "truncation seed %d %s invented a match" seed
                   src)
        | Result.Error e ->
            Alcotest.fail
              ("truncation must not fail a query: " ^ Error.class_name e)
      done)
    chaos_patterns

(* Unsorted runs are caught at the executor's trust boundary. *)
let test_chaos_unsorted_detected () =
  let db = Lazy.force pers_db in
  let p = Helpers.pat "manager(//employee(/name))" in
  let saw_corrupt = ref false in
  for i = 0 to 29 do
    let seed = (seed_base * 7) + i in
    match run_under_chaos ~faults:[ Chaos.Unsort_candidates ] ~seed db p with
    | Ok run ->
        (* no injection this time: the result must then be the truth *)
        let truth =
          Database.run ~opts:(Query_opts.cold Query_opts.default) db p
        in
        Helpers.check_same_matches
          (Printf.sprintf "unsort seed %d (no injection)" seed)
          (matches_of truth) (matches_of run)
    | Result.Error (Error.Corrupt_input { source; _ }) ->
        saw_corrupt := true;
        check cb "source names the stream" true
          (Helpers.contains source "candidates")
    | Result.Error e -> Alcotest.fail ("wrong class: " ^ Error.class_name e)
  done;
  check cb "disorder detected at least once over 30 seeds" true !saw_corrupt

let suite =
  [
    Alcotest.test_case "budget: unlimited is free" `Quick
      test_budget_unlimited;
    Alcotest.test_case "budget: ceilings fire with context" `Quick
      test_budget_ceilings;
    Alcotest.test_case "budget: cap_tuples merges" `Quick
      test_budget_cap_tuples;
    Alcotest.test_case "budget: cancel-only budget is polled" `Quick
      test_budget_cancel_only_not_unlimited;
    Alcotest.test_case "error: distinct classes and exit codes" `Quick
      test_error_exit_codes;
    Alcotest.test_case "error: protect converts exceptions" `Quick
      test_error_protect;
    Alcotest.test_case "executor: tuple limit is structured" `Quick
      test_tuple_limit_structured;
    Alcotest.test_case "optimizer: exact search degrades to DPAP-EB" `Quick
      test_degradation_to_dpap;
    Alcotest.test_case "optimizer: heuristic tier exhaustion is an error"
      `Quick test_heuristic_tier_not_degraded;
    Alcotest.test_case "cache: degraded plans are not stored" `Quick
      test_degraded_plan_not_cached;
    Alcotest.test_case "cache: corrupt entries repaired transparently" `Quick
      test_corrupt_cache_recovery;
    Alcotest.test_case "malformed inputs map to error classes" `Quick
      test_malformed_inputs;
    Alcotest.test_case "chaos: seeded and deterministic" `Quick
      test_chaos_deterministic;
    Alcotest.test_case "chaos: Ok or structured error, never an exception"
      `Quick test_chaos_ok_or_structured;
    Alcotest.test_case "chaos: lying cardinalities preserve results" `Quick
      test_chaos_lies_preserve_results;
    Alcotest.test_case "chaos: truncation yields a subset" `Quick
      test_chaos_truncation_yields_subset;
    Alcotest.test_case "chaos: unsorted streams detected at the boundary"
      `Quick test_chaos_unsorted_detected;
  ]
