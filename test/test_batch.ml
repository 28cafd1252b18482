(* Differential properties for the columnar batch execution engine: on
   randomized documents x tag pairs x axes x both Stack-Tree variants, the
   flat-array kernels must produce exactly the tuple sequence (same
   tuples, same order) and exactly the counters of the list-based
   reference kernels kept in {!Stack_tree_legacy} — including
   on chaos-truncated inputs.  [Work.items_skipped] is deliberately
   excluded from the comparison: it is the batch engine's own diagnostic
   and is always 0 for the reference kernels.  At executor level, the
   binary and holistic plans of every workload query must both return
   exactly the naive matcher's answer, also under a truncating fetch.

   Seeds derive from [Helpers.seed] (SJOS_SEED), so different runs can
   explore different documents while any failure stays replayable. *)

open Sjos_xml
open Sjos_storage
open Sjos_plan
open Sjos_core
open Sjos_exec
module Pattern = Sjos_pattern.Pattern
module Work = Sjos_obs.Work
module Budget = Sjos_guard.Budget

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* The legacy kernel never skips, so its work must equal the columnar
   work with [items_skipped] zeroed; see the header comment. *)
let check_legacy_work msg (legacy : Work.t) (batch : Work.t) =
  Helpers.check_work_equal msg legacy { batch with Work.items_skipped = 0 }

(* Run one (anc tag, desc tag, axis, algo) case through both engines. *)
let join_both ~doc ~idx ~atag ~dtag ~axis ~algo =
  let legacy_work = Work.zero () in
  let anc_l = Helpers.scan idx atag 0 2 ~work:legacy_work in
  let desc_l = Helpers.scan idx dtag 1 2 ~work:legacy_work in
  let legacy =
    Stack_tree_legacy.join ~work:legacy_work ~doc ~axis ~algo
      ~anc:(anc_l, 0) ~desc:(desc_l, 1) ()
  in
  let batch_work = Work.zero () in
  let anc_b = Helpers.scan idx atag 0 2 ~work:batch_work in
  let desc_b = Helpers.scan idx dtag 1 2 ~work:batch_work in
  let batch =
    Stack_tree.join ~work:batch_work ~doc ~axis ~algo ~anc:(anc_b, 0)
      ~desc:(desc_b, 1) ()
  in
  (legacy, legacy_work, batch, batch_work)

let all_cases = [ Plan.Stack_tree_desc; Plan.Stack_tree_anc ]
let all_axes = [ Axes.Descendant; Axes.Child ]

(* ---------- kernel-level differential ---------- *)

let test_kernel_differential () =
  List.iter
    (fun (name, doc) ->
      let idx = Element_index.build doc in
      let tags = Array.of_list (Document.tags doc) in
      let rng = Sjos_datagen.Rng.create (Helpers.seed + 11) in
      for _ = 1 to 24 do
        let atag = tags.(Sjos_datagen.Rng.int rng (Array.length tags)) in
        let dtag = tags.(Sjos_datagen.Rng.int rng (Array.length tags)) in
        List.iter
          (fun axis ->
            List.iter
              (fun algo ->
                let msg =
                  Printf.sprintf "%s %s->%s %s/%s" name atag dtag
                    (match axis with Axes.Child -> "child" | _ -> "desc")
                    (match algo with
                    | Plan.Stack_tree_desc -> "STJ-D"
                    | Plan.Stack_tree_anc -> "STJ-A")
                in
                let legacy, lm, batch, bm =
                  join_both ~doc ~idx ~atag ~dtag ~axis ~algo
                in
                Helpers.check_same_tuple_seq msg legacy batch;
                check_legacy_work msg lm bm)
              all_cases)
          all_axes
      done)
    (Helpers.docs_under_test Helpers.seed)

(* ---------- multi-join chains (duplicate join values) ---------- *)

(* The pre-batch-engine sort: a comparator that dereferences the
   document per comparison, with the accounting every sort shares. *)
let reference_sort ~work ~doc ~by tuples =
  Operators.account_sort ~work (Array.length tuples);
  let sorted = Array.copy tuples in
  Array.stable_sort (Tuple.compare_by_slot doc by) sorted;
  sorted

let chain_legacy ~doc ~idx (t0, t1, t2) ~axis ~algo =
  let work = Work.zero () in
  let a = Helpers.scan idx t0 0 3 ~work in
  let b = Helpers.scan idx t1 1 3 ~work in
  let j1 =
    Stack_tree_legacy.join ~work ~doc ~axis ~algo ~anc:(a, 0) ~desc:(b, 1)
      ()
  in
  let sorted = reference_sort ~work ~doc ~by:1 j1 in
  let c = Helpers.scan idx t2 2 3 ~work in
  let out =
    Stack_tree_legacy.join ~work ~doc ~axis ~algo ~anc:(sorted, 1)
      ~desc:(c, 2) ()
  in
  (out, work)

let chain_batch ~doc ~idx (t0, t1, t2) ~axis ~algo =
  let work = Work.zero () in
  let a = Helpers.scan idx t0 0 3 ~work in
  let b = Helpers.scan idx t1 1 3 ~work in
  let j1 =
    Stack_tree.join ~work ~doc ~axis ~algo ~anc:(a, 0) ~desc:(b, 1) ()
  in
  let sorted = Operators.sort ~work ~doc ~by:1 j1 in
  let c = Helpers.scan idx t2 2 3 ~work in
  let out =
    Stack_tree.join ~work ~doc ~axis ~algo ~anc:(sorted, 1) ~desc:(c, 2) ()
  in
  (out, work)

let test_multi_join_chain () =
  let doc = Lazy.force Helpers.pers_1k in
  let idx = Element_index.build doc in
  let chains =
    [ ("manager", "employee", "name"); ("manager", "manager", "name") ]
  in
  List.iter
    (fun chain ->
      List.iter
        (fun axis ->
          List.iter
            (fun algo ->
              let legacy, lm = chain_legacy ~doc ~idx chain ~axis ~algo in
              let batch, bm = chain_batch ~doc ~idx chain ~axis ~algo in
              Helpers.check_same_tuple_seq "chain" legacy batch;
              check_legacy_work "chain" lm bm)
            all_cases)
        all_axes)
    chains

(* ---------- chaos-style inputs ---------- *)

let test_truncated_inputs () =
  let doc = Lazy.force Helpers.pers_1k in
  let idx = Element_index.build doc in
  let rng = Sjos_datagen.Rng.create (Helpers.seed + 23) in
  for _ = 1 to 12 do
    let work = Work.zero () in
    let anc = Helpers.scan idx "manager" 0 2 ~work in
    let desc = Helpers.scan idx "name" 1 2 ~work in
    (* truncation keeps a sorted prefix — both engines must agree *)
    let anc = Array.sub anc 0 (Sjos_datagen.Rng.int rng (Array.length anc + 1)) in
    let desc =
      Array.sub desc 0 (Sjos_datagen.Rng.int rng (Array.length desc + 1))
    in
    List.iter
      (fun algo ->
        let lm = Work.zero () and bm = Work.zero () in
        let legacy =
          Stack_tree_legacy.join ~work:lm ~doc ~axis:Axes.Descendant ~algo
            ~anc:(anc, 0) ~desc:(desc, 1) ()
        in
        let batch =
          Stack_tree.join ~work:bm ~doc ~axis:Axes.Descendant ~algo
            ~anc:(anc, 0) ~desc:(desc, 1) ()
        in
        Helpers.check_same_tuple_seq "truncated" legacy batch;
        check_legacy_work "truncated" lm bm)
      all_cases
  done

let test_unsorted_rejected_identically () =
  let doc = Lazy.force Helpers.pers_1k in
  let idx = Element_index.build doc in
  let work = Work.zero () in
  let anc = Helpers.scan idx "manager" 0 2 ~work in
  let desc = Helpers.scan idx "name" 1 2 ~work in
  let n = Array.length anc in
  Alcotest.(check bool) "enough managers" true (n > 2);
  (* swap two tuples with distinct join nodes: unsorted input *)
  let unsorted = Array.copy anc in
  let tmp = unsorted.(0) in
  unsorted.(0) <- unsorted.(n - 1);
  unsorted.(n - 1) <- tmp;
  let expected = "Stack_tree: input not sorted by its join slot" in
  (match
     Stack_tree_legacy.join ~work:(Work.zero ()) ~doc
       ~axis:Axes.Descendant ~algo:Plan.Stack_tree_desc ~anc:(unsorted, 0)
       ~desc:(desc, 1) ()
   with
  | exception Invalid_argument m -> check Alcotest.string "legacy rejects" expected m
  | _ -> Alcotest.fail "legacy accepted unsorted input");
  match
    Stack_tree.join ~work:(Work.zero ()) ~doc ~axis:Axes.Descendant
      ~algo:Plan.Stack_tree_desc ~anc:(unsorted, 0) ~desc:(desc, 1) ()
  with
  | exception Invalid_argument m -> check Alcotest.string "batch rejects" expected m
  | _ -> Alcotest.fail "batch accepted unsorted input"

(* ---------- the tuple ceiling is exact ---------- *)

(* Row [i] of [tuples] repeated [1 + i mod k] times: still sorted by its
   bound slot, but with multi-row groups, so a ceiling can fall inside a
   group pair's block of rows. *)
let repeat k tuples =
  Array.concat
    (List.mapi (fun i t -> Array.make (1 + (i mod k)) t) (Array.to_list tuples))

let capped f =
  match f () with
  | tuples -> Ok tuples
  | exception
      Budget.Exhausted
        { resource = Budget.Tuples_materialized { limit; count }; _ } ->
      Error (limit, count)

(* Under [max_tuples:k] for each [k] in [ks], both output forms of the
   columnar kernel return the legacy kernel's tuples, or stop with its
   [Tuples_materialized] payload. *)
let check_ceilings msg ~doc ~anc ~desc ks =
  let rows t = Stack_tree.Rows (Batch.of_tuples ~width:2 t) in
  List.iter
    (fun axis ->
      List.iter
        (fun algo ->
          List.iter
            (fun k ->
              let budget = Budget.make ~max_tuples:k () in
              let legacy =
                capped (fun () ->
                    Stack_tree_legacy.join ~budget ~work:(Work.zero ()) ~doc
                      ~axis ~algo ~anc:(anc, 0) ~desc:(desc, 1) ())
              in
              let run out finish =
                Scratch.with_set (fun s ->
                    finish
                      (Stack_tree.join_in out s ~budget ~work:(Work.zero ())
                         ~doc ~axis ~algo ~anc:(rows anc, 0)
                         ~desc:(rows desc, 1) ()))
              in
              List.iter
                (fun (form, got) ->
                  let msg =
                    Printf.sprintf "%s %s %s %s k=%d" msg
                      (Axes.axis_to_string axis)
                      (Plan.algo_to_string algo) form k
                  in
                  match (legacy, got) with
                  | Ok e, Ok a -> Helpers.check_same_tuple_seq msg e a
                  | Error e, Error a ->
                      check Alcotest.(pair int int) msg e a
                  | _ -> Alcotest.failf "%s: only one kernel stopped" msg)
                [
                  ( "flat",
                    capped (fun () -> run Stack_tree.Flat Batch.to_tuples) );
                  ("boxed", capped (fun () -> run Stack_tree.Boxed Fun.id));
                ])
            ks)
        all_cases)
    all_axes

let total_pairs ~doc ~anc ~desc =
  Array.length
    (Stack_tree_legacy.join ~work:(Work.zero ()) ~doc ~axis:Axes.Descendant
       ~algo:Plan.Stack_tree_desc ~anc:(anc, 0) ~desc:(desc, 1) ())

let test_ceiling_exact () =
  let doc = Lazy.force Helpers.tiny_pers in
  let idx = Lazy.force Helpers.tiny_index in
  let work = Work.zero () in
  List.iter
    (fun (atag, dtag, ka, kd) ->
      let anc = repeat ka (Helpers.scan idx atag 0 2 ~work) in
      let desc = repeat kd (Helpers.scan idx dtag 1 2 ~work) in
      let total = total_pairs ~doc ~anc ~desc in
      check_ceilings
        (Printf.sprintf "tiny %s->%s x%d/x%d" atag dtag ka kd)
        ~doc ~anc ~desc
        (List.init (total + 2) Fun.id))
    [
      ("manager", "name", 1, 1);
      ("manager", "name", 3, 2);
      ("manager", "employee", 2, 3);
    ];
  let doc =
    Sjos_datagen.Pers.generate ~seed:Helpers.seed ~target_nodes:600 ()
  in
  let idx = Element_index.build doc in
  let rng = Sjos_datagen.Rng.create (Helpers.seed + 31) in
  List.iter
    (fun (atag, dtag) ->
      let anc = repeat 3 (Helpers.scan idx atag 0 2 ~work) in
      let desc = repeat 2 (Helpers.scan idx dtag 1 2 ~work) in
      let total = total_pairs ~doc ~anc ~desc in
      check_ceilings
        (Printf.sprintf "pers %s->%s" atag dtag)
        ~doc ~anc ~desc
        ([ 0; 1; total - 1; total; total + 1 ]
        @ List.init 8 (fun _ -> Sjos_datagen.Rng.int rng (total + 1))))
    [ ("manager", "name"); ("employee", "name") ]

(* ---------- executor-level: both algebras = naive ---------- *)

(* The binary DPP plan (exact-cardinality provider) and the holistic
   plan of [pattern], both run through the executor, must return exactly
   [expected]: the binary plan as a set, the holistic plan also in its
   canonical order (lexicographic by slot value). *)
let check_both_algebras ?fetch msg index pattern expected =
  let provider = Naive.exact_provider index pattern in
  let _, plan = Dpp.run (Search.make_ctx ~provider pattern) in
  let expected = Helpers.sorted_tuples expected in
  let binary = Executor.execute ?fetch index pattern plan in
  let holistic =
    Executor.execute ?fetch index pattern (Plan.holistic_of_pattern pattern)
  in
  Alcotest.(check (list (list int)))
    (msg ^ ": binary = naive") expected
    (Helpers.sorted_tuples (Array.to_list binary.Executor.tuples));
  Alcotest.(check (list (list int)))
    (msg ^ ": holistic = sorted naive") expected
    (List.map Array.to_list (Array.to_list holistic.Executor.tuples))

let test_executor_kernel_differential () =
  List.iter
    (fun (query : Sjos_engine.Workload.query) ->
      let doc =
        Sjos_engine.Workload.generate ~size:1500 query.Sjos_engine.Workload.dataset
      in
      let index = Element_index.build doc in
      let pattern = query.Sjos_engine.Workload.pattern in
      check_both_algebras query.Sjos_engine.Workload.id index pattern
        (Naive.matches index pattern))
    Sjos_engine.Workload.queries

let test_executor_fetch_differential () =
  (* an external fetch that truncates candidate streams: truncation
     removes candidates but leaves the document's structure alone, so the
     exact answer is the naive matches whose every binding survived *)
  let query = Sjos_engine.Workload.q_pers_3_d in
  let pattern = query.Sjos_engine.Workload.pattern in
  let doc = Sjos_engine.Workload.generate ~size:1500 Sjos_engine.Workload.Pers in
  let index = Element_index.build doc in
  let fetch spec =
    let base = (Candidate.select index spec).Cols.ids in
    Array.sub base 0 (2 * Array.length base / 3)
  in
  let fetched =
    Array.init (Pattern.node_count pattern) (fun i ->
        let ids = Hashtbl.create 64 in
        Array.iter
          (fun id -> Hashtbl.replace ids id ())
          (fetch (Pattern.label pattern i));
        ids)
  in
  let full = Naive.matches index pattern in
  let expected = List.filter (Array.for_all2 Hashtbl.mem fetched) full in
  check cb "truncation drops some matches" true
    (List.length expected < List.length full && expected <> []);
  check_both_algebras ~fetch "fetch" index pattern expected

(* ---------- the skip-ahead actually skips ---------- *)

let test_skip_ahead_counts () =
  (* Mbench at this size has many level-tagged joins where most input is
     unproductive; assert the batch engine records skips somewhere while
     still matching the legacy engine everywhere (covered above). *)
  let doc = Lazy.force Helpers.mbench_1k in
  let idx = Element_index.build doc in
  let total = ref 0 in
  let tags = Array.of_list (Document.tags doc) in
  Array.iter
    (fun atag ->
      Array.iter
        (fun dtag ->
          let _, _, _, bm = join_both ~doc ~idx ~atag ~dtag
              ~axis:Axes.Child ~algo:Plan.Stack_tree_desc in
          total := !total + bm.Work.items_skipped)
        tags)
    tags;
  Alcotest.(check bool) "skip-ahead fired" true (!total > 0)

(* ---------- Batch/Ibuf unit tests ---------- *)

let test_ibuf () =
  let b = Batch.Ibuf.create 1 in
  for i = 0 to 99 do
    Batch.Ibuf.push b i
  done;
  check ci "len" 100 (Batch.Ibuf.length b);
  check ci "data" 42 (Batch.Ibuf.data b).(42);
  check ci "last" 99 (Batch.Ibuf.data b).(99)

let test_batch_roundtrip () =
  let tuples =
    [| [| 1; Tuple.unbound |]; [| 2; 5 |]; [| Tuple.unbound; 9 |] |]
  in
  let b = Batch.of_tuples ~width:2 tuples in
  check ci "width" 2 (Batch.width b);
  check ci "length" 3 (Batch.length b);
  check ci "get" 5 (Batch.get b 1 1);
  let back = Batch.to_tuples b in
  Array.iteri
    (fun i t -> Alcotest.(check bool) "roundtrip" true (Tuple.equal t back.(i)))
    tuples;
  (match Batch.of_tuples ~width:3 tuples with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width mismatch should be rejected");
  (match Batch.unsafe_of_raw ~width:2 ~len:4 (Array.make 6 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short raw array should be rejected");
  Scratch.with_set @@ fun s ->
  let ids = Batch.of_ids s ~width:2 ~slot:1 [| 3; 7 |] in
  check ci "of_ids bound" 7 (Batch.get ids 1 1);
  check ci "of_ids unbound" Tuple.unbound (Batch.get ids 1 0)

let test_batch_sort_matches_tuple_sort () =
  let doc = Lazy.force Helpers.pers_1k in
  let idx = Element_index.build doc in
  let work = Work.zero () in
  let tuples =
    Stack_tree.join ~work ~doc ~axis:Axes.Descendant
      ~algo:Plan.Stack_tree_anc
      ~anc:(Helpers.scan idx "manager" 0 2 ~work, 0)
      ~desc:(Helpers.scan idx "name" 1 2 ~work, 1)
      ()
  in
  (* result is ordered by slot 0; re-sorting by slot 1 must agree with the
     legacy comparator sort (both stable) *)
  let reference = Array.copy tuples in
  Array.stable_sort (Tuple.compare_by_slot doc 1) reference;
  let via_operator = Operators.sort ~work ~doc ~by:1 tuples in
  Helpers.check_same_tuple_seq "Operators.sort" reference via_operator;
  let via_batch =
    Scratch.with_set (fun s ->
        Batch.to_tuples
          (Batch.sort s ~doc ~by:1 (Batch.of_tuples ~width:2 tuples)))
  in
  Helpers.check_same_tuple_seq "Batch.sort" reference via_batch

(* ---------- coalesced rectangles: group-size boundaries ---------- *)

(* The kernel records one rectangle per related group pair and extends
   the previous one while a one-row ancestor group meets consecutive
   descendant groups.  Here one-row ancestor groups sit next to multi-row
   ones ([a1], [a4]), one of them nested in another ([a3] holds [a4]),
   and the descendant side comes both as one-row groups and with every
   other group doubled: every ceiling, both forms, both algorithms and
   both axes must stop or finish exactly as the legacy kernel does, with
   the same counters. *)
let test_coalescing_boundaries () =
  let doc =
    Parser.parse_string
      "<r><a><b/><b/><b/></a><a><b/><b/></a><a><b/><c><b/></c><b/></a>\
       <a><a><b/><b/></a><b/></a><a><b/></a></r>"
  in
  let idx = Element_index.build doc in
  let work = Work.zero () in
  let times counts tuples =
    Array.concat
      (List.mapi
         (fun i t -> Array.make (counts i) t)
         (Array.to_list tuples))
  in
  let anc =
    times (fun i -> [| 1; 2; 1; 1; 3; 1 |].(i)) (Helpers.scan idx "a" 0 2 ~work)
  in
  List.iter
    (fun (name, desc) ->
      let total = total_pairs ~doc ~anc ~desc in
      check_ceilings ("coalescing " ^ name) ~doc ~anc ~desc
        (List.init (total + 2) Fun.id);
      List.iter
        (fun axis ->
          List.iter
            (fun algo ->
              let lw = Work.zero () and bw = Work.zero () in
              let legacy =
                Stack_tree_legacy.join ~work:lw ~doc ~axis ~algo ~anc:(anc, 0)
                  ~desc:(desc, 1) ()
              in
              let boxed =
                Stack_tree.join ~work:bw ~doc ~axis ~algo ~anc:(anc, 0)
                  ~desc:(desc, 1) ()
              in
              let msg =
                Printf.sprintf "coalescing %s %s %s" name
                  (Axes.axis_to_string axis) (Plan.algo_to_string algo)
              in
              Helpers.check_same_tuple_seq msg legacy boxed;
              check_legacy_work msg lw bw)
            all_cases)
        all_axes)
    (let b = Helpers.scan idx "b" 1 2 ~work in
     [ ("one-row b", b); ("doubled b", times (fun i -> 1 + (i mod 2)) b) ])

(* ---------- boxed rows = flat rows at every width ---------- *)

type 'a outcome = Rows of 'a | Stopped of (int * int) | Invalid of string

let outcome f =
  match f () with
  | rows -> Rows rows
  | exception
      Budget.Exhausted
        { resource = Budget.Tuples_materialized { limit; count }; _ } ->
      Stopped (limit, count)
  | exception Invalid_argument m -> Invalid m

(* Widths 1-10 cover every inline arity of [Tuple.of_slice] and its
   fallback.  Each non-join slot is bound on the ancestor side, on the
   descendant side or on neither; width 1 puts both join slots on slot 0,
   so any emitted pair must fail the slot merge identically in both
   forms. *)
let prop_boxed_equals_flat =
  Helpers.qtest ~count:30 "boxed root rows = flat rows, widths 1-10"
    QCheck2.Gen.small_nat (fun seed ->
      let doc = Helpers.random_doc (Helpers.seed + seed) in
      let idx = Element_index.build doc in
      let rng = Sjos_datagen.Rng.create (Helpers.seed + seed) in
      let pick () = Helpers.tags.(Sjos_datagen.Rng.int rng 4) in
      let ok = ref true in
      for width = 1 to 10 do
        let sa = Sjos_datagen.Rng.int rng width in
        let sd = if width = 1 then 0 else (sa + 1) mod width in
        let side = Array.init width (fun _ -> Sjos_datagen.Rng.int rng 3) in
        let rows slot own tag =
          let ids = (Element_index.cols idx tag).Cols.ids in
          let data = Array.make (Array.length ids * width) Tuple.unbound in
          Array.iteri
            (fun r id ->
              for k = 0 to width - 1 do
                if k = slot then data.((r * width) + k) <- id
                else if side.(k) = own && k <> sa && k <> sd then
                  data.((r * width) + k) <- (1000 * k) + r
              done)
            ids;
          Stack_tree.Rows
            (Batch.unsafe_of_raw ~width ~len:(Array.length ids) data)
        in
        let anc = rows sa 0 (pick ()) and desc = rows sd 1 (pick ()) in
        List.iter
          (fun axis ->
            List.iter
              (fun algo ->
                let run s budget out () =
                  Stack_tree.join_in out s ~budget ~work:(Work.zero ()) ~doc
                    ~axis ~algo ~anc:(anc, sa) ~desc:(desc, sd) ()
                in
                let k = Sjos_datagen.Rng.int rng 40 in
                List.iter
                  (fun budget ->
                    Scratch.with_set @@ fun s ->
                    let boxed = outcome (run s budget Stack_tree.Boxed) in
                    let flat = outcome (run s budget Stack_tree.Flat) in
                    (* cell by cell through [Batch.get], which does not
                       share the boxed form's allocator, then through
                       [Batch.to_tuples], which does *)
                    let same =
                      match (boxed, flat) with
                      | Rows a, Rows b ->
                          let row i t =
                            Array.length t = width
                            && List.for_all
                                 (fun k -> t.(k) = Batch.get b i k)
                                 (List.init width Fun.id)
                          in
                          Array.length a = Batch.length b
                          && Array.for_all Fun.id (Array.mapi row a)
                          && Array.for_all2 Tuple.equal a (Batch.to_tuples b)
                      | Stopped x, Stopped y -> x = y
                      | Invalid x, Invalid y -> x = y
                      | _ -> false
                    in
                    if not same then ok := false)
                  [ Budget.unlimited; Budget.make ~max_tuples:k () ])
              all_cases)
          all_axes
      done;
      !ok)

(* A resident leaf is its own grouping: its groups must be exactly what
   [group] computes over the materialized scan of the same columns —
   group count, row offsets and the position columns, field by field —
   with the position columns aliasing the candidate columns.  Pure tags,
   the wildcard, an unknown tag and attribute/text predicates, bound in
   every slot of a width-3 row. *)
let test_resident_leaf_groups () =
  let cases =
    [
      ( Lazy.force Helpers.pers_1k,
        [
          Candidate.of_tag "employee";
          Candidate.of_tag "name";
          Candidate.any;
          Candidate.of_tag "no-such-tag";
          { (Candidate.of_tag "name") with Candidate.text = Some "ann" };
        ] );
      ( Lazy.force Helpers.mbench_1k,
        [
          Candidate.of_tag "eNest";
          Candidate.of_tag "eOccasional";
          {
            (Candidate.of_tag "eNest") with
            Candidate.attr = Some ("aLevel", "2");
          };
          {
            (Candidate.of_tag "eNest") with
            Candidate.attr = Some ("aSixtyFour", "3");
          };
        ] );
    ]
  in
  List.iter
    (fun (doc, specs) ->
      let idx = Element_index.build doc in
      let positions = lazy (Document.positions doc) in
      List.iter
        (fun spec ->
          let cols = Candidate.select idx spec in
          for slot = 0 to 2 do
            let msg =
              Printf.sprintf "%s in slot %d" (Candidate.spec_to_string spec)
                slot
            in
            Scratch.with_set @@ fun s ->
            let leaf =
              Stack_tree.group_input s ~cols:positions
                (Stack_tree.resident ~width:3 ~slot cols)
                slot
            in
            let rows =
              Stack_tree.group_input s ~cols:positions
                (Stack_tree.Rows
                   (Batch.of_ids s ~width:3 ~slot cols.Sjos_xml.Cols.ids))
                slot
            in
            let n = rows.Stack_tree.n in
            check ci (msg ^ ": n") n leaf.Stack_tree.n;
            check ci (msg ^ ": one group per candidate") (Cols.length cols) n;
            let prefix k a = Array.to_list (Array.sub a 0 k) in
            let field name get k =
              check (Alcotest.list ci) (msg ^ ": " ^ name) (prefix k (get rows))
                (prefix k (get leaf))
            in
            field "off" (fun g -> g.Stack_tree.off) (n + 1);
            field "gstart" (fun g -> g.Stack_tree.gstart) n;
            field "gend" (fun g -> g.Stack_tree.gend) n;
            field "glevel" (fun g -> g.Stack_tree.glevel) n;
            check cb (msg ^ ": gstart aliases starts") true
              (leaf.Stack_tree.gstart == cols.Cols.starts);
            check cb (msg ^ ": gend aliases ends") true
              (leaf.Stack_tree.gend == cols.Cols.ends);
            check cb (msg ^ ": glevel aliases levels") true
              (leaf.Stack_tree.glevel == cols.Cols.levels)
          done)
        specs)
    cases

(* [Batch.sort] is a radix sort on node ids: on random batches whose
   sort slot repeats ids (and whose other slots hold anything, unbound
   included) it must equal a stable sort of the rows by their node's
   start position, carry exactly the groups [group] finds in its sort
   slot, and keep its error messages for an unbound or out-of-range id
   and for a slot the rows do not have. *)
let prop_sort_equals_stable_start_sort =
  Helpers.qtest ~count:60 "radix sort = stable sort by start position"
    QCheck2.Gen.small_nat (fun seed ->
      let doc = Helpers.random_doc (Helpers.seed + seed) in
      let size = Document.size doc in
      let starts = (Document.positions doc).Cols.starts in
      let rng = Sjos_datagen.Rng.create (Helpers.seed + 97 + seed) in
      let width = 1 + Sjos_datagen.Rng.int rng 4 in
      let by = Sjos_datagen.Rng.int rng width in
      let n = Sjos_datagen.Rng.int rng (if seed mod 5 = 0 then 3 else 400) in
      (* few distinct ids, so runs of one id are long and interleaved *)
      let distinct = 1 + Sjos_datagen.Rng.int rng size in
      let data =
        Array.init (n * width) (fun c ->
            if c mod width = by then Sjos_datagen.Rng.int rng distinct
            else Sjos_datagen.Rng.int rng 1000 - 1)
      in
      let b = Batch.unsafe_of_raw ~width ~len:n data in
      Scratch.with_set @@ fun s ->
      let sorted = Batch.sort s ~doc ~by b in
      let order =
        List.stable_sort
          (fun i j ->
            Int.compare starts.(data.((i * width) + by))
              starts.(data.((j * width) + by)))
          (List.init n Fun.id)
      in
      let rows_ok =
        Batch.length sorted = n
        && List.for_all2
             (fun i r ->
               List.for_all
                 (fun k -> Batch.get sorted i k = data.((r * width) + k))
                 (List.init width Fun.id))
             (List.init n Fun.id) order
      in
      let positions = lazy (Document.positions doc) in
      let carried =
        Stack_tree.group_input s ~cols:positions (Stack_tree.Rows sorted) by
      in
      let bare =
        Stack_tree.group_input s ~cols:positions
          (Stack_tree.Rows
             (Batch.unsafe_of_raw ~width ~len:n (Batch.data sorted)))
          by
      in
      let prefix k a = Array.sub a 0 k in
      let g = carried.Stack_tree.n in
      let groups_ok =
        (match Batch.grouped sorted with
        | Some c -> c.Batch.slot = by
        | None -> false)
        && g = bare.Stack_tree.n
        && prefix (g + 1) carried.Stack_tree.off
           = prefix (g + 1) bare.Stack_tree.off
        && prefix g carried.Stack_tree.gstart = prefix g bare.Stack_tree.gstart
        && prefix g carried.Stack_tree.gend = prefix g bare.Stack_tree.gend
        && prefix g carried.Stack_tree.glevel = prefix g bare.Stack_tree.glevel
      in
      let message f =
        match f () with exception Invalid_argument m -> m | _ -> "accepted"
      in
      let with_id id =
        let d = Array.copy data in
        if n > 0 then d.(((n - 1) * width) + by) <- id;
        Batch.unsafe_of_raw ~width ~len:n d
      in
      let errors_ok =
        n = 0
        || message (fun () -> Batch.sort s ~doc ~by (with_id Tuple.unbound))
           = "Batch.sort: id -1 out of range"
           && message (fun () -> Batch.sort s ~doc ~by (with_id size))
              = Printf.sprintf "Batch.sort: id %d out of range" size
           && message (fun () -> Batch.sort s ~doc ~by:width b)
              = "Batch.sort: slot out of range"
      in
      rows_ok && groups_ok && errors_ok)

let suite =
  [
    Alcotest.test_case "kernel differential: legacy = columnar" `Slow
      test_kernel_differential;
    Alcotest.test_case "multi-join chains agree" `Quick test_multi_join_chain;
    Alcotest.test_case "truncated inputs agree" `Quick test_truncated_inputs;
    Alcotest.test_case "unsorted input rejected identically" `Quick
      test_unsorted_rejected_identically;
    Alcotest.test_case "tuple ceiling stops where legacy stops" `Quick
      test_ceiling_exact;
    Alcotest.test_case "executor kernels agree on the workload" `Slow
      test_executor_kernel_differential;
    Alcotest.test_case "executor kernels agree under degraded fetch" `Quick
      test_executor_fetch_differential;
    Alcotest.test_case "skip-ahead fires and is counted" `Quick
      test_skip_ahead_counts;
    Alcotest.test_case "int buffers" `Quick test_ibuf;
    Alcotest.test_case "batch round-trips" `Quick test_batch_roundtrip;
    Alcotest.test_case "key-column sort = comparator sort" `Quick
      test_batch_sort_matches_tuple_sort;
    Alcotest.test_case "coalesced rectangles agree with legacy" `Quick
      test_coalescing_boundaries;
    prop_boxed_equals_flat;
    Alcotest.test_case "resident leaf groups = grouped scan" `Quick
      test_resident_leaf_groups;
    prop_sort_equals_stable_start_sort;
  ]
