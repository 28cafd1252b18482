(* Differential suite for the backend-polymorphic column store: the Disk
   backend must be observationally identical to Mem — same tuples in the
   same order, same executor work, same deterministic work counters —
   across page sizes, pool sizes (including pools small enough to force
   mid-join eviction), kernels, chaos faults and domain counts.  The only
   permitted divergence is the IO accounting ([Work.page_touches],
   [Pager.stats]) — that divergence is the backend's entire point. *)

open Sjos_xml
open Sjos_storage
open Sjos_plan
open Sjos_exec
open Sjos_engine
module Work = Sjos_obs.Work

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* The workload slice used throughout: pure-tag leaves (served lazily on
   Disk) and one child-axis query. *)
let query_texts =
  [
    "manager(//employee(/name))";
    "manager(//employee(/name),//department(/name))";
    "manager(//department(/name),//manager(/employee(/name)))";
    "manager(/employee)";
  ]

let run_one db text =
  let work, outcome =
    Work.scoped (fun () -> Database.run db (Helpers.pat text))
  in
  let r = match outcome with Ok r -> r | Error e -> raise e in
  (r.Database.exec.Executor.tuples, r.Database.exec.Executor.work, work)

(* ---------- Mem vs Disk over the page/pool grid ---------- *)

let grid = [ (64, 2); (64, 8); (256, 8); (1024, 64) ]

(* Run [texts] [rounds] times through a Mem and a Disk database per grid
   point and require non-empty, identical tuple sequences, identical
   executor work, equal work modulo IO, and equal core scores. *)
let check_backends_agree ?(rounds = 1) doc texts =
  List.iter
    (fun (page_size, pool_pages) ->
      (* a fresh Mem baseline per config: both sides must pay the same
         optimizer search (the plan cache is part of the Work score) *)
      let db_mem = Database.of_document ~storage:Column_store.mem doc in
      let db_disk =
        Database.of_document
          ~storage:(Column_store.disk ~page_size ~pool_pages ())
          doc
      in
      for round = 1 to rounds do
        List.iter
          (fun text ->
            let msg =
              Printf.sprintf "%s @ page=%d pool=%d round %d" text page_size
                pool_pages round
            in
            let tm, mm, wm = run_one db_mem text in
            let td, md, wd = run_one db_disk text in
            check cb (msg ^ ": matches") true (Array.length tm > 0);
            Helpers.check_same_tuple_seq msg tm td;
            Helpers.check_work_equal msg mm md;
            check cb (msg ^ ": work equal mod IO") true
              (Work.equal_mod_io wm wd);
            check ci (msg ^ ": core score") (Work.core_score wm)
              (Work.core_score wd);
            check ci (msg ^ ": mem touches nothing") 0 wm.Work.page_touches;
            check cb (msg ^ ": disk touches pages") true
              (wd.Work.page_touches > 0))
          texts
      done;
      (match Column_store.io_stats (Database.store db_disk) with
      | None -> Alcotest.fail "disk store has no io stats"
      | Some s ->
          check cb "pool saw accesses" true (s.Pager.accesses > 0);
          if pool_pages = 2 then
            check cb "tiny pool evicts mid-join" true (s.Pager.evictions > 0));
      Database.dispose db_disk)
    grid

let test_differential () =
  check_backends_agree (Lazy.force Helpers.pers_1k) query_texts

(* ---------- lazy leaves feeding the kernels directly ---------- *)

let leaf_scan store ~width ~slot tag (m : Sjos_obs.Work.t) =
  match Column_store.leaf store (Candidate.of_tag tag) with
  | None -> Alcotest.failf "no leaf for pure tag %s" tag
  | Some lf ->
      m.Work.candidates_scanned <-
        m.Work.candidates_scanned + Cols.length (Column_store.leaf_cols lf);
      Stack_tree.leaf ~width ~slot lf

let rows_scan s index ~width ~slot tag (m : Sjos_obs.Work.t) =
  Stack_tree.Rows
    (Operators.index_scan_batch s ~work:m ~width ~slot
       (Element_index.cols index tag).Cols.ids)

(* The executor's Mem scan: a resident leaf over [Column_store.select]. *)
let resident_scan store ~width ~slot tag (m : Sjos_obs.Work.t) =
  let cols = Column_store.select store (Candidate.of_tag tag) in
  m.Work.candidates_scanned <- m.Work.candidates_scanned + Cols.length cols;
  Stack_tree.resident ~width ~slot cols

let algo_name = function
  | Plan.Stack_tree_desc -> "stj-desc"
  | Plan.Stack_tree_anc -> "stj-anc"

let test_leaf_kernel () =
  let doc = Lazy.force Helpers.pers_1k in
  let index = Element_index.build doc in
  let store =
    Column_store.create
      ~config:(Column_store.disk ~page_size:64 ~pool_pages:4 ())
      index
  in
  let mem = Column_store.create ~config:Column_store.mem index in
  Helpers.with_pool 2 @@ fun pool ->
  Fun.protect ~finally:(fun () -> Column_store.dispose store) @@ fun () ->
  List.iter
    (fun algo ->
      List.iter
        (fun axis ->
          let name =
            Printf.sprintf "%s/%s" (algo_name algo) (Axes.axis_to_string axis)
          in
          let reference =
            let m = Work.zero () in
            Scratch.with_set @@ fun s ->
            let anc = rows_scan s index ~width:2 ~slot:0 "manager" m in
            let desc = rows_scan s index ~width:2 ~slot:1 "employee" m in
            let b =
              Stack_tree.join_in Stack_tree.Flat s ~work:m ~doc ~axis ~algo
                ~anc:(anc, 0) ~desc:(desc, 1) ()
            in
            (Batch.to_tuples b, m)
          in
          (* the rows scan agrees with the list-based reference kernel,
             which never skips *)
          (let m = Work.zero () in
           let anc = Helpers.scan index "manager" 0 2 ~work:m in
           let desc = Helpers.scan index "employee" 1 2 ~work:m in
           let legacy =
             Stack_tree_legacy.join ~work:m ~doc ~axis ~algo ~anc:(anc, 0)
               ~desc:(desc, 1) ()
           in
           let msg = name ^ " rows vs legacy" in
           Helpers.check_same_tuple_seq msg legacy (fst reference);
           Helpers.check_work_equal msg m
             { (snd reference) with Work.items_skipped = 0 });
          let variants =
            [
              ( "resident leaves",
                fun _ m ->
                  ( resident_scan mem ~width:2 ~slot:0 "manager" m,
                    resident_scan mem ~width:2 ~slot:1 "employee" m,
                    None,
                    None ) );
              ( "resident anc, lazy desc",
                fun _ m ->
                  ( resident_scan mem ~width:2 ~slot:0 "manager" m,
                    leaf_scan store ~width:2 ~slot:1 "employee" m,
                    None,
                    None ) );
              ( "rows anc, resident desc",
                fun s m ->
                  ( rows_scan s index ~width:2 ~slot:0 "manager" m,
                    resident_scan mem ~width:2 ~slot:1 "employee" m,
                    None,
                    None ) );
              ( "sharded resident leaves",
                fun _ m ->
                  ( resident_scan mem ~width:2 ~slot:0 "manager" m,
                    resident_scan mem ~width:2 ~slot:1 "employee" m,
                    Some pool,
                    Some 1 ) );
              ( "lazy leaves",
                fun _ m ->
                  ( leaf_scan store ~width:2 ~slot:0 "manager" m,
                    leaf_scan store ~width:2 ~slot:1 "employee" m,
                    None,
                    None ) );
              ( "leaf anc, rows desc",
                fun s m ->
                  ( leaf_scan store ~width:2 ~slot:0 "manager" m,
                    rows_scan s index ~width:2 ~slot:1 "employee" m,
                    None,
                    None ) );
              ( "sharded leaves",
                fun _ m ->
                  ( leaf_scan store ~width:2 ~slot:0 "manager" m,
                    leaf_scan store ~width:2 ~slot:1 "employee" m,
                    Some pool,
                    Some 1 ) );
            ]
          in
          List.iter
            (fun (vname, build) ->
              let m = Work.zero () in
              Scratch.with_set @@ fun s ->
              let anc, desc, pool, par_min_rows = build s m in
              let b =
                Stack_tree.join_in Stack_tree.Flat s ?pool ?par_min_rows
                  ~work:m ~doc ~axis ~algo ~anc:(anc, 0) ~desc:(desc, 1) ()
              in
              let msg = name ^ " " ^ vname in
              Helpers.check_same_tuple_seq msg (fst reference)
                (Batch.to_tuples b);
              Helpers.check_work_equal msg (snd reference) m)
            variants)
        [ Axes.Descendant; Axes.Child ])
    [ Plan.Stack_tree_desc; Plan.Stack_tree_anc ]

(* A lazy leaf join never reads more pages than materializing its leaves
   outright (it can only save: ids pages are read per emitted chunk, and
   gallop probes touch O(log) pages per skip). *)
let test_leaf_laziness_bounded () =
  let doc = Lazy.force Helpers.pers_1k in
  let index = Element_index.build doc in
  let store =
    Column_store.create
      ~config:(Column_store.disk ~page_size:64 ~pool_pages:256 ())
      index
  in
  Fun.protect ~finally:(fun () -> Column_store.dispose store)
  @@ fun () ->
  let m = Work.zero () in
  let anc = leaf_scan store ~width:2 ~slot:0 "manager" m in
  let desc = leaf_scan store ~width:2 ~slot:1 "employee" m in
  Scratch.with_set (fun s ->
      ignore
        (Stack_tree.join_in Stack_tree.Flat s ~work:m ~doc
           ~axis:Axes.Descendant ~algo:Plan.Stack_tree_desc ~anc:(anc, 0)
           ~desc:(desc, 1) ()));
  let lazy_misses =
    (Option.get (Column_store.io_stats store)).Pager.misses
  in
  Column_store.reset_io store;
  ignore (Column_store.cols store "manager");
  ignore (Column_store.cols store "employee");
  let full_misses = (Option.get (Column_store.io_stats store)).Pager.misses in
  check cb "lazy join misses <= full materialization" true
    (lazy_misses <= full_misses);
  check cb "full scan reads every page exactly once" true (full_misses > 0)

(* ---------- lazy-leaf page accounting, pinned ---------- *)

(* Each case runs from a cold pool on Pers 1K behind an explicit store
   of 64-item pages and a 4-page pool, so the pool evicts mid-join and
   the numbers hold whatever SJOS_STORAGE or SJOS_DOMAINS say.  A row
   is [page_touches; accesses; hits; misses; evictions].  The
   differential suites only require Disk to agree with Mem modulo IO;
   this pins the IO itself: a leaf faults each ids page at most once
   per scan, metadata and probes once per page run. *)
let io_pin_cases store ~doc ~pool =
  let both anc desc m =
    (leaf_scan store ~width:2 ~slot:0 anc m, leaf_scan store ~width:2 ~slot:1 desc m)
  in
  let join ?pool ?par_min_rows ~algo ~axis (anc, desc) () =
    let m = Work.zero () in
    let a, d = both anc desc m in
    Scratch.with_set (fun s ->
        ignore
          (Stack_tree.join_in Stack_tree.Flat s ?pool ?par_min_rows ~work:m
             ~doc ~axis ~algo ~anc:(a, 0) ~desc:(d, 1) ()))
  in
  let pairs =
    [ ("manager", "employee"); ("department", "name"); ("manager", "name") ]
  in
  let joins =
    List.concat_map
      (fun ((a, d) as pair) ->
        List.concat_map
          (fun algo ->
            List.map
              (fun axis ->
                ( Printf.sprintf "%s-%s %s %s" a d (algo_name algo)
                    (match axis with
                    | Axes.Descendant -> "desc"
                    | Axes.Child -> "child"),
                  join ~algo ~axis pair ))
              [ Axes.Descendant; Axes.Child ])
          [ Plan.Stack_tree_desc; Plan.Stack_tree_anc ])
      pairs
  in
  let twig () =
    let pat = Helpers.pat "manager(//employee(/name),//department(/name))" in
    let width = Sjos_pattern.Pattern.node_count pat in
    let m = Work.zero () in
    let inputs =
      Array.init width (fun i ->
          match
            Column_store.leaf store (Sjos_pattern.Pattern.label pat i)
          with
          | Some lf -> Stack_tree.leaf ~width ~slot:i lf
          | None -> Alcotest.fail "twig: no leaf for a pure tag")
    in
    Scratch.with_set (fun s ->
        ignore (Twig_stack.run s ~work:m ~doc ~pat ~inputs ()))
  in
  (* a leaf joined off its own slot is rejected before any read: its
     other slots are unbound *)
  let off_slot () =
    let m = Work.zero () in
    let a, d = both "manager" "employee" m in
    match
      Scratch.with_set (fun s ->
          Stack_tree.join_in Stack_tree.Flat s ~work:m ~doc
            ~axis:Axes.Descendant ~algo:Plan.Stack_tree_desc ~anc:(a, 0)
            ~desc:(d, 0) ())
    with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "off-slot leaf join accepted"
  in
  joins
  @ [
      ("twig", twig);
      ("off-slot leaf", off_slot);
      ( "sharded, 2 domains",
        join ~pool ~par_min_rows:1 ~algo:Plan.Stack_tree_desc
          ~axis:Axes.Descendant ("manager", "employee") );
    ]

let leaf_io_expected =
  [
    ("manager-employee stj-desc desc", [ 28; 28; 4; 24; 20 ]);
    ("manager-employee stj-desc child", [ 28; 28; 4; 24; 20 ]);
    ("manager-employee stj-anc desc", [ 28; 28; 4; 24; 20 ]);
    ("manager-employee stj-anc child", [ 28; 28; 4; 24; 20 ]);
    ("department-name stj-desc desc", [ 43; 43; 7; 36; 32 ]);
    ("department-name stj-desc child", [ 43; 43; 7; 36; 32 ]);
    ("department-name stj-anc desc", [ 43; 43; 7; 36; 32 ]);
    ("department-name stj-anc child", [ 43; 43; 7; 36; 32 ]);
    ("manager-name stj-desc desc", [ 43; 43; 7; 36; 32 ]);
    ("manager-name stj-desc child", [ 43; 43; 7; 36; 32 ]);
    ("manager-name stj-anc desc", [ 43; 43; 7; 36; 32 ]);
    ("manager-name stj-anc child", [ 43; 43; 7; 36; 32 ]);
    ("twig", [ 110; 110; 41; 69; 65 ]);
    ("off-slot leaf", [ 0; 0; 0; 0; 0 ]);
    ("sharded, 2 domains", [ 46; 46; 4; 42; 38 ]);
  ]

let test_leaf_io_pinned () =
  let doc = Lazy.force Helpers.pers_1k in
  let store =
    Column_store.create
      ~config:(Column_store.disk ~page_size:64 ~pool_pages:4 ())
      (Element_index.build doc)
  in
  Helpers.with_pool 2 @@ fun pool ->
  Fun.protect ~finally:(fun () -> Column_store.dispose store) @@ fun () ->
  let measure f =
    Column_store.reset_io store;
    let w, r = Work.scoped f in
    Result.iter_error raise r;
    let s = Option.get (Column_store.io_stats store) in
    [ w.Work.page_touches; s.Pager.accesses; s.hits; s.misses; s.evictions ]
  in
  let cases = io_pin_cases store ~doc ~pool in
  check ci "case count" (List.length leaf_io_expected) (List.length cases);
  List.iter2
    (fun (name, f) (ename, expected) ->
      check Alcotest.string "case" ename name;
      check Alcotest.(list int) name expected (measure f))
    cases leaf_io_expected

(* A leaf grouped on a slot other than its own: a non-empty one raises
   what grouping its materialized rows raises, and reads nothing; an
   empty one has no groups. *)
let test_off_slot_leaf () =
  let doc = Lazy.force Helpers.pers_1k in
  let store =
    Column_store.create
      ~config:(Column_store.disk ~page_size:64 ~pool_pages:4 ())
      (Element_index.build doc)
  in
  Fun.protect ~finally:(fun () -> Column_store.dispose store) @@ fun () ->
  let cols = lazy (Document.positions doc) in
  let leaf spec =
    match Column_store.leaf store spec with
    | Some lf -> Stack_tree.leaf ~width:2 ~slot:0 lf
    | None -> Alcotest.fail "no leaf"
  in
  let error f =
    match f () with
    | _ -> Alcotest.fail "off-slot group accepted"
    | exception Invalid_argument m -> m
  in
  let employee = Candidate.of_tag "employee" in
  List.iter
    (fun slot ->
      let expected =
        error (fun () ->
            Scratch.with_set (fun s ->
                Stack_tree.group_input s ~cols
                  (Stack_tree.Rows (Stack_tree.to_batch s (leaf employee)))
                  slot))
      in
      Column_store.reset_io store;
      check Alcotest.string
        (Printf.sprintf "slot %d: group's error" slot)
        expected
        (error (fun () ->
             Scratch.with_set (fun s ->
                 Stack_tree.group_input s ~cols (leaf employee) slot)));
      check ci
        (Printf.sprintf "slot %d: no page access" slot)
        0 (Option.get (Column_store.io_stats store)).Pager.accesses)
    [ 1; 2 ];
  let empty = leaf { employee with Candidate.attr = Some ("x", "1") } in
  Column_store.reset_io store;
  List.iter
    (fun input ->
      check ci "empty leaf: no groups" 0
        (Scratch.with_set (fun s ->
             (Stack_tree.group_input s ~cols input 1).Stack_tree.n)))
    [ empty; Stack_tree.resident ~width:2 ~slot:0 Cols.empty ];
  check ci "empty leaf: no page access" 0
    (Option.get (Column_store.io_stats store)).Pager.accesses

(* ---------- every spec: one answer, every backend ---------- *)

(* Random specs over a decorated random document, each part present or
   absent: a tag the document has, one it lacks, or the wildcard; an
   attribute name it has or lacks with a value it has or lacks; a text
   it has or lacks.  The index's columns must be the document's nodes
   filtered by [Candidate.matches], and Mem, Disk and a forced Disk
   leaf must return those columns. *)
let prop_select_is_filter =
  Helpers.qtest ~count:25 "select = filtered document, every backend"
    QCheck2.Gen.small_nat (fun seed ->
      let doc = Helpers.random_doc ~decorated:true (Helpers.seed + seed) in
      let index = Element_index.build doc in
      let mem = Column_store.create ~config:Column_store.mem index in
      let disk =
        Column_store.create
          ~config:(Column_store.disk ~page_size:8 ~pool_pages:4 ())
          index
      in
      Fun.protect ~finally:(fun () -> Column_store.dispose disk) @@ fun () ->
      let rng = Sjos_datagen.Rng.create (Helpers.seed + (31 * seed)) in
      let pick a = a.(Sjos_datagen.Rng.int rng (Array.length a)) in
      let maybe a = if Sjos_datagen.Rng.bool rng then Some (pick a) else None in
      let spec () =
        {
          Candidate.tag = maybe (Array.append Helpers.tags [| "z" |]);
          attr =
            Option.map
              (fun name -> (name, pick (Array.append Helpers.attr_values [| "9" |])))
              (maybe (Array.append Helpers.attr_names [| "q" |]));
          text = maybe (Array.append Helpers.texts [| "w" |]);
        }
      in
      let expected spec =
        let rows =
          List.filter (Candidate.matches spec) (Array.to_list (Document.nodes doc))
        in
        let col f = Array.of_list (List.map f rows) in
        {
          Cols.ids = col (fun n -> n.Node.id);
          starts = col (fun n -> n.Node.start_pos);
          ends = col (fun n -> n.Node.end_pos);
          levels = col (fun n -> n.Node.level);
        }
      in
      List.for_all
        (fun spec ->
          let e = expected spec in
          Cols.equal e (Candidate.select index spec)
          && Cols.equal e (Column_store.select mem spec)
          && Cols.equal e (Column_store.select disk spec)
          &&
          match Column_store.leaf disk spec with
          | None -> true
          | Some lf ->
              Column_store.force lf;
              Cols.equal e (Column_store.leaf_cols lf))
        (List.init 30 (fun _ -> spec ())))

(* ---------- predicate specs: posting lists ---------- *)

let q_mbench_1a = "eNest[@aLevel='2'](//eNest[@aLevel='6'](/eNest[@aLevel='7']))"
let q_lazy_leaf = "eNest[@aLevel='3'](//eOccasional)"

(* Attribute predicates over Mbench and a text predicate over Pers read
   posting lists on Disk; the wildcard stays on the materializing
   [select].  Two rounds: the first use of a spec builds its posting,
   the second reads it back through the pool. *)
let test_predicate_spec_differential () =
  check_backends_agree ~rounds:2 (Lazy.force Helpers.mbench_1k)
    [
      q_mbench_1a;
      "eNest[@aLevel='1'](/eNest[@aLevel='2'],//eNest[@aSixtyFour='3'](/eOccasional))";
      q_lazy_leaf;
    ];
  check_backends_agree ~rounds:2 (Lazy.force Helpers.pers_1k)
    [ "manager(//department(/name[.='sales']))"; "manager(/*)" ]

(* 64-item (512-byte) pages behind a pool that holds the whole file *)
let page_bytes = 8 * 64

let disk_db doc =
  Database.of_document
    ~storage:(Column_store.disk ~page_size:64 ~pool_pages:4096 ())
    doc

let column_bytes db =
  Option.get (Column_store.total_column_bytes (Database.store db))

let file_bytes db =
  let ic = open_in_bin (Option.get (Column_store.data_file (Database.store db))) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)

(* A cold first use pays the tag's full scan plus the posting; a cold
   repeat reads the posting's pages and nothing else. *)
let test_posting_repeat_misses () =
  let db = disk_db (Lazy.force Helpers.mbench_1k) in
  Fun.protect ~finally:(fun () -> Database.dispose db) @@ fun () ->
  let store = Database.store db in
  let cold_misses text =
    Column_store.reset_io store;
    ignore (run_one db text);
    (Option.get (Column_store.io_stats store)).Pager.misses
  in
  let text = "eNest[@aLevel='3']" in
  let bytes0 = column_bytes db in
  let first = cold_misses text in
  let posting_pages = (column_bytes db - bytes0) / page_bytes in
  let repeat = cold_misses text in
  Column_store.reset_io store;
  ignore (Column_store.cols store "eNest");
  let tag_scan = (Option.get (Column_store.io_stats store)).Pager.misses in
  check cb "a posting was appended" true (posting_pages >= 4);
  check ci "first use: the tag scan plus the posting" (tag_scan + posting_pages)
    first;
  check cb "repeat misses at most the posting's pages" true
    (repeat <= posting_pages);
  check cb "repeat misses fewer than the first run" true (repeat < first);
  ignore (cold_misses text);
  check ci "a repeat appends nothing" (bytes0 + (posting_pages * page_bytes))
    (column_bytes db)

(* Domains racing on a spec's first use build one posting. *)
let test_posting_race () =
  let doc = Lazy.force Helpers.mbench_1k in
  let serial_db = disk_db doc in
  let expected, _, _ = run_one serial_db q_mbench_1a in
  let serial_bytes = file_bytes serial_db in
  Database.dispose serial_db;
  let db = disk_db doc in
  Helpers.with_pool 4 @@ fun pool ->
  Fun.protect ~finally:(fun () -> Database.dispose db) @@ fun () ->
  let opts = Query_opts.make ~pool:Sjos_par.Pool.serial () in
  let results =
    Sjos_par.Pool.run pool 4 (fun _ ->
        (Database.run ~opts db (Helpers.pat q_mbench_1a)).Database.exec
          .Executor.tuples)
  in
  Array.iteri
    (fun i got ->
      Helpers.check_same_tuple_seq (Printf.sprintf "racer %d" i) expected got)
    results;
  check ci "the file grew once" serial_bytes (file_bytes db)

(* Past [posting_capacity] postings a new spec gets no leaf and is
   served by the materializing [select], with identical results. *)
let test_posting_capacity () =
  let doc = Lazy.force Helpers.mbench_1k in
  let db = disk_db doc in
  let db_mem = Database.of_document ~storage:Column_store.mem doc in
  Fun.protect ~finally:(fun () -> Database.dispose db) @@ fun () ->
  let store = Database.store db in
  for i = 1 to Column_store.posting_capacity do
    let spec =
      { (Candidate.of_tag "eNest") with Candidate.text = Some (string_of_int i) }
    in
    if Column_store.leaf store spec = None then
      Alcotest.failf "posting %d refused below capacity" i
  done;
  let full = column_bytes db in
  check cb "spec 257 gets no leaf" true
    (Column_store.leaf store
       { (Candidate.of_tag "eNest") with Candidate.attr = Some ("aLevel", "3") }
    = None);
  let tm, mm, _ = run_one db_mem q_lazy_leaf in
  let td, md, _ = run_one db q_lazy_leaf in
  Helpers.check_same_tuple_seq "select fallback" tm td;
  Helpers.check_work_equal "select fallback" mm md;
  check ci "nothing appended past capacity" full (column_bytes db)

(* A column file that is missing or shorter than the pages already
   allocated fails the build with [Io_error] and is left as it was. *)
let test_posting_damaged_file () =
  let index = Element_index.build (Lazy.force Helpers.mbench_1k) in
  List.iter
    (fun (what, damage, after) ->
      let store =
        Column_store.create
          ~config:(Column_store.disk ~page_size:64 ~pool_pages:4096 ())
          index
      in
      Fun.protect ~finally:(fun () -> Column_store.dispose store) @@ fun () ->
      let path = Option.get (Column_store.data_file store) in
      (* the tag is resident, so only the posting write meets the damage *)
      ignore (Column_store.cols store "eNest");
      damage path;
      (match
         Column_store.leaf store
           { (Candidate.of_tag "eNest") with Candidate.attr = Some ("aLevel", "3") }
       with
      | exception Column_store.Io_error _ -> ()
      | _ -> Alcotest.failf "%s column file: posting built" what);
      check cb (what ^ ": file untouched") true (after path))
    [
      ("missing", Sys.remove, fun p -> not (Sys.file_exists p));
      ( "truncated",
        (fun p -> close_out (open_out_gen [ Open_trunc; Open_binary ] 0o600 p)),
        fun p ->
          let ic = open_in_bin p in
          let n = in_channel_length ic in
          close_in ic;
          n = 0 );
    ]

(* ---------- chaos faults are backend-independent ---------- *)

let test_chaos_differential () =
  let doc = Lazy.force Helpers.pers_1k in
  let run_with storage seed =
    let db = Database.of_document ~storage doc in
    let chaos =
      Sjos_guard.Chaos.create
        ~faults:[ Sjos_guard.Chaos.Truncate_candidates ]
        ~seed ()
    in
    let opts = Query_opts.make ~chaos () in
    let out =
      List.map
        (fun text ->
          match
            Sjos_guard.Error.protect (fun () ->
                Database.run ~opts db (Helpers.pat text))
          with
          | Ok r ->
              Ok
                (Array.map Array.to_list r.Database.exec.Executor.tuples
                |> Array.to_list)
          | Error e -> Error (Sjos_guard.Error.class_name e))
        query_texts
    in
    Database.dispose db;
    out
  in
  List.iter
    (fun seed ->
      let mem = run_with Column_store.mem seed in
      let disk =
        run_with (Column_store.disk ~page_size:64 ~pool_pages:4 ()) seed
      in
      check
        Alcotest.(
          list
            (result (list (list int)) string))
        (Printf.sprintf "chaos seed %d" seed)
        mem disk)
    [ 1; 2; 42 ]

(* ---------- multi-domain execution over Disk ---------- *)

let test_domains_differential () =
  let doc = Lazy.force Helpers.pers_1k in
  let serial =
    let db = Database.of_document ~storage:Column_store.mem doc in
    List.map
      (fun text ->
        let t, _, _ = run_one db text in
        Array.map Array.to_list t)
      query_texts
  in
  List.iter
    (fun domains ->
      Helpers.with_pool domains @@ fun pool ->
      let db =
        Database.of_document
          ~storage:(Column_store.disk ~page_size:64 ~pool_pages:8 ())
          doc
      in
      let opts = Query_opts.make ~pool () in
      List.iteri
        (fun i text ->
          let r = Database.run ~opts db (Helpers.pat text) in
          let got =
            Array.map Array.to_list r.Database.exec.Executor.tuples
          in
          check
            Alcotest.(array (list int))
            (Printf.sprintf "domains=%d %s" domains text)
            (List.nth serial i) got)
        query_texts;
      Database.dispose db)
    [ 1; 2; 4 ]

(* ---------- store lifecycle and file format ---------- *)

let test_store_lifecycle () =
  let doc = Lazy.force Helpers.tiny_pers in
  let index = Element_index.build doc in
  let config = Column_store.disk ~page_size:64 ~pool_pages:4 () in
  let store = Column_store.create ~config index in
  let path = Option.get (Column_store.data_file store) in
  check cb "data file exists" true (Sys.file_exists path);
  check
    Alcotest.(list string)
    "the store directory holds only the column file" [ "columns.bin" ]
    (Array.to_list (Sys.readdir (Filename.dirname path)));
  check cb "is disk" true (Column_store.is_disk store);
  let total = Option.get (Column_store.total_column_bytes store) in
  check cb "column bytes > 0" true (total > 0);
  let c = Column_store.cols store "manager" in
  check ci "manager count" 3 (Cols.length c);
  check cb "equals index columns" true
    (Cols.equal c (Element_index.cols index "manager"));
  check ci "unknown tag is empty" 0 (Cols.length (Column_store.cols store "zz"));
  Column_store.dispose store;
  check cb "data file removed" false (Sys.file_exists path);
  Column_store.dispose store (* idempotent *);
  (* a store directory that cannot be created is an [Io_error] *)
  let file = Filename.temp_file "sjos-not-a-dir" "" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  match
    Column_store.create
      ~config:(Column_store.disk ~dir:(Filename.concat file "store") ())
      index
  with
  | exception Column_store.Io_error _ -> ()
  | _ -> Alcotest.fail "store created under a regular file"

(* The at_exit ordering fix: disk stores must dispose in the [`Dispose]
   stage, strictly before any [`Shutdown] hook (the domain pool's
   teardown), regardless of registration order. *)
let test_lifecycle_ordering () =
  Sjos_obs.Lifecycle.with_isolated @@ fun () ->
  let order = ref [] in
  let note tag () = order := tag :: !order in
  (* register shutdown FIRST: plain at_exit would run it last anyway,
     but a later dispose registration would then precede it — the
     interleaving this module exists to forbid *)
  Sjos_obs.Lifecycle.on_exit `Shutdown (note "shutdown");
  Sjos_obs.Lifecycle.on_exit `Dispose (note "dispose-a");
  Sjos_obs.Lifecycle.on_exit `Dispose (note "dispose-b");
  Sjos_obs.Lifecycle.run_now ();
  check
    Alcotest.(list string)
    "dispose stage first, registration order within a stage"
    [ "dispose-a"; "dispose-b"; "shutdown" ]
    (List.rev !order);
  Sjos_obs.Lifecycle.run_now ();
  check ci "hooks run at most once" 3 (List.length !order)

let test_lifecycle_disposes_store_before_shutdown () =
  Sjos_obs.Lifecycle.with_isolated @@ fun () ->
  let doc = Lazy.force Helpers.tiny_pers in
  let index = Element_index.build doc in
  let file_at_shutdown = ref true in
  let store =
    Column_store.create ~config:(Column_store.disk ~pool_pages:4 ()) index
  in
  let path = Option.get (Column_store.data_file store) in
  (* the store registered its own `Dispose hook at creation; this
     shutdown hook must observe the file already gone *)
  Sjos_obs.Lifecycle.on_exit `Shutdown (fun () ->
      file_at_shutdown := Sys.file_exists path);
  check cb "data file exists before exit hooks" true (Sys.file_exists path);
  Sjos_obs.Lifecycle.run_now ();
  check cb "column file removed before the shutdown stage ran" false
    !file_at_shutdown;
  Column_store.dispose store (* idempotent after the hook disposed it *)

let test_database_dispose_idempotent () =
  let db =
    Database.of_document
      ~storage:(Column_store.disk ~pool_pages:4 ())
      (Lazy.force Helpers.tiny_pers)
  in
  let path = Option.get (Column_store.data_file (Database.store db)) in
  let r1 = Database.run db (Helpers.pat "manager(/employee)") in
  check cb "query ran" true
    (Array.length r1.Database.exec.Executor.tuples > 0);
  Database.dispose db;
  check cb "file removed" false (Sys.file_exists path);
  Database.dispose db;
  (* double dispose is a no-op *)
  Database.dispose db

let test_mem_store_is_free () =
  let index = Lazy.force Helpers.tiny_index in
  let store = Column_store.create ~config:Column_store.mem index in
  check cb "not disk" false (Column_store.is_disk store);
  Alcotest.(check (option reject)) "no io stats" None
    (Option.map ignore (Column_store.io_stats store));
  Alcotest.(check (option reject)) "no data file" None
    (Option.map ignore (Column_store.data_file store));
  Column_store.dispose store;
  check ci "cols still served after dispose" 3
    (Cols.length (Column_store.cols store "manager"))

let test_truncated_file_fails_loudly () =
  let doc = Lazy.force Helpers.pers_1k in
  let index = Element_index.build doc in
  let store =
    Column_store.create
      ~config:(Column_store.disk ~page_size:64 ~pool_pages:4 ())
      index
  in
  Fun.protect ~finally:(fun () -> Column_store.dispose store)
  @@ fun () ->
  let path = Option.get (Column_store.data_file store) in
  (* chop the file: every unread page is now missing *)
  let oc = open_out_gen [ Open_trunc; Open_binary ] 0o600 path in
  close_out oc;
  match Column_store.cols store "manager" with
  | _ -> Alcotest.fail "truncated column file served data"
  | exception _ -> ()

let test_config_parsing () =
  check cb "mem parses" true
    (Column_store.backend_of_string "MEM" = Ok Column_store.Mem);
  check cb "disk parses" true
    (Column_store.backend_of_string "disk" = Ok Column_store.Disk);
  check cb "garbage rejected" true
    (Result.is_error (Column_store.backend_of_string "tape"));
  (match Column_store.disk ~page_size:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "page_size 0 accepted")

let suite =
  [
    Alcotest.test_case "mem vs disk differential (grid)" `Quick
      test_differential;
    Alcotest.test_case "lazy leaves vs rows kernels" `Quick test_leaf_kernel;
    Alcotest.test_case "lazy join misses bounded by full scan" `Quick
      test_leaf_laziness_bounded;
    Alcotest.test_case "lazy-leaf page accounting pinned" `Quick
      test_leaf_io_pinned;
    Alcotest.test_case "off-slot leaf: group's error, no IO" `Quick
      test_off_slot_leaf;
    prop_select_is_filter;
    Alcotest.test_case "predicate specs identical across backends" `Quick
      test_predicate_spec_differential;
    Alcotest.test_case "posting: repeat misses only its pages" `Quick
      test_posting_repeat_misses;
    Alcotest.test_case "posting: raced first use builds once" `Quick
      test_posting_race;
    Alcotest.test_case "posting: past capacity falls back to select" `Quick
      test_posting_capacity;
    Alcotest.test_case "posting: damaged column file raises Io_error" `Quick
      test_posting_damaged_file;
    Alcotest.test_case "chaos faults backend-independent" `Quick
      test_chaos_differential;
    Alcotest.test_case "multi-domain over disk" `Quick
      test_domains_differential;
    Alcotest.test_case "disk store lifecycle" `Quick test_store_lifecycle;
    Alcotest.test_case "exit hooks: dispose stage before shutdown" `Quick
      test_lifecycle_ordering;
    Alcotest.test_case "exit hooks: store file gone before shutdown stage"
      `Quick test_lifecycle_disposes_store_before_shutdown;
    Alcotest.test_case "database dispose is idempotent" `Quick
      test_database_dispose_idempotent;
    Alcotest.test_case "mem store is free" `Quick test_mem_store_is_free;
    Alcotest.test_case "truncated column file fails loudly" `Quick
      test_truncated_file_fails_loudly;
    Alcotest.test_case "config parsing" `Quick test_config_parsing;
  ]
