(* Property-based tests (qcheck) on the core invariants. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_plan
open Sjos_core
open Sjos_exec
open Sjos_datagen
open Sjos_engine
open Helpers
module Work = Sjos_obs.Work
module Budget = Sjos_guard.Budget

let seed_gen = QCheck2.Gen.int_range 0 100_000

(* ---------- properties ---------- *)

let prop_doc_valid =
  qtest "random documents satisfy the interval encoding" seed_gen
    (fun seed ->
      match Document.validate (random_doc seed) with
      | Ok () -> true
      | Error _ -> false)

let prop_nest_or_disjoint =
  qtest "any two nodes nest or are disjoint" seed_gen (fun seed ->
      let doc = random_doc seed in
      let nodes = Document.nodes doc in
      Array.for_all
        (fun a ->
          Array.for_all
            (fun b ->
              a.Node.id = b.Node.id
              || Axes.is_ancestor a b || Axes.is_ancestor b a
              || Axes.disjoint a b)
            nodes)
        nodes)

let prop_parse_serialize_id =
  qtest "parse . serialize = id" seed_gen (fun seed ->
      let doc = random_doc seed in
      let doc' = Parser.parse_string (Serializer.to_string ~indent:false doc) in
      Document.nodes doc = Document.nodes doc')

(* ---------- every configuration computes Naive's matches ---------- *)

(* A plan choice may change cost but never the matches.  One drawn case:
   the document and pattern come from [doc_seed] through the shared
   recipes; the rest picks the engine, the search algorithm, the storage
   backend ([Some (page_size, pool_pages)] is Disk) and the tuple
   ceiling ([None] is unlimited).  [configuration_test] runs one slice of
   this space; three slices cover it: binary on Mem (below), holistic
   and auto on Mem, and every engine on Disk (both in test_twig.ml). *)
type config = {
  doc_seed : int;
  engine : Optimizer.engine;
  algorithm : Optimizer.algorithm;
  disk : (int * int) option;
  max_tuples : int option;
}

let config_gen ~engines ~disk =
  let open QCheck2.Gen in
  let* doc_seed = seed_gen in
  let nodes = Pattern.node_count (random_pattern doc_seed) in
  let* engine = oneofl engines in
  let* te = int_range 1 nodes in
  let* algorithm =
    oneofl Optimizer.[ Dp; Dpp; Dpp_no_lookahead; Dpap_eb te; Dpap_ld; Fp ]
  in
  let* disk =
    if disk then map Option.some (pair (oneofl [ 16; 64 ]) (oneofl [ 2; 8 ]))
    else return None
  in
  let+ max_tuples = option ~ratio:0.3 (int_range 0 40) in
  { doc_seed; engine; algorithm; disk; max_tuples }

let config_to_string c =
  Printf.sprintf "SJOS_SEED=%d, doc seed %d, pattern %s, engine %s, %s, %s, %s"
    Helpers.seed c.doc_seed
    (Pattern.to_string (random_pattern c.doc_seed))
    (Optimizer.engine_name c.engine)
    (Optimizer.name c.algorithm)
    (match c.disk with
    | None -> "mem"
    | Some (page_size, pool_pages) ->
        Printf.sprintf "disk page_size=%d pool_pages=%d" page_size pool_pages)
    (match c.max_tuples with
    | None -> "unlimited"
    | Some k -> Printf.sprintf "max_tuples=%d" k)

(* Is [tuples] sorted by the document position of the node in [slot]? *)
let ordered_by doc slot tuples =
  let pos t = (Document.node doc (Tuple.get t slot)).Node.start_pos in
  let ok = ref true in
  Array.iteri
    (fun i t -> if i > 0 && pos tuples.(i - 1) > pos t then ok := false)
    tuples;
  !ok

(* Mem runs are checked against Naive; a Disk run also repeats its Mem
   twin's tuple sequence and work, page accounting aside. *)
let configuration_test ~count name ~engines ~disk =
  qtest ~count ~print:config_to_string name (config_gen ~engines ~disk)
    (fun c ->
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let doc = random_doc c.doc_seed in
      let p = random_pattern c.doc_seed in
      let naive = sorted_tuples (Naive.matches (Element_index.build doc) p) in
      let budget =
        match c.max_tuples with
        | None -> Budget.unlimited
        | Some k -> Budget.make ~max_tuples:k ()
      in
      let opts =
        Query_opts.make ~engine:c.engine ~algorithm:c.algorithm ~budget
          ~use_cache:false ()
      in
      let run storage =
        let db = Database.of_document ~storage doc in
        Fun.protect
          ~finally:(fun () -> Database.dispose db)
          (fun () -> Work.scoped (fun () -> Database.run ~opts db p))
      in
      let mem_work, mem = run Column_store.mem in
      (match (mem, c.max_tuples) with
      | Ok r, _ ->
          let plan = r.Database.opt.Optimizer.plan in
          let tuples = r.Database.exec.Executor.tuples in
          let got = sorted_tuples (Array.to_list tuples) in
          if got <> naive then
            fail "%d matches, Naive finds %d" (List.length got)
              (List.length naive);
          if Plan.uses_holistic plan then begin
            if List.map Array.to_list (Array.to_list tuples) <> naive then
              fail "holistic output is not the sorted Naive sequence"
          end
          else if not (ordered_by doc (Plan.ordered_by plan) tuples) then
            fail "binary output is not ordered by slot %d"
              (Plan.ordered_by plan);
          (match c.max_tuples with
          | Some k when List.length naive > k ->
              fail "%d matches passed max_tuples=%d" (List.length naive) k
          | _ -> ())
      | ( Error
            (Budget.Exhausted
              { resource = Budget.Tuples_materialized { limit; count }; _ }),
          Some k ) ->
          if limit <> k || count <= k then
            fail "Tuples_materialized {limit = %d; count = %d} under \
                  max_tuples=%d"
              limit count k
      | Error e, _ -> fail "raised %s" (Printexc.to_string e));
      (match c.disk with
      | None -> ()
      | Some (page_size, pool_pages) -> (
          let disk_work, disk =
            run (Column_store.disk ~page_size ~pool_pages ())
          in
          (match (mem, disk) with
          | Ok m, Ok d ->
              let tuples (r : Database.query_run) = r.Database.exec.Executor.tuples in
              if tuples m <> tuples d then
                fail "Disk tuple sequence differs from Mem"
          | Error a, Error b when a = b -> ()
          | _ -> fail "Mem and Disk disagree on whether the run stops");
          if not (Work.equal_mod_io mem_work disk_work) then
            fail "Disk work differs from Mem beyond page accounting"));
      true)

let prop_binary_configurations =
  configuration_test ~count:80 "optimized execution equals naive matching"
    ~engines:[ Optimizer.Binary ] ~disk:false

let prop_fp_equals_naive =
  qtest ~count:40 "FP plans compute the same matches" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let provider = Naive.exact_provider idx p in
      let _, plan = Fp.run (Search.make_ctx ~provider p) in
      Properties.is_fully_pipelined plan
      && Properties.is_valid p plan
      && sorted_tuples
           (Array.to_list (Executor.execute idx p plan).Executor.tuples)
         = sorted_tuples (Naive.matches idx p))

let prop_dp_optimal_vs_random =
  qtest ~count:40 "DP cost is a lower bound on random plans" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let provider = Naive.exact_provider idx p in
      let dp_cost, _ = Dp.run (Search.make_ctx ~provider p) in
      List.for_all
        (fun (c, _) -> c >= dp_cost -. 1e-6)
        (Random_plan.sample ~seed (Search.make_ctx ~provider p) 10))

let prop_dpp_equals_dp =
  qtest ~count:40 "DPP finds the DP optimum" seed_gen (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let provider = Naive.exact_provider idx p in
      let dp_cost, _ = Dp.run (Search.make_ctx ~provider p) in
      let dpp_cost, _ = Dpp.run (Search.make_ctx ~provider p) in
      Float.abs (dp_cost -. dpp_cost) < 1e-6)

let prop_estimator_bounds =
  qtest ~count:60 "pair estimates lie within [0, |A|*|D|]" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let max_pos = Document.max_pos doc in
      let h tag =
        Sjos_histogram.Position_histogram.build ~grid:16 ~max_pos
          (Element_index.cols idx tag)
      in
      let ha = h "a" and hb = h "b" in
      let est = Sjos_histogram.Estimator.ancestor_descendant ~anc:ha ~desc:hb in
      let bound =
        Sjos_histogram.Position_histogram.cardinality ha
        *. Sjos_histogram.Position_histogram.cardinality hb
      in
      est >= 0.0 && est <= bound +. 1e-9)

let prop_stack_tree_equals_filter =
  qtest ~count:60 "stack-tree join = filtered cross product" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let work = Work.zero () in
      let a = Operators.index_scan ~work ~width:2 ~slot:0 (Helpers.ids idx "a") in
      let b = Operators.index_scan ~work ~width:2 ~slot:1 (Helpers.ids idx "b") in
      let axis = if seed mod 2 = 0 then Axes.Descendant else Axes.Child in
      let algo = if seed mod 3 = 0 then Plan.Stack_tree_anc else Plan.Stack_tree_desc in
      let joined =
        Stack_tree.join ~work ~doc ~axis ~algo ~anc:(a, 0) ~desc:(b, 1) ()
      in
      let expected =
        Array.to_list a
        |> List.concat_map (fun ta ->
               Array.to_list b
               |> List.filter_map (fun tb ->
                      let na = Document.node doc (Tuple.get ta 0) in
                      let nb = Document.node doc (Tuple.get tb 1) in
                      if Axes.related axis ~anc:na ~desc:nb then
                        Some (Tuple.merge ta tb)
                      else None))
      in
      sorted_tuples (Array.to_list joined)
      = sorted_tuples expected)

let prop_join_output_ordered =
  qtest ~count:60 "join output is ordered as advertised" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let work = Work.zero () in
      let a = Operators.index_scan ~work ~width:2 ~slot:0 (Helpers.ids idx "a") in
      let b = Operators.index_scan ~work ~width:2 ~slot:1 (Helpers.ids idx "b") in
      let check_sorted algo slot =
        let out =
          Stack_tree.join ~work ~doc ~axis:Axes.Descendant ~algo ~anc:(a, 0)
            ~desc:(b, 1) ()
        in
        let ok = ref true in
        Array.iteri
          (fun i t ->
            if i > 0 && Tuple.compare_by_slot doc slot out.(i - 1) t > 0 then
              ok := false)
          out;
        !ok
      in
      check_sorted Plan.Stack_tree_anc 0 && check_sorted Plan.Stack_tree_desc 1)

(* random *path* pattern: a chain over the alphabet *)
let random_path_pattern seed =
  let rng = Rng.create ((seed * 73) + 5) in
  let n = 1 + Rng.int rng 4 in
  let labels = List.init n (fun _ -> random_label rng) in
  let axes = List.init (n - 1) (fun _ -> random_axis rng) in
  Shapes.path labels axes

let prop_path_stack_equals_naive =
  qtest ~count:60 "PathStack equals naive matching on paths" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_path_pattern seed in
      let out = Executor.execute idx p (Plan.holistic_of_pattern p) in
      sorted_tuples (Array.to_list out.Executor.tuples)
      = sorted_tuples (Naive.matches idx p))

let prop_twig_join_equals_naive =
  qtest ~count:60 "TwigStack-style join equals naive matching"
    seed_gen (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let out = Executor.execute idx p (Plan.holistic_of_pattern p) in
      sorted_tuples (Array.to_list out.Executor.tuples)
      = sorted_tuples (Naive.matches idx p))

let prop_mpmgjn_equals_stack_tree =
  qtest ~count:60 "MPMGJN = Stack-Tree join results" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let axis = if seed mod 2 = 0 then Axes.Descendant else Axes.Child in
      let m1 = Work.zero () and m2 = Work.zero () in
      let scan m slot tag =
        Operators.index_scan ~work:m ~width:2 ~slot
          (Helpers.ids idx tag)
      in
      let st =
        Stack_tree.join ~work:m1 ~doc ~axis ~algo:Plan.Stack_tree_anc
          ~anc:(scan m1 0 "a", 0) ~desc:(scan m1 1 "b", 1) ()
      in
      let mj =
        Merge_join.join ~work:m2 ~doc ~axis ~anc:(scan m2 0 "a", 0)
          ~desc:(scan m2 1 "b", 1)
      in
      sorted_tuples (Array.to_list st)
      = sorted_tuples (Array.to_list mj))

(* Renumbering a pattern (root kept at 0) and listing its edges in
   another order changes neither its fingerprint nor what sits at each
   canonical index, and the order-by node travels with the numbering. *)
let prop_canonical_ignores_numbering =
  qtest ~print:string_of_int "canonical numbering ignores renumbering" seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let base = random_pattern seed in
      let n = Pattern.node_count base in
      let order_by =
        match Rng.int rng (n + 1) with k when k = n -> None | k -> Some k
      in
      let p = Pattern.with_order_by base order_by in
      let swap a i j =
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 2 do
        swap perm i (1 + Rng.int rng i)
      done;
      let labels = Array.make n Candidate.any in
      Array.iteri (fun i l -> labels.(perm.(i)) <- l) (Pattern.labels p);
      let edges =
        Pattern.edges p
        |> List.map (fun (e : Pattern.edge) ->
               (perm.(e.Pattern.anc), e.Pattern.axis, perm.(e.Pattern.desc)))
        |> Array.of_list
      in
      for i = Array.length edges - 1 downto 1 do
        swap edges i (Rng.int rng (i + 1))
      done;
      let q =
        Pattern.create ?order_by:(Option.map (Array.get perm) order_by) ~labels
          ~edges ()
      in
      let cp = Fingerprint.canonical p and cq = Fingerprint.canonical q in
      let axis_up pat i =
        Option.map (fun (_, (e : Pattern.edge)) -> e.Pattern.axis)
          (Pattern.parent_of pat i)
      in
      let agree k =
        let i = cp.Fingerprint.of_canon.(k) and j = cq.Fingerprint.of_canon.(k) in
        Pattern.label p i = Pattern.label q j
        && axis_up p i = axis_up q j
        && cp.Fingerprint.to_canon.(i) = k
        && cq.Fingerprint.to_canon.(j) = k
      in
      String.equal cp.Fingerprint.fingerprint cq.Fingerprint.fingerprint
      && List.for_all agree (List.init n Fun.id)
      && Option.map (Array.get cp.Fingerprint.to_canon) order_by
         = Option.map (Array.get cq.Fingerprint.to_canon) (Pattern.order_by q))

let prop_folding_linear =
  qtest ~count:15 "folding multiplies match counts" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let p = random_pattern seed in
      let base = Naive.count (Element_index.build doc) p in
      let folded = Folding.replicate doc 3 in
      Naive.count (Element_index.build folded) p = 3 * base)

let prop_pq_sorts =
  qtest "priority queue pops in priority order"
    QCheck2.Gen.(list_size (int_range 0 50) (float_range (-1000.) 1000.))
    (fun floats ->
      let q = Pq.create () in
      List.iter (fun f -> Pq.push q f f) floats;
      let rec drain acc =
        match Pq.pop q with
        | Some (pr, _) -> drain (pr :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare floats)

let prop_random_plans_valid =
  qtest ~count:40 "random plans are always valid" seed_gen (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let provider = Naive.exact_provider idx p in
      let ctx = Search.make_ctx ~provider p in
      List.for_all
        (fun (_, plan) -> Properties.is_valid p plan)
        (Random_plan.sample ~seed ctx 5))

(* A join's Flat output carries the groups of its output order's slot
   and a sort's those of its sort slot.  Evaluating random plans node by
   node (scans as resident leaves, as the executor runs them), every
   operator's carried groups must equal what [group] computes over the
   same rows stripped of them, field for field, with both algorithms and
   both axes, serially and sharded over two domains with [par_min_rows]
   at 0; the root's rows must equal the executor's. *)
let prop_carried_groups_equal_group =
  qtest ~count:30 "carried groups = group over the same rows" seed_gen
    (fun seed ->
      let doc = random_doc seed in
      let idx = Element_index.build doc in
      let p = random_pattern seed in
      let width = Pattern.node_count p in
      let positions = lazy (Document.positions doc) in
      let provider = Naive.exact_provider idx p in
      let plans = Random_plan.sample ~seed (Search.make_ctx ~provider p) 6 in
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let same_groups s what b slot =
        let c =
          Stack_tree.group_input s ~cols:positions (Stack_tree.Rows b) slot
        and g =
          Stack_tree.group_input s ~cols:positions
            (Stack_tree.Rows
               (Batch.unsafe_of_raw ~width ~len:(Batch.length b) (Batch.data b)))
            slot
        in
        let n = c.Stack_tree.n in
        let field name get k =
          if Array.sub (get c) 0 k <> Array.sub (get g) 0 k then
            fail "seed %d, %s: %s differs" seed what name
        in
        (match Batch.grouped b with
        | Some carried when carried.Batch.slot = slot -> ()
        | _ -> fail "seed %d, %s: no groups carried for slot %d" seed what slot);
        if n <> g.Stack_tree.n then
          fail "seed %d, %s: n %d vs %d" seed what n g.Stack_tree.n;
        field "off" (fun x -> x.Stack_tree.off) (n + 1);
        field "gstart" (fun x -> x.Stack_tree.gstart) n;
        field "gend" (fun x -> x.Stack_tree.gend) n;
        field "glevel" (fun x -> x.Stack_tree.glevel) n
      in
      let rec eval s ?pool plan =
        let work = Work.zero () in
        match plan with
        | Plan.Index_scan i ->
            Stack_tree.resident ~width ~slot:i
              (Candidate.select idx (Pattern.label p i))
        | Plan.Sort { input; by } ->
            let b =
              Operators.sort_batch s ~work ~doc ~by
                (Stack_tree.to_batch s (eval s ?pool input))
            in
            same_groups s "sort" b by;
            Stack_tree.Rows b
        | Plan.Structural_join { anc_side; desc_side; edge; algo } ->
            let b =
              Stack_tree.join_in Stack_tree.Flat s ?pool ~par_min_rows:0
                ~work ~doc ~axis:edge.Pattern.axis ~algo
                ~anc:(eval s ?pool anc_side, edge.Pattern.anc)
                ~desc:(eval s ?pool desc_side, edge.Pattern.desc)
                ()
            in
            same_groups s
              (Printf.sprintf "join %s %s"
                 (match algo with
                 | Plan.Stack_tree_anc -> "STJ-A"
                 | Plan.Stack_tree_desc -> "STJ-D")
                 (match edge.Pattern.axis with
                 | Axes.Child -> "child"
                 | Axes.Descendant -> "desc"))
              b (Plan.ordered_by plan);
            Stack_tree.Rows b
        | Plan.Holistic _ -> fail "seed %d: holistic plan sampled" seed
      in
      Helpers.with_pool 2 (fun pool ->
          List.iter
            (fun (_, plan) ->
              let expected = (Executor.execute idx p plan).Executor.tuples in
              List.iter
                (fun pool ->
                  let got =
                    Scratch.with_set (fun s ->
                        Batch.to_tuples
                          (Stack_tree.to_batch s (eval s ?pool plan)))
                  in
                  if not (Array.length got = Array.length expected
                          && Array.for_all2 Tuple.equal got expected)
                  then fail "seed %d: rows differ from the executor's" seed)
                [ None; Some pool ])
            plans);
      true)

let suite =
  [
    prop_doc_valid;
    prop_nest_or_disjoint;
    prop_parse_serialize_id;
    prop_binary_configurations;
    prop_fp_equals_naive;
    prop_dp_optimal_vs_random;
    prop_dpp_equals_dp;
    prop_estimator_bounds;
    prop_stack_tree_equals_filter;
    prop_join_output_ordered;
    prop_path_stack_equals_naive;
    prop_twig_join_equals_naive;
    prop_mpmgjn_equals_stack_tree;
    prop_canonical_ignores_numbering;
    prop_folding_linear;
    prop_pq_sorts;
    prop_random_plans_valid;
    prop_carried_groups_equal_group;
  ]
