open Sjos_xml
open Sjos_storage
open Sjos_histogram
open Sjos_pattern

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ---------- Grid ---------- *)

let test_grid_basics () =
  let g = Grid.create 4 in
  check ci "size" 4 (Grid.size g);
  Grid.add g 0 0;
  Grid.add g 1 2;
  Grid.add g 1 2;
  Grid.add g 3 3;
  Helpers.checkf "get" 2.0 (Grid.get g 1 2);
  Helpers.checkf "total" 4.0 (Grid.total g);
  Grid.seal g;
  Helpers.checkf "full sum" 4.0 (Grid.range_sum g ~i0:0 ~i1:3 ~j0:0 ~j1:3);
  Helpers.checkf "row" 2.0 (Grid.range_sum g ~i0:1 ~i1:1 ~j0:0 ~j1:3);
  Helpers.checkf "cell" 1.0 (Grid.range_sum g ~i0:3 ~i1:3 ~j0:3 ~j1:3);
  Helpers.checkf "empty range" 0.0 (Grid.range_sum g ~i0:2 ~i1:1 ~j0:0 ~j1:3);
  Helpers.checkf "clamped" 4.0 (Grid.range_sum g ~i0:(-5) ~i1:99 ~j0:(-1) ~j1:99)

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_grid_errors () =
  expect_invalid (fun () -> Grid.create 0);
  let g = Grid.create 2 in
  expect_invalid (fun () -> Grid.add g 2 0);
  expect_invalid (fun () -> Grid.range_sum g ~i0:0 ~i1:1 ~j0:0 ~j1:1);
  Grid.seal g;
  expect_invalid (fun () -> Grid.add g 0 0)

(* ---------- Position histogram ---------- *)

let test_position_histogram () =
  let doc = Lazy.force Helpers.tiny_pers in
  let idx = Lazy.force Helpers.tiny_index in
  let names = Element_index.cols idx "name" in
  let h =
    Position_histogram.build ~grid:8 ~max_pos:(Document.max_pos doc) names
  in
  check ci "grid size" 8 (Position_histogram.grid_size h);
  Helpers.checkf "cardinality" 8.0 (Position_histogram.cardinality h);
  Helpers.checkf "total mass" 8.0
    (Position_histogram.count_in h ~i0:0 ~i1:7 ~j0:0 ~j1:7);
  let levels = Position_histogram.level_counts h in
  Helpers.checkf "level sum" 8.0 (Array.fold_left ( +. ) 0.0 levels);
  check cb "bucket in range" true (Position_histogram.bucket h 0 = 0)

(* ---------- Pair estimation ---------- *)

(* Exact number of (anc, desc) pairs by brute force. *)
let exact_pairs axis anc desc =
  Array.fold_left
    (fun acc a ->
      Array.fold_left
        (fun acc d -> if Axes.related axis ~anc:a ~desc:d then acc + 1 else acc)
        acc desc)
    0 anc

let pair_fixture tag_a tag_b =
  let doc = Lazy.force Helpers.pers_1k in
  let idx = Lazy.force Helpers.pers_1k_index in
  let max_pos = Document.max_pos doc in
  ( Position_histogram.build ~grid:32 ~max_pos (Element_index.cols idx tag_a),
    Position_histogram.build ~grid:32 ~max_pos (Element_index.cols idx tag_b),
    Helpers.nodes idx tag_a,
    Helpers.nodes idx tag_b )

let test_estimate_ad_reasonable () =
  let ha, hb, a, b = pair_fixture "manager" "employee" in
  let est = Estimator.ancestor_descendant ~anc:ha ~desc:hb in
  let exact = float_of_int (exact_pairs Axes.Descendant a b) in
  check cb "positive" true (est > 0.);
  check cb
    (Printf.sprintf "within 4x of exact (est=%.0f exact=%.0f)" est exact)
    true
    (est > exact /. 4.0 && est < exact *. 4.0)

let test_estimate_pc_le_ad () =
  let ha, hb, _, _ = pair_fixture "manager" "employee" in
  let ad = Estimator.ancestor_descendant ~anc:ha ~desc:hb in
  let pc = Estimator.parent_child ~anc:ha ~desc:hb in
  check cb "pc <= ad" true (pc <= ad +. 1e-9);
  check cb "pc >= 0" true (pc >= 0.)

let test_estimate_empty_side () =
  let doc = Lazy.force Helpers.pers_1k in
  let max_pos = Document.max_pos doc in
  let empty = Position_histogram.build ~grid:32 ~max_pos Cols.empty in
  let ha, _, _, _ = pair_fixture "manager" "employee" in
  Helpers.checkf "empty desc" 0.0 (Estimator.ancestor_descendant ~anc:ha ~desc:empty);
  Helpers.checkf "empty anc" 0.0 (Estimator.ancestor_descendant ~anc:empty ~desc:ha);
  Helpers.checkf "selectivity zero" 0.0
    (Estimator.selectivity Axes.Descendant ~anc:empty ~desc:ha)

let test_estimate_grid_mismatch () =
  let doc = Lazy.force Helpers.pers_1k in
  let max_pos = Document.max_pos doc in
  let h1 = Position_histogram.build ~grid:8 ~max_pos Cols.empty in
  let h2 = Position_histogram.build ~grid:16 ~max_pos Cols.empty in
  expect_invalid (fun () -> Estimator.ancestor_descendant ~anc:h1 ~desc:h2)

let test_selectivity_bounds () =
  let ha, hb, _, _ = pair_fixture "manager" "name" in
  List.iter
    (fun axis ->
      let s = Estimator.selectivity axis ~anc:ha ~desc:hb in
      check cb "in [0,1]" true (s >= 0.0 && s <= 1.0))
    [ Axes.Child; Axes.Descendant ]

(* ---------- Cluster cardinality ---------- *)

let test_cardinality_nodes () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let c = Cardinality.create (Stats_catalog.create ~grid:8 idx) p in
  Helpers.checkf "node 0 card" 3.0 (Cardinality.node_card c 0);
  Helpers.checkf "node 1 card" 3.0 (Cardinality.node_card c 1);
  Helpers.checkf "node 2 card" 8.0 (Cardinality.node_card c 2);
  Helpers.checkf "singleton cluster = node card" 3.0
    (Cardinality.cluster_card c 1)

let test_cardinality_cluster_vs_exact () =
  let idx = Lazy.force Helpers.pers_1k_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let c = Cardinality.create (Stats_catalog.create ~grid:32 idx) p in
  let est = Cardinality.cluster_card c 0b111 in
  let exact = float_of_int (Sjos_exec.Naive.cluster_count idx p 0b111) in
  check cb
    (Printf.sprintf "cluster est within 5x (est=%.0f exact=%.0f)" est exact)
    true
    (est > exact /. 5.0 && est < exact *. 5.0)

let test_cardinality_validation () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee(/name))" in
  let c = Cardinality.create (Stats_catalog.create ~grid:32 idx) p in
  expect_invalid (fun () -> Cardinality.cluster_card c 0);
  (* nodes 0 and 2 are not adjacent: not a connected cluster *)
  expect_invalid (fun () -> Cardinality.cluster_card c 0b101);
  check cb "connected" true (Cardinality.is_connected p 0b011);
  check cb "disconnected" false (Cardinality.is_connected p 0b101);
  check ci "root of full" 0 (Cardinality.cluster_root p 0b111);
  check ci "root of subtree" 1 (Cardinality.cluster_root p 0b110)

let test_cardinality_edges () =
  let idx = Lazy.force Helpers.tiny_index in
  let p = Helpers.pat "manager(//employee)" in
  let c = Cardinality.create (Stats_catalog.create ~grid:8 idx) p in
  match Pattern.edges p with
  | [ e ] ->
      let pairs = Cardinality.edge_pairs c e in
      check cb "pairs positive" true (pairs > 0.);
      let s = Cardinality.edge_selectivity c e in
      check cb "selectivity bounds" true (s >= 0. && s <= 1.);
      Helpers.checkf "pairs = sel * |A| * |B|" pairs (s *. 3.0 *. 3.0);
      Helpers.checkf "full mask" 3.0 (float_of_int (Cardinality.full_mask c))
  | _ -> Alcotest.fail "expected one edge"

(* ---------- the statistics catalog ---------- *)

(* Bit-for-bit float equality, printed in hex so a last-bit drift shows. *)
let bits = Alcotest.list (Alcotest.testable (Fmt.fmt "%h") Float.equal)

(* Every estimate a search can ask for: each edge's selectivity and pair
   count, then each connected cluster's cardinality. *)
let estimates c p =
  let edges =
    List.concat_map
      (fun e ->
        [ Cardinality.edge_selectivity c e; Cardinality.edge_pairs c e ])
      (Pattern.edges p)
  in
  let clusters = ref [] in
  for mask = Cardinality.full_mask c downto 1 do
    if Cardinality.is_connected p mask then
      clusters := Cardinality.cluster_card c mask :: !clusters
  done;
  edges @ !clusters

let fresh_estimates idx ~grid p =
  estimates (Cardinality.create (Stats_catalog.create ~grid idx) p) p

(* An edge's selectivity straight from the candidate arrays, as every
   query computed it before statistics were kept per database: level
   slices are grouped in a hash table and summed in its fold order. *)
let selected_selectivity idx ~grid p (e : Pattern.edge) =
  let max_pos = Document.max_pos (Element_index.document idx) in
  let nodes i = Candidate.select idx (Pattern.label p i) in
  let h nodes = Position_histogram.build ~grid ~max_pos nodes in
  match e.Pattern.axis with
  | Axes.Descendant ->
      Estimator.selectivity Axes.Descendant
        ~anc:(h (nodes e.Pattern.anc))
        ~desc:(h (nodes e.Pattern.desc))
  | Axes.Child ->
      let by_level i =
        let c = nodes i in
        let table = Hashtbl.create 16 in
        Array.iteri
          (fun r level ->
            match Hashtbl.find_opt table level with
            | Some l -> l := r :: !l
            | None -> Hashtbl.add table level (ref [ r ]))
          c.Cols.levels;
        (c, table)
      in
      let slice (c, _) l =
        let rows = Array.of_list (List.rev !l) in
        let col a = Array.map (Array.get a) rows in
        h
          {
            Cols.ids = col c.Cols.ids;
            starts = col c.Cols.starts;
            ends = col c.Cols.ends;
            levels = col c.Cols.levels;
          }
      in
      let desc = by_level e.Pattern.desc and anc = by_level e.Pattern.anc in
      let pairs =
        Hashtbl.fold
          (fun level a acc ->
            match Hashtbl.find_opt (snd desc) (level + 1) with
            | None -> acc
            | Some d ->
                acc
                +. Estimator.ancestor_descendant ~anc:(slice anc a)
                     ~desc:(slice desc d))
          (snd anc) 0.0
      in
      let ca = float_of_int (Cols.length (nodes e.Pattern.anc))
      and cd = float_of_int (Cols.length (nodes e.Pattern.desc)) in
      if ca <= 0.0 || cd <= 0.0 then 0.0
      else Float.min 1.0 (Float.max 0.0 (pairs /. (ca *. cd)))

(* [Shapes.generate] draws tags "a".."h" and wildcards.  Map the tags
   onto the document's own, and "h" onto an attribute label of the
   document, so that patterns have candidates. *)
let relabel doc p =
  let tags = Array.of_list (Document.tags doc) in
  let attr_label =
    match
      Array.find_opt
        (fun (n : Node.t) -> n.Node.attrs <> [])
        (Document.nodes doc)
    with
    | Some n ->
        { Candidate.any with
          tag = Some n.Node.tag; attr = Some (List.hd n.Node.attrs) }
    | None -> Candidate.of_tag tags.(0)
  in
  let label (spec : Candidate.spec) =
    match spec.Candidate.tag with
    | None -> spec
    | Some "h" -> attr_label
    | Some t ->
        let k = Char.code t.[0] - Char.code 'a' in
        Candidate.of_tag tags.(k * 5 mod Array.length tags)
  in
  let edge (e : Pattern.edge) =
    (e.Pattern.anc, e.Pattern.axis, e.Pattern.desc)
  in
  Pattern.create ?order_by:(Pattern.order_by p)
    ~labels:(Array.map label (Pattern.labels p))
    ~edges:(Array.of_list (List.map edge (Pattern.edges p)))
    ()

let datagen_indexes () =
  List.map
    (fun (name, doc) -> (name, doc, Element_index.build (Lazy.force doc)))
    [
      ("pers", Helpers.pers_1k);
      ("dblp", Helpers.dblp_1k);
      ("mbench", Helpers.mbench_1k);
    ]

let generated_patterns doc =
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun nodes ->
          List.map
            (fun seed -> relabel doc (Shapes.generate ~seed ~nodes shape))
            [ 1; 2; 3 ])
        [ 3; 5; 8 ])
    Shapes.all_gen_shapes

let test_catalog_equals_fresh () =
  List.iter
    (fun (name, doc, idx) ->
      let pats = generated_patterns (Lazy.force doc) in
      let has axis p =
        List.exists
          (fun (e : Pattern.edge) -> e.Pattern.axis = axis)
          (Pattern.edges p)
      in
      check cb (name ^ ": mixed axes drawn") true
        (List.exists (fun p -> has Axes.Child p && has Axes.Descendant p) pats);
      List.iter
        (fun grid ->
          (* one catalog shared by every pattern, as a database keeps it *)
          let shared = Stats_catalog.create ~grid idx in
          List.iter
            (fun p ->
              let msg =
                Printf.sprintf "%s grid %d %s" name grid (Pattern.to_string p)
              in
              let warm = Cardinality.create shared p in
              check bits msg (fresh_estimates idx ~grid p) (estimates warm p);
              let edges = Pattern.edges p in
              check bits (msg ^ ": edges from the candidates")
                (List.map (selected_selectivity idx ~grid p) edges)
                (List.map (Cardinality.edge_selectivity warm) edges))
            pats)
        [ 8; 32 ])
    (datagen_indexes ())

(* Several domains fill one catalog at once: every estimate equals the
   fresh one, and each histogram is built exactly once, so the items
   charged equal those of a serial fill. *)
let test_catalog_across_domains () =
  Helpers.with_pool 4 @@ fun pool ->
  List.iter
    (fun (name, doc, idx) ->
      let pats = Array.of_list (generated_patterns (Lazy.force doc)) in
      let fill run =
        let stats = Stats_catalog.create ~grid:32 idx in
        match
          Sjos_obs.Work.scoped (fun () ->
              run (Array.length pats) (fun i ->
                  estimates (Cardinality.create stats pats.(i)) pats.(i)))
        with
        | w, Ok r -> (w.Sjos_obs.Work.histogram_items, r)
        | _, Error e -> raise e
      in
      let serial_items, _ = fill Array.init in
      let items, pooled = fill (Sjos_par.Pool.run pool) in
      Array.iteri
        (fun i p ->
          check bits
            (Printf.sprintf "%s pattern %d" name i)
            (fresh_estimates idx ~grid:32 p) pooled.(i))
        pats;
      check cb (name ^ ": items charged") true (items > 0);
      check ci (name ^ ": each histogram built once") serial_items items)
    (datagen_indexes ())

let suite =
  [
    ("grid basics", `Quick, test_grid_basics);
    ("grid errors", `Quick, test_grid_errors);
    ("position histogram", `Quick, test_position_histogram);
    ("AD estimate near exact", `Quick, test_estimate_ad_reasonable);
    ("PC estimate below AD", `Quick, test_estimate_pc_le_ad);
    ("estimates with empty side", `Quick, test_estimate_empty_side);
    ("grid mismatch rejected", `Quick, test_estimate_grid_mismatch);
    ("selectivity bounds", `Quick, test_selectivity_bounds);
    ("cardinality of nodes", `Quick, test_cardinality_nodes);
    ("cluster estimate vs exact", `Quick, test_cardinality_cluster_vs_exact);
    ("cardinality validation", `Quick, test_cardinality_validation);
    ("edge pairs and selectivity", `Quick, test_cardinality_edges);
    ( "catalog estimates equal fresh estimates",
      `Quick,
      test_catalog_equals_fresh );
    ("catalog filled from several domains", `Quick, test_catalog_across_domains);
  ]
