open Sjos_xml
open Sjos_storage
open Sjos_datagen

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ---------- Rng ---------- *)

let test_rng_int () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    check cb "in range" true (v >= 0 && v < 7)
  done;
  (match Rng.int r 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bound 0 rejected")

let test_rng_float_bool () =
  let r = Rng.create 2 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    check cb "float range" true (f >= 0.0 && f < 1.0)
  done;
  let r2 = Rng.create 3 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool r2 then incr trues
  done;
  check cb "bool roughly balanced" true (!trues > 300 && !trues < 700)

let test_rng_deterministic () =
  let a = Rng.create 99 and b = Rng.create 99 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create 100 in
  check cb "different seed differs" true (Rng.next (Rng.create 99) <> Rng.next c)

let test_rng_pick_geometric () =
  let r = Rng.create 4 in
  for _ = 1 to 100 do
    let v = Rng.pick r [ 1; 2; 3 ] in
    check cb "picked member" true (List.mem v [ 1; 2; 3 ])
  done;
  (match Rng.pick r [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty pick rejected");
  for _ = 1 to 100 do
    let g = Rng.geometric r ~p:0.5 ~max:4 in
    check cb "geometric bounds" true (g >= 0 && g <= 4)
  done;
  check ci "p=0 is 0" 0 (Rng.geometric r ~p:0.0 ~max:10)

(* ---------- Generators ---------- *)

let close_to target actual =
  let t = float_of_int target and a = float_of_int actual in
  a > 0.5 *. t && a < 1.5 *. t

let test_generator_sizes () =
  List.iter
    (fun (name, doc, target) ->
      check cb
        (Printf.sprintf "%s size %d close to %d" name (Document.size doc) target)
        true
        (close_to target (Document.size doc)))
    [
      ("pers", Pers.generate ~seed:1 ~target_nodes:2000 (), 2000);
      ("dblp", Dblp.generate ~seed:1 ~target_nodes:2000 (), 2000);
      ("mbench", Mbench.generate ~seed:1 ~target_nodes:2000 (), 2000);
    ]

let test_generators_valid () =
  List.iter
    (fun doc ->
      match Document.validate doc with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [
      Pers.generate ~seed:5 ~target_nodes:500 ();
      Dblp.generate ~seed:5 ~target_nodes:500 ();
      Mbench.generate ~seed:5 ~target_nodes:500 ();
    ]

let test_generators_deterministic () =
  let d1 = Pers.generate ~seed:11 ~target_nodes:800 () in
  let d2 = Pers.generate ~seed:11 ~target_nodes:800 () in
  check cb "same seed same doc" true
    (Document.nodes d1 = Document.nodes d2);
  let d3 = Pers.generate ~seed:12 ~target_nodes:800 () in
  check cb "different seed differs" true (Document.nodes d1 <> Document.nodes d3)

let test_pers_structure () =
  let doc = Lazy.force Helpers.pers_1k in
  let idx = Lazy.force Helpers.pers_1k_index in
  check Alcotest.string "root" "company" (Document.root doc).Node.tag;
  List.iter
    (fun tag ->
      check cb (tag ^ " present") true (Element_index.cardinality idx tag > 0))
    [ "manager"; "employee"; "department"; "name"; "salary" ];
  (* recursion: some manager under another manager *)
  let managers = Helpers.nodes idx "manager" in
  let nested =
    Array.exists
      (fun m ->
        Array.exists (fun m' -> Axes.is_ancestor m' m) managers)
      managers
  in
  check cb "managers nest" true nested;
  check cb "reasonably deep" true (Document.max_level doc >= 5)

let test_dblp_structure () =
  let doc = Lazy.force Helpers.dblp_1k in
  let idx = Element_index.build doc in
  check Alcotest.string "root" "dblp" (Document.root doc).Node.tag;
  List.iter
    (fun tag ->
      check cb (tag ^ " present") true (Element_index.cardinality idx tag > 0))
    [ "article"; "inproceedings"; "author"; "title"; "year"; "cite" ];
  check cb "shallow" true (Document.max_level doc <= 4)

let test_mbench_structure () =
  let doc = Lazy.force Helpers.mbench_1k in
  let idx = Element_index.build doc in
  check cb "mostly eNest" true
    (Element_index.cardinality idx "eNest" > Document.size doc / 2);
  check cb "deep" true (Document.max_level doc >= 8);
  (* aLevel attribute equals the node's level *)
  Array.iter
    (fun (n : Node.t) ->
      match Node.attr n "aLevel" with
      | Some l -> check ci "aLevel = level" n.Node.level (int_of_string l)
      | None -> Alcotest.fail "eNest without aLevel")
    (Helpers.nodes idx "eNest");
  (* aUnique values are unique *)
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun (n : Node.t) ->
      let u = Option.get (Node.attr n "aUnique") in
      check cb "aUnique unique" false (Hashtbl.mem seen u);
      Hashtbl.add seen u ())
    (Helpers.nodes idx "eNest")

(* ---------- Folding ---------- *)

let test_folding_structure () =
  let base = Pers.generate ~seed:21 ~target_nodes:300 () in
  let folded = Folding.replicate base 3 in
  (match Document.validate folded with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check ci "size = 3n+1" ((3 * Document.size base) + 1) (Document.size folded);
  check Alcotest.string "fresh root" "folded" (Document.root folded).Node.tag;
  check ci "three copies" 3
    (List.length (Document.children folded (Document.root folded)))

let test_folding_scales_matches () =
  let base = Pers.generate ~seed:22 ~target_nodes:300 () in
  let p = Helpers.pat "manager(//employee(/name))" in
  let base_count = Sjos_exec.Naive.count (Element_index.build base) p in
  let folded = Folding.replicate base 4 in
  let folded_count = Sjos_exec.Naive.count (Element_index.build folded) p in
  check ci "matches scale linearly" (4 * base_count) folded_count

let test_folding_errors () =
  let base = Pers.generate ~seed:23 ~target_nodes:100 () in
  match Folding.replicate base 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "factor 0 rejected"

let test_generator_target_validation () =
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | (_ : Document.t) -> Alcotest.fail "tiny target rejected")
    [
      (fun () -> Pers.generate ~target_nodes:1 ());
      (fun () -> Dblp.generate ~target_nodes:1 ());
      (fun () -> Mbench.generate ~target_nodes:1 ());
    ]

let suite =
  [
    ("rng int bounds", `Quick, test_rng_int);
    ("rng float/bool", `Quick, test_rng_float_bool);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng pick/geometric", `Quick, test_rng_pick_geometric);
    ("generator sizes", `Quick, test_generator_sizes);
    ("generators produce valid documents", `Quick, test_generators_valid);
    ("generators deterministic", `Quick, test_generators_deterministic);
    ("pers structure", `Quick, test_pers_structure);
    ("dblp structure", `Quick, test_dblp_structure);
    ("mbench structure", `Quick, test_mbench_structure);
    ("folding structure", `Quick, test_folding_structure);
    ("folding scales matches", `Quick, test_folding_scales_matches);
    ("folding errors", `Quick, test_folding_errors);
    ("generator target validation", `Quick, test_generator_target_validation);
  ]
