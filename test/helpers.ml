(* Shared fixtures and utilities for the test suites, and the one source
   of test randomness: every randomized test derives its stream from
   [seed], so a failure replays from the single SJOS_SEED value. *)

open Sjos_xml
open Sjos_storage
open Sjos_pattern
open Sjos_exec
module Rng = Sjos_datagen.Rng
module Work = Sjos_obs.Work
module Pool = Sjos_par.Pool

(* ---------- the seed ---------- *)

(* SJOS_SEED (default 7).  A value that is not an integer stops the run
   instead of silently testing the default. *)
let seed =
  match Sys.getenv_opt "SJOS_SEED" with
  | None | Some "" -> 7
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None ->
          Printf.eprintf "SJOS_SEED=%S is not an integer\n%!" s;
          exit 2)

(* A small personnel document with known structure, used throughout:

   <company>
     <manager>                          id 1
       <name>ann</name>                 id 2
       <employee><name>bob</name></employee>      ids 3,4
       <manager>                        id 5
         <name>cid</name>               id 6
         <department><name>sales</name></department>  ids 7,8
         <employee><name>dan</name></employee>        ids 9,10
       </manager>
       <department><name>ops</name></department>      ids 11,12
     </manager>
     <manager>                          id 13
       <name>eve</name>                 id 14
       <employee><name>fay</name></employee>          ids 15,16
     </manager>
   </company> *)
let tiny_pers_xml =
  "<company><manager><name>ann</name><employee><name>bob</name></employee>\
   <manager><name>cid</name><department><name>sales</name></department>\
   <employee><name>dan</name></employee></manager>\
   <department><name>ops</name></department></manager>\
   <manager><name>eve</name><employee><name>fay</name></employee></manager>\
   </company>"

let tiny_pers = lazy (Parser.parse_string tiny_pers_xml)
let tiny_index = lazy (Element_index.build (Lazy.force tiny_pers))

(* Deterministic generated documents, shared across suites to amortize
   generation cost. *)
let pers_1k = lazy (Sjos_datagen.Pers.generate ~seed:7 ~target_nodes:1000 ())
let pers_1k_index = lazy (Element_index.build (Lazy.force pers_1k))
let dblp_1k = lazy (Sjos_datagen.Dblp.generate ~seed:8 ~target_nodes:1000 ())
let mbench_1k = lazy (Sjos_datagen.Mbench.generate ~seed:9 ~target_nodes:1000 ())

let pat s = Parse.pattern s

(* Compare two match-sets regardless of order. *)
let sorted_tuples l =
  List.sort compare (List.map Array.to_list l)

let check_same_matches msg expected actual =
  Alcotest.(check (list (list int)))
    msg (sorted_tuples expected) (sorted_tuples actual)

let exact_provider index p = Sjos_exec.Naive.exact_provider index p

let check_float = Alcotest.(check (float 1e-9))
let checkf msg a b = Alcotest.(check (float 1e-6)) msg a b

(* Run one optimizer algorithm against the tiny fixture. *)
let optimize_tiny ?(provider_of = exact_provider) algorithm p =
  let index = Lazy.force tiny_index in
  Sjos_core.Optimizer.optimize ~provider:(provider_of index p) algorithm p

(* A fresh search through the database, never served from the plan
   cache, so the result's work is the true search cost. *)
let cold_result ?algorithm ?engine db p =
  let open Sjos_engine in
  Database.prepared_result
    (Database.prepare
       ~opts:(Query_opts.make ?algorithm ?engine ~use_cache:false ())
       db p)

(* A QCheck property drawing from its own generator state seeded with
   [seed]: results depend on neither test order nor qcheck's own seed. *)
let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck2.Test.make ~count ?print ~name gen prop)

(* Substring test (Stdlib has none). *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

(* ---------- random documents and patterns ---------- *)

let tags = [| "a"; "b"; "c"; "d" |]
let random_label rng = Candidate.of_tag tags.(Rng.int rng (Array.length tags))
let random_axis rng = if Rng.bool rng then Axes.Child else Axes.Descendant

(* A random document of at most 30-120 elements over a tiny tag
   alphabet: bushy and nested enough that about half of the random
   patterns below have matches.  [decorated] gives each element up to
   two of the attributes [k], [m] (values "1"-"3") and a text of "x",
   "y" or none, drawn from a second stream, so the shape is the same as
   without. *)
let attr_names = [| "k"; "m" |]
let attr_values = [| "1"; "2"; "3" |]
let texts = [| "x"; "y" |]

let random_doc ?(decorated = false) seed =
  let rng = Rng.create seed in
  let deco = Rng.create ((seed * 7) + 3) in
  let pick a = a.(Rng.int deco (Array.length a)) in
  let b = Builder.create () in
  let budget = ref (30 + Rng.int rng 90) in
  let rec node depth =
    decr budget;
    let tag = tags.(Rng.int rng (Array.length tags)) in
    if decorated then begin
      let attrs =
        List.filter_map
          (fun name ->
            if Rng.bool deco then Some (name, pick attr_values) else None)
          (Array.to_list attr_names)
      in
      Builder.open_element b ~attrs tag;
      if Rng.bool deco then Builder.text b (pick texts)
    end
    else Builder.open_element b tag;
    let kids = if depth >= 6 then 0 else Rng.geometric rng ~p:0.75 ~max:4 in
    for _ = 1 to kids do
      if !budget > 0 then node (depth + 1)
    done;
    Builder.close_element b
  in
  node 0;
  Builder.finish b

(* A random pattern tree with 2-5 nodes over the same alphabet. *)
let random_pattern seed =
  let rng = Rng.create ((seed * 31) + 17) in
  let n = 2 + Rng.int rng 4 in
  let labels = Array.init n (fun _ -> random_label rng) in
  let edges =
    Array.init (n - 1) (fun i ->
        let child = i + 1 in
        (Rng.int rng child, random_axis rng, child))
  in
  Pattern.create ~labels ~edges ()

(* One generated document per data set, each from its own offset. *)
let docs_under_test seed =
  [
    ("pers", Sjos_datagen.Pers.generate ~seed ~target_nodes:600 ());
    ("dblp", Sjos_datagen.Dblp.generate ~seed:(seed + 1) ~target_nodes:600 ());
    ( "mbench",
      Sjos_datagen.Mbench.generate ~seed:(seed + 2) ~target_nodes:600 () );
  ]

(* ---------- kernels and pools ---------- *)

(* A tag's candidate ids, and the same candidates as node records. *)
let ids idx tag = (Element_index.cols idx tag).Cols.ids

let nodes idx tag =
  Array.map (Document.node (Element_index.document idx)) (ids idx tag)

let scan idx tag slot width ~work =
  Operators.index_scan ~work ~width ~slot (ids idx tag)

let with_pool n f =
  let p = Pool.create ~domains:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* ---------- checkers ---------- *)

(* Same tuples in the same order. *)
let check_same_tuple_seq msg (expected : Tuple.t array) (actual : Tuple.t array)
    =
  Alcotest.(check int) (msg ^ ": length") (Array.length expected)
    (Array.length actual);
  Array.iteri
    (fun i t ->
      if not (Tuple.equal t actual.(i)) then
        Alcotest.failf "%s: tuple %d differs: %s vs %s" msg i
          (Tuple.to_string t)
          (Tuple.to_string actual.(i)))
    expected

(* Every counter, [sort_cost] included; a mismatch names the counter. *)
let check_work_equal msg (a : Work.t) (b : Work.t) =
  List.iter2
    (fun (name, av) (_, bv) -> Alcotest.(check int) (msg ^ ": " ^ name) av bv)
    (Work.fields a) (Work.fields b);
  Alcotest.(check bool) (msg ^ ": sort_cost") true
    (Float.equal a.Work.sort_cost b.Work.sort_cost)
