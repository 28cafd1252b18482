open Sjos_xml
open Sjos_storage

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let doc () = Lazy.force Helpers.tiny_pers
let index () = Lazy.force Helpers.tiny_index

let test_index_lookup () =
  let idx = index () in
  check ci "managers" 3 (Element_index.cardinality idx "manager");
  check ci "employees" 3 (Element_index.cardinality idx "employee");
  check ci "departments" 2 (Element_index.cardinality idx "department");
  check ci "names" 8 (Element_index.cardinality idx "name");
  check ci "unknown" 0 (Element_index.cardinality idx "nope");
  check ci "total" (Document.size (doc ())) (Element_index.total_nodes idx)

let test_index_sorted () =
  let idx = index () in
  List.iter
    (fun tag ->
      let starts = (Element_index.cols idx tag).Cols.starts in
      Array.iteri
        (fun i s ->
          if i > 0 then check cb "sorted by start" true (starts.(i - 1) < s))
        starts)
    (Element_index.tags idx)

let test_index_tags () =
  let idx = index () in
  check (Alcotest.list Alcotest.string) "tags"
    [ "company"; "department"; "employee"; "manager"; "name" ]
    (Element_index.tags idx)

let test_candidate_tag () =
  let idx = index () in
  let spec = Candidate.of_tag "manager" in
  check ci "managers" 3 (Cols.length (Candidate.select idx spec));
  check ci "wildcard = all" (Document.size (doc ()))
    (Cols.length (Candidate.select idx Candidate.any))

let test_candidate_text () =
  let idx = index () in
  let spec = { (Candidate.of_tag "name") with Candidate.text = Some "ann" } in
  let hits = Candidate.select idx spec in
  check ci "one ann" 1 (Cols.length hits);
  check Alcotest.string "text matches" "ann"
    (Document.node (doc ()) hits.Cols.ids.(0)).Node.text

let test_candidate_attr () =
  let d =
    Parser.parse_string "<r><x k='1'/><x k='2'/><x k='1'><y/></x></r>"
  in
  let idx = Element_index.build d in
  let spec = { (Candidate.of_tag "x") with Candidate.attr = Some ("k", "1") } in
  check ci "two k=1" 2 (Cols.length (Candidate.select idx spec));
  let both =
    { Candidate.tag = None; attr = Some ("k", "2"); text = None }
  in
  check ci "wildcard with attr" 1 (Cols.length (Candidate.select idx both))

let test_candidate_matches () =
  let d = Parser.parse_string "<r><x k='1'>t</x></r>" in
  let x = Document.node d 1 in
  check cb "tag" true (Candidate.matches (Candidate.of_tag "x") x);
  check cb "wrong tag" false (Candidate.matches (Candidate.of_tag "y") x);
  check cb "attr" true
    (Candidate.matches
       { Candidate.tag = Some "x"; attr = Some ("k", "1"); text = None }
       x);
  check cb "attr wrong" false
    (Candidate.matches
       { Candidate.tag = Some "x"; attr = Some ("k", "2"); text = None }
       x);
  check cb "text" true
    (Candidate.matches
       { Candidate.tag = None; attr = None; text = Some "t" }
       x)

let test_candidate_to_string () =
  check Alcotest.string "plain" "manager"
    (Candidate.spec_to_string (Candidate.of_tag "manager"));
  check Alcotest.string "wildcard" "*" (Candidate.spec_to_string Candidate.any);
  check Alcotest.string "full" "x[@k='v'][.='t']"
    (Candidate.spec_to_string
       { Candidate.tag = Some "x"; attr = Some ("k", "v"); text = Some "t" })

let test_stats () =
  let s = Stats.compute (doc ()) in
  check ci "node count" 17 s.Stats.node_count;
  check ci "distinct tags" 5 s.Stats.distinct_tags;
  check ci "max depth" 4 s.Stats.max_depth;
  check ci "leaves" 8 s.Stats.leaf_count;
  check cb "avg depth positive" true (s.Stats.avg_depth > 0.);
  check cb "avg fanout positive" true (s.Stats.avg_fanout > 1.);
  (match s.Stats.tag_counts with
  | (top, count) :: _ ->
      check Alcotest.string "most frequent" "name" top;
      check ci "count" 8 count
  | [] -> Alcotest.fail "no tag counts");
  check cb "pp prints" true (String.length (Fmt.str "%a" Stats.pp s) > 0)

let test_stats_single () =
  let s = Stats.compute (Parser.parse_string "<only/>") in
  check ci "one node" 1 s.Stats.node_count;
  check ci "no depth" 0 s.Stats.max_depth;
  check ci "one leaf" 1 s.Stats.leaf_count;
  Helpers.checkf "fanout zero" 0.0 s.Stats.avg_fanout

(* Queries name attributes and values the document does not hold: the
   index must not grow by one structure per name or value a client
   invents, so its reachable size after warming is its size for good. *)
let test_index_growth_bounded () =
  let open Sjos_engine in
  let db =
    Database.of_document
      (Sjos_datagen.Mbench.generate ~seed:11 ~target_nodes:600 ())
  in
  Database.warm db;
  let words () = Obj.reachable_words (Obj.repr (Database.index db)) in
  let before = words () in
  let run q = ignore (Database.run db (Helpers.pat q)) in
  for i = 0 to 1999 do
    run (Printf.sprintf "eNest[@x%d='1']" i)
  done;
  for i = 0 to 1999 do
    run (Printf.sprintf "eNest[@aLevel='v%d']" i)
  done;
  check ci "index reachable words" before (words ())

let suite =
  [
    ("index lookup", `Quick, test_index_lookup);
    ("index sorted", `Quick, test_index_sorted);
    ("index tags", `Quick, test_index_tags);
    ("candidate by tag", `Quick, test_candidate_tag);
    ("candidate by text", `Quick, test_candidate_text);
    ("candidate by attr", `Quick, test_candidate_attr);
    ("candidate matches", `Quick, test_candidate_matches);
    ("candidate to_string", `Quick, test_candidate_to_string);
    ("stats", `Quick, test_stats);
    ("stats single node", `Quick, test_stats_single);
    ("index does not grow with absent names", `Quick, test_index_growth_bounded);
  ]
