open Sjos_xml

let check = Alcotest.check
let ci = Alcotest.int
let cs = Alcotest.string
let cb = Alcotest.bool

(* ---------- Builder ---------- *)

let test_builder_intervals () =
  let b = Builder.create () in
  Builder.open_element b "a";
  Builder.open_element b "b";
  Builder.close_element b;
  Builder.open_element b "c";
  Builder.open_element b "d";
  Builder.close_element b;
  Builder.close_element b;
  Builder.close_element b;
  let doc = Builder.finish b in
  check ci "four nodes" 4 (Document.size doc);
  let a = Document.node doc 0
  and bn = Document.node doc 1
  and c = Document.node doc 2
  and d = Document.node doc 3 in
  check cs "root tag" "a" a.Node.tag;
  check ci "a start" 0 a.Node.start_pos;
  check ci "b start" 1 bn.Node.start_pos;
  check ci "b end" 2 bn.Node.end_pos;
  check ci "c start" 3 c.Node.start_pos;
  check ci "d start" 4 d.Node.start_pos;
  check ci "d end" 5 d.Node.end_pos;
  check ci "c end" 6 c.Node.end_pos;
  check ci "a end" 7 a.Node.end_pos;
  check ci "a level" 0 a.Node.level;
  check ci "d level" 2 d.Node.level;
  check ci "d parent" 2 d.Node.parent;
  check ci "b parent" 0 bn.Node.parent

let test_builder_text_and_attrs () =
  let b = Builder.create () in
  Builder.open_element b ~attrs:[ ("k", "v"); ("x", "1") ] "root";
  Builder.text b "hello";
  Builder.text b " world";
  Builder.close_element b;
  let doc = Builder.finish b in
  let r = Document.root doc in
  check cs "text accumulates" "hello world" r.Node.text;
  check (Alcotest.option cs) "attr k" (Some "v") (Node.attr r "k");
  check (Alcotest.option cs) "attr missing" None (Node.attr r "nope");
  check cb "has_attr_value" true (Node.has_attr_value r "x" "1");
  check cb "has_attr_value wrong" false (Node.has_attr_value r "x" "2")

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_builder_errors () =
  expect_invalid (fun () ->
      let b = Builder.create () in
      Builder.close_element b);
  expect_invalid (fun () ->
      let b = Builder.create () in
      Builder.text b "x");
  expect_invalid (fun () ->
      let b = Builder.create () in
      Builder.open_element b "a";
      Builder.finish b);
  expect_invalid (fun () ->
      let b = Builder.create () in
      Builder.finish b);
  expect_invalid (fun () ->
      let b = Builder.create () in
      Builder.leaf b "a";
      Builder.open_element b "b")

let test_builder_leaf_depth () =
  let b = Builder.create () in
  Builder.open_element b "root";
  check ci "depth 1" 1 (Builder.depth b);
  Builder.leaf ~text:"t" b "kid";
  check ci "leaf leaves depth" 1 (Builder.depth b);
  Builder.close_element b;
  check ci "depth 0" 0 (Builder.depth b);
  let doc = Builder.finish b in
  check ci "two nodes" 2 (Document.size doc);
  check cs "leaf text" "t" (Document.node doc 1).Node.text

(* ---------- Document ---------- *)

let nested_doc () =
  Parser.parse_string
    "<a><b><c/><d/></b><e><f><g/></f></e></a>"

let test_document_navigation () =
  let doc = nested_doc () in
  let tags l = List.map (fun (n : Node.t) -> n.Node.tag) l in
  let a = Document.root doc in
  check (Alcotest.list cs) "children of root" [ "b"; "e" ]
    (tags (Document.children doc a));
  check (Alcotest.list cs) "descendants of root" [ "b"; "c"; "d"; "e"; "f"; "g" ]
    (tags (Document.descendants doc a));
  let g = Document.node doc 6 in
  check cs "g tag" "g" g.Node.tag;
  check (Alcotest.list cs) "ancestors of g" [ "f"; "e"; "a" ]
    (tags (Document.ancestors doc g));
  check cb "root has no parent" true (Document.parent doc a = None);
  check ci "max level" 3 (Document.max_level doc);
  check ci "count b" 1 (Document.count_tag doc "b");
  check ci "count zz" 0 (Document.count_tag doc "zz");
  check (Alcotest.list cs) "tags sorted" [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ]
    (Document.tags doc)

let test_document_validate () =
  let doc = nested_doc () in
  (match Document.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* corrupt a level *)
  let nodes = Array.map Fun.id (Document.nodes doc) in
  nodes.(3) <- { nodes.(3) with Node.level = 9 };
  let bad = Document.of_nodes nodes in
  check cb "corrupt level detected" true (Result.is_error (Document.validate bad));
  (* corrupt interval nesting *)
  let nodes2 = Array.map Fun.id (Document.nodes doc) in
  nodes2.(1) <- { nodes2.(1) with Node.end_pos = 100 };
  check cb "corrupt interval detected" true
    (Result.is_error (Document.validate (Document.of_nodes nodes2)))

let test_document_errors () =
  expect_invalid (fun () -> Document.node (nested_doc ()) 99);
  expect_invalid (fun () -> Document.node (nested_doc ()) (-1));
  expect_invalid (fun () ->
      Document.of_nodes
        [| { Node.id = 5; tag = "x"; start_pos = 0; end_pos = 1; level = 0;
             parent = -1; attrs = []; text = "" } |])

(* ---------- Parser ---------- *)

let test_parser_basic () =
  let doc = Parser.parse_string "<r a='1' b=\"two\"><x>hi</x><y/></r>" in
  check ci "three nodes" 3 (Document.size doc);
  let r = Document.root doc in
  check (Alcotest.option cs) "attr a" (Some "1") (Node.attr r "a");
  check (Alcotest.option cs) "attr b" (Some "two") (Node.attr r "b");
  check cs "text of x" "hi" (Document.node doc 1).Node.text

let test_parser_entities () =
  let doc = Parser.parse_string "<r>a&amp;b&lt;c&gt;d&#65;&#x42;</r>" in
  check cs "entities decoded" "a&b<c>dAB" (Document.root doc).Node.text;
  let doc2 = Parser.parse_string "<r k='x&quot;y'/>" in
  check (Alcotest.option cs) "entity in attr" (Some "x\"y")
    (Node.attr (Document.root doc2) "k")

let test_parser_misc_markup () =
  let doc =
    Parser.parse_string
      "<?xml version='1.0'?><!-- c --><r><!-- inner --><a/><?pi data?><![CDATA[x<y]]></r>"
  in
  check ci "nodes" 2 (Document.size doc);
  check cs "cdata text" "x<y" (Document.root doc).Node.text

let expect_parse_error s =
  match Parser.parse_string s with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail ("expected parse error for: " ^ s)

let test_parser_errors () =
  expect_parse_error "";
  expect_parse_error "<a><b></a></b>";
  expect_parse_error "<a>";
  expect_parse_error "<a></a><b></b>";
  expect_parse_error "<a foo></a>";
  expect_parse_error "<a>&unknown;</a>";
  expect_parse_error "plain text";
  check cb "error_to_string" true
    (Option.is_some
       (Parser.error_to_string
          (Parser.Parse_error { line = 1; col = 2; message = "m" })));
  check cb "error_to_string other" true
    (Option.is_none (Parser.error_to_string Exit))

let test_parse_serialize_roundtrip () =
  let original = Lazy.force Helpers.tiny_pers in
  let text = Serializer.to_string ~indent:false original in
  let reparsed = Parser.parse_string text in
  check ci "same size" (Document.size original) (Document.size reparsed);
  Array.iteri
    (fun i (n : Node.t) ->
      let m = Document.node reparsed i in
      check cs "tag" n.Node.tag m.Node.tag;
      check ci "start" n.Node.start_pos m.Node.start_pos;
      check ci "end" n.Node.end_pos m.Node.end_pos;
      check cs "text" n.Node.text m.Node.text)
    (Document.nodes original)

(* ---------- Serializer ---------- *)

let test_serializer_escaping () =
  check cs "text escape" "a&amp;b&lt;c&gt;" (Serializer.escape_text "a&b<c>");
  check cs "attr escape" "&quot;x&amp;" (Serializer.escape_attr "\"x&");
  let b = Builder.create () in
  Builder.open_element b ~attrs:[ ("k", "a\"b") ] "r";
  Builder.text b "1<2";
  Builder.close_element b;
  let doc = Builder.finish b in
  let s = Serializer.to_string ~indent:false doc in
  check cs "serialized" "<r k=\"a&quot;b\">1&lt;2</r>" s

let test_serializer_subtree () =
  let doc = nested_doc () in
  let e = Document.node doc 4 in
  check cs "subtree" "<e><f><g/></f></e>" (Serializer.subtree_to_string doc e)

let test_serializer_indent () =
  let doc = Parser.parse_string "<a><b/></a>" in
  let s = Serializer.to_string ~indent:true doc in
  check cb "has newline" true (String.contains s '\n')

(* ---------- Axes ---------- *)

let test_axes () =
  let doc = nested_doc () in
  let a = Document.node doc 0
  and b = Document.node doc 1
  and c = Document.node doc 2
  and e = Document.node doc 4
  and g = Document.node doc 6 in
  check cb "a anc of g" true (Axes.is_ancestor a g);
  check cb "a parent of b" true (Axes.is_parent a b);
  check cb "a not parent of g" false (Axes.is_parent a g);
  check cb "g desc of a" true (Axes.is_descendant g a);
  check cb "c child of b" true (Axes.is_child c b);
  check cb "b,e disjoint" true (Axes.disjoint b e);
  check cb "a,g not disjoint" false (Axes.disjoint a g);
  check cb "related child" true (Axes.related Axes.Child ~anc:a ~desc:b);
  check cb "related desc" true (Axes.related Axes.Descendant ~anc:a ~desc:g);
  check cb "related child deep" false (Axes.related Axes.Child ~anc:a ~desc:g);
  check cb "doc order" true (Axes.document_order a b < 0);
  check cs "axis strings" "/" (Axes.axis_to_string Axes.Child);
  check cs "axis strings 2" "//" (Axes.axis_to_string Axes.Descendant)

let test_node_helpers () =
  let doc = nested_doc () in
  let a = Document.node doc 0 in
  check ci "width" (a.Node.end_pos - a.Node.start_pos) (Node.width a);
  check cb "pp prints" true (String.length (Fmt.str "%a" Node.pp a) > 0)

(* ---------- max_pos, computed at load ---------- *)

(* The definition [Document.max_pos] had before it was taken in
   [of_nodes]'s id-check pass. *)
let max_pos_by_fold doc =
  Array.fold_left
    (fun m (n : Node.t) -> max m n.Node.end_pos)
    0 (Document.nodes doc)
  + 1

let test_max_pos_at_load () =
  let b = Builder.create () in
  Builder.open_element b "a";
  Builder.leaf b "b";
  Builder.close_element b;
  let docs =
    [
      ("built", Builder.finish b);
      ( "parsed",
        Parser.parse_string "<r><x a='1'><y/>text</x><x/><z><z><z/></z></z></r>" );
      ("pers", Sjos_datagen.Pers.generate ~seed:3 ~target_nodes:500 ());
      ("dblp", Sjos_datagen.Dblp.generate ~seed:4 ~target_nodes:500 ());
      ("mbench", Sjos_datagen.Mbench.generate ~seed:5 ~target_nodes:500 ());
      ("empty", Document.of_nodes [||]);
    ]
  in
  List.iter
    (fun (name, doc) ->
      check ci (name ^ ": max_pos = fold") (max_pos_by_fold doc)
        (Document.max_pos doc))
    docs;
  check ci "empty document: 1" 1 (Document.max_pos (Document.of_nodes [||]))

(* Ids are document order: a node that does not start after the one
   before it (a tie or a step back) is rejected while the ids are
   checked, naming both nodes. *)
let test_of_nodes_start_order () =
  let nodes = Document.nodes (nested_doc ()) in
  let with_start i s =
    let a = Array.copy nodes in
    a.(i) <- { a.(i) with Node.start_pos = s };
    a
  in
  ignore (Document.of_nodes (Array.copy nodes));
  List.iter
    (fun (what, a) ->
      match Document.of_nodes a with
      | exception Invalid_argument m ->
          check cb (what ^ ": message names the node") true
            (Helpers.contains m "node 2 starts at")
      | _ -> Alcotest.failf "%s: accepted" what)
    [
      ("tie", with_start 2 nodes.(1).Node.start_pos);
      ("step back", with_start 2 (nodes.(1).Node.start_pos - 1));
    ]

let suite =
  [
    ("builder intervals", `Quick, test_builder_intervals);
    ("builder text and attrs", `Quick, test_builder_text_and_attrs);
    ("builder errors", `Quick, test_builder_errors);
    ("builder leaf and depth", `Quick, test_builder_leaf_depth);
    ("document navigation", `Quick, test_document_navigation);
    ("document validate", `Quick, test_document_validate);
    ("document errors", `Quick, test_document_errors);
    ("parser basic", `Quick, test_parser_basic);
    ("parser entities", `Quick, test_parser_entities);
    ("parser misc markup", `Quick, test_parser_misc_markup);
    ("parser errors", `Quick, test_parser_errors);
    ("parse/serialize roundtrip", `Quick, test_parse_serialize_roundtrip);
    ("serializer escaping", `Quick, test_serializer_escaping);
    ("serializer subtree", `Quick, test_serializer_subtree);
    ("serializer indent", `Quick, test_serializer_indent);
    ("axes predicates", `Quick, test_axes);
    ("node helpers", `Quick, test_node_helpers);
    ("max_pos computed at load", `Quick, test_max_pos_at_load);
    ("of_nodes: starts increase with ids", `Quick, test_of_nodes_start_order);
  ]
