open Sjos_xml
open Sjos_storage
open Sjos_pattern

(* The compiler's own failure; [compile] turns it into a structured
   parse error at its boundary, so it never escapes this module. *)
exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ---------- surface syntax ---------- *)

type step = Axes.axis * string
type source = Absolute of step list | Relative of string * step list

type item =
  | Element of string * item list
  | Hole of string * step list * bool
      (* variable, navigation steps, text()? — {$m/name/text()} navigates
         from the binding at construction time *)
  | Raw of string

type clauses = {
  fors : (string * source) list;
  wheres : (string * step list * string option) list;
  return : item;
}

(* ---------- lexer-ish cursor ---------- *)

type cursor = { src : string; mutable pos : int }

let eof c = c.pos >= String.length c.src
let peek c = if eof c then '\000' else c.src.[c.pos]

let peek_at c k =
  if c.pos + k >= String.length c.src then '\000' else c.src.[c.pos + k]

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while (not (eof c)) && (peek c = ' ' || peek c = '\n' || peek c = '\t') do
    advance c
  done

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let read_name c =
  skip_ws c;
  let start = c.pos in
  while (not (eof c)) && is_name_char (peek c) do
    advance c
  done;
  if c.pos = start then fail "expected a name at offset %d" c.pos;
  String.sub c.src start (c.pos - start)

let read_keyword c kw =
  skip_ws c;
  let n = String.length kw in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = kw
    && (c.pos + n = String.length c.src || not (is_name_char c.src.[c.pos + n]))
  then begin
    c.pos <- c.pos + n;
    true
  end
  else false

let expect_keyword c kw =
  if not (read_keyword c kw) then fail "expected '%s' at offset %d" kw c.pos

let read_var c =
  skip_ws c;
  if peek c <> '$' then fail "expected a variable at offset %d" c.pos;
  advance c;
  read_name c

let read_literal c =
  skip_ws c;
  if peek c <> '\'' then fail "expected a quoted literal at offset %d" c.pos;
  advance c;
  let start = c.pos in
  while (not (eof c)) && peek c <> '\'' do
    advance c
  done;
  if eof c then fail "unterminated literal";
  let s = String.sub c.src start (c.pos - start) in
  advance c;
  s

let read_steps c =
  let rec go acc =
    skip_ws c;
    if peek c = '/' then begin
      advance c;
      let axis =
        if peek c = '/' then begin
          advance c;
          Axes.Descendant
        end
        else Axes.Child
      in
      let name = read_name c in
      go ((axis, name) :: acc)
    end
    else List.rev acc
  in
  go []

(* ---------- parser ---------- *)

let parse_source c =
  skip_ws c;
  if peek c = '$' then begin
    let var = read_var c in
    let steps = read_steps c in
    if steps = [] then fail "a relative source needs at least one step";
    Relative (var, steps)
  end
  else begin
    let steps = read_steps c in
    if steps = [] then fail "an absolute source must start with '/' or '//'";
    Absolute steps
  end

let parse_condition c =
  let var = read_var c in
  let steps = read_steps c in
  skip_ws c;
  if peek c = '=' then begin
    advance c;
    let v = read_literal c in
    (var, steps, Some v)
  end
  else (var, steps, None)

let rec parse_item c =
  skip_ws c;
  if peek c = '<' then begin
    advance c;
    let tag = read_name c in
    skip_ws c;
    if peek c <> '>' then fail "expected '>' in constructor";
    advance c;
    let children = ref [] in
    let rec content () =
      if eof c then fail "unterminated element constructor"
      else if peek c = '<' && peek_at c 1 = '/' then begin
        advance c;
        advance c;
        let closing = read_name c in
        skip_ws c;
        if peek c <> '>' then fail "expected '>' in closing tag";
        advance c;
        if not (String.equal closing tag) then
          fail "mismatched </%s>, expected </%s>" closing tag
      end
      else begin
        children := parse_item c :: !children;
        content ()
      end
    in
    content ();
    Element (tag, List.rev !children)
  end
  else if peek c = '{' then begin
    advance c;
    let var = read_var c in
    let steps = read_steps c in
    skip_ws c;
    (* a trailing '()' turns the last step into the text() function *)
    let steps, text =
      if peek c = '(' then begin
        (match List.rev steps with
        | (Axes.Child, "text") :: rest ->
            if peek_at c 1 <> ')' then fail "expected () after text";
            advance c;
            advance c;
            (List.rev rest, true)
        | _ -> fail "only the text() function is supported in holes")
      end
      else (steps, false)
    in
    skip_ws c;
    if peek c <> '}' then fail "expected '}'";
    advance c;
    Hole (var, steps, text)
  end
  else begin
    let start = c.pos in
    while (not (eof c)) && peek c <> '<' && peek c <> '{' do
      advance c
    done;
    if c.pos = start then fail "unexpected character at offset %d" c.pos;
    Raw (String.trim (String.sub c.src start (c.pos - start)))
  end

let parse src =
  let c = { src; pos = 0 } in
  let fors = ref [] in
  expect_keyword c "for";
  let rec for_clauses () =
    let var = read_var c in
    expect_keyword c "in";
    let source = parse_source c in
    fors := (var, source) :: !fors;
    if read_keyword c "for" then for_clauses ()
  in
  for_clauses ();
  let wheres = ref [] in
  if read_keyword c "where" then begin
    let rec conds () =
      wheres := parse_condition c :: !wheres;
      if read_keyword c "and" then conds ()
    in
    conds ()
  end;
  expect_keyword c "return";
  let return = parse_item c in
  skip_ws c;
  if not (eof c) then fail "trailing input at offset %d" c.pos;
  { fors = List.rev !fors; wheres = List.rev !wheres; return }

(* ---------- compilation to a pattern tree ---------- *)

type compiled = { pattern : Pattern.t; bindings : (string * int) list }

type growing = {
  mutable labels : Candidate.spec list;  (* reversed *)
  mutable edges : (int * Axes.axis * int) list;
  mutable count : int;
}

let grow g spec =
  g.labels <- spec :: g.labels;
  g.count <- g.count + 1;
  g.count - 1

let attach g parent steps =
  List.fold_left
    (fun parent (axis, name) ->
      let idx = grow g (Candidate.of_tag name) in
      (match parent with
      | Some p -> g.edges <- (p, axis, idx) :: g.edges
      | None -> ());
      Some idx)
    parent steps
  |> Option.get

let set_text g idx value =
  g.labels <-
    List.mapi
      (fun i l ->
        if i = g.count - 1 - idx then { l with Candidate.text = Some value }
        else l)
      g.labels

let compile_clauses q =
  let g = { labels = []; edges = []; count = 0 } in
  let bindings = ref [] in
  let node_of var =
    match List.assoc_opt var !bindings with
    | Some i -> i
    | None -> fail "unbound variable $%s" var
  in
  List.iteri
    (fun i (var, source) ->
      if List.mem_assoc var !bindings then fail "duplicate variable $%s" var;
      let node =
        match source with
        | Absolute steps ->
            if i <> 0 then
              fail "only the first 'for' may use an absolute path";
            attach g None steps
        | Relative (base, steps) ->
            if i = 0 then fail "the first 'for' must use an absolute path";
            attach g (Some (node_of base)) steps
      in
      bindings := (var, node) :: !bindings)
    q.fors;
  List.iter
    (fun (var, steps, value) ->
      let base = node_of var in
      match (steps, value) with
      | [], Some v -> set_text g base v
      | [], None -> fail "a bare '$%s' condition is vacuous" var
      | steps, value -> (
          let last = attach g (Some base) steps in
          match value with Some v -> set_text g last v | None -> ()))
    q.wheres;
  let first_binding = snd (List.hd (List.rev !bindings)) in
  let pattern =
    Pattern.create ~order_by:first_binding
      ~labels:(Array.of_list (List.rev g.labels))
      ~edges:(Array.of_list (List.rev g.edges))
      ()
  in
  { pattern; bindings = List.rev !bindings }

(* ---------- evaluation ---------- *)

let rec text_content doc (n : Node.t) =
  List.fold_left
    (fun acc child -> acc ^ text_content doc child)
    n.Node.text
    (Document.children doc n)

(* Navigate [steps] from a node, XPath-style. *)
let navigate doc node steps =
  List.fold_left
    (fun nodes (axis, name) ->
      List.concat_map
        (fun n ->
          (match axis with
          | Axes.Child -> Document.children doc n
          | Axes.Descendant -> Document.descendants doc n)
          |> List.filter (fun (m : Node.t) -> String.equal m.Node.tag name))
        nodes)
    [ node ] steps

let constructor q compiled doc tuple builder =
  (* [check_item] has bound every variable at compile time *)
  let node_of var =
    Document.node doc
      (Sjos_exec.Tuple.get tuple (List.assoc var compiled.bindings))
  in
  let rec render = function
    | Raw "" -> ()
    | Raw s -> Builder.text builder s
    | Hole (var, steps, text) ->
        let targets = navigate doc (node_of var) steps in
        if text then
          Builder.text builder
            (String.concat "" (List.map (text_content doc) targets))
        else
          List.iter (Sjos_datagen.Folding.copy_subtree builder doc) targets
    | Element (tag, children) ->
        Builder.open_element builder tag;
        List.iter render children;
        Builder.close_element builder
  in
  render q.return

let rec check_item bindings = function
  | Raw _ -> ()
  | Hole (var, _, _) ->
      if not (List.mem_assoc var bindings) then
        fail "unbound variable $%s in return clause" var
  | Element (_, children) -> List.iter (check_item bindings) children

let compile src =
  let q, compiled =
    try
      let q = parse src in
      let compiled = compile_clauses q in
      check_item compiled.bindings q.return;
      (q, compiled)
    with Error message ->
      Sjos_guard.Error.fail
        (Sjos_guard.Error.Parse_error { input = src; message })
  in
  (compiled, fun doc tuple builder -> constructor q compiled doc tuple builder)

let run ?opts db src =
  let compiled, construct = compile src in
  let result = Database.run ?opts db compiled.pattern in
  let doc = Database.document db in
  let b = Builder.create () in
  Builder.open_element b "results";
  Array.iter
    (fun tuple -> construct doc tuple b)
    result.Database.exec.Sjos_exec.Executor.tuples;
  Builder.close_element b;
  Builder.finish b

let run_string ?opts db src = Serializer.to_string (run ?opts db src)
