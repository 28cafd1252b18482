open Sjos_xml

type spec = {
  tag : string option;
  attr : (string * string) option;
  text : string option;
}

let any = { tag = None; attr = None; text = None }
let of_tag tag = { tag = Some tag; attr = None; text = None }

let matches spec (n : Node.t) =
  (match spec.tag with Some t -> String.equal t n.Node.tag | None -> true)
  && (match spec.attr with
     | Some (k, v) -> Node.has_attr_value n k v
     | None -> true)
  && match spec.text with Some s -> String.equal s n.Node.text | None -> true

(* Single-pass count-and-fill: the filtered array is allocated at its
   exact size, with no intermediate lists. *)
let filter_nodes pred (base : Node.t array) =
  let n = Array.length base in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if pred (Array.unsafe_get base i) then incr count
  done;
  if !count = n then base
  else begin
    let out = Array.make !count base.(0) in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let node = Array.unsafe_get base i in
      if pred node then begin
        Array.unsafe_set out !j node;
        incr j
      end
    done;
    out
  end

let base_and_residual index spec =
  let base =
    match (spec.tag, spec.attr) with
    | Some tag, Some (attr, value) ->
        Element_index.lookup_attr index ~tag ~attr ~value
    | Some tag, None -> Element_index.lookup index tag
    | None, _ -> Document.nodes (Element_index.document index)
  in
  (* the attribute predicate is already satisfied when the secondary index
     answered; only residual predicates need filtering *)
  let residual =
    match spec.tag with
    | Some _ -> { spec with attr = None }
    | None -> spec
  in
  (base, residual)

let select index spec =
  let base, residual = base_and_residual index spec in
  if residual.attr = None && residual.text = None then base
  else filter_nodes (matches residual) base

let select_cols index spec =
  let base, residual = base_and_residual index spec in
  if residual.attr = None && residual.text = None then
    match spec.tag with
    | Some tag when spec.attr = None ->
        (* the common case hits the per-tag column cache *)
        Element_index.cols index tag
    | _ -> Cols.of_nodes base
  else Cols.of_nodes (filter_nodes (matches residual) base)

let is_pure_tag spec =
  match spec with
  | { tag = Some _; attr = None; text = None } -> true
  | _ -> false

let spec_to_string spec =
  let tag = Option.value spec.tag ~default:"*" in
  let attr =
    match spec.attr with
    | Some (k, v) -> Printf.sprintf "[@%s='%s']" k v
    | None -> ""
  in
  let text =
    match spec.text with Some s -> Printf.sprintf "[.='%s']" s | None -> ""
  in
  tag ^ attr ^ text
