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

(* A tag's candidates come from the index (its attribute cache answers
   an attribute predicate); a text predicate, or any predicate on the
   wildcard, filters those rows on every request. *)
let select index spec =
  let doc = Element_index.document index in
  let filter keep (c : Cols.t) =
    Cols.filter (fun i -> keep (Document.node doc c.Cols.ids.(i))) c
  in
  match spec with
  | { tag = None; attr = None; text = None } -> Document.positions doc
  | { tag = None; _ } -> filter (matches spec) (Document.positions doc)
  | { tag = Some tag; attr; text } -> (
      let base =
        match attr with
        | None -> Element_index.cols index tag
        | Some (attr, value) -> Element_index.attr_cols index ~tag ~attr ~value
      in
      match text with
      | None -> base
      | Some s -> filter (fun n -> String.equal s n.Node.text) base)

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
