open Sjos_xml

type t = {
  doc : Document.t;
  by_tag : (string, Cols.t) Hashtbl.t;  (* immutable after [build] *)
  (* (tag, attr, value) -> the non-empty selection; filled on first use *)
  by_attr : (string * string * string, Cols.t) Hashtbl.t;
  (* guards [by_attr]: a Hashtbl mutated while another domain probes it
     is a real race (resize moves buckets).  [by_tag] needs none. *)
  attr_m : Mutex.t;
}

(* Two passes over the document: the first counts each tag, the second
   writes every element into its tag's exact-size columns at the tag's
   fill cursor.  Pre-order iteration yields nodes sorted by start
   position, so each tag's rows come out in document order. *)
let build doc =
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  Document.iter
    (fun n ->
      match Hashtbl.find_opt counts n.Node.tag with
      | Some k -> incr k
      | None -> Hashtbl.add counts n.Node.tag (ref 1))
    doc;
  let fill = Hashtbl.create (Hashtbl.length counts) in
  Hashtbl.iter
    (fun tag k ->
      let col () = Array.make !k 0 in
      Hashtbl.replace fill tag
        ( { Cols.ids = col (); starts = col (); ends = col (); levels = col () },
          ref 0 ))
    counts;
  Document.iter
    (fun n ->
      let c, k = Hashtbl.find fill n.Node.tag in
      let i = !k in
      Array.unsafe_set c.Cols.ids i n.Node.id;
      Array.unsafe_set c.Cols.starts i n.Node.start_pos;
      Array.unsafe_set c.Cols.ends i n.Node.end_pos;
      Array.unsafe_set c.Cols.levels i n.Node.level;
      k := i + 1)
    doc;
  let by_tag = Hashtbl.create (Hashtbl.length fill) in
  Hashtbl.iter (fun tag (c, _) -> Hashtbl.replace by_tag tag c) fill;
  { doc; by_tag; by_attr = Hashtbl.create 16; attr_m = Mutex.create () }

let cols t tag =
  match Hashtbl.find_opt t.by_tag tag with Some c -> c | None -> Cols.empty

let attr_cols t ~tag ~attr ~value =
  Mutex.protect t.attr_m (fun () ->
      let key = (tag, attr, value) in
      match Hashtbl.find_opt t.by_attr key with
      | Some c -> c
      | None ->
          let base = cols t tag in
          let c =
            Cols.filter
              (fun i ->
                Node.has_attr_value
                  (Document.node t.doc base.Cols.ids.(i))
                  attr value)
              base
          in
          if Cols.length c > 0 then Hashtbl.replace t.by_attr key c;
          c)

let cardinality t tag = Cols.length (cols t tag)

let tags t =
  Hashtbl.fold (fun tag _ acc -> tag :: acc) t.by_tag [] |> List.sort compare

let document t = t.doc
let total_nodes t = Document.size t.doc
