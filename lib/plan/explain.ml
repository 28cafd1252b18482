open Sjos_xml
open Sjos_storage
open Sjos_pattern

let mask_names pat mask =
  let rec go i acc =
    if 1 lsl i > mask then List.rev acc
    else if mask land (1 lsl i) <> 0 then go (i + 1) (Pattern.name pat i :: acc)
    else go (i + 1) acc
  in
  String.concat "," (go 0 [])

let describe pat = function
  | Plan.Index_scan i ->
      Printf.sprintf "IdxScan %s (%s)" (Pattern.name pat i)
        (Candidate.spec_to_string (Pattern.label pat i))
  | Plan.Holistic { mask; order; paths } ->
      Printf.sprintf "TwigStack {%s} (%d paths) -> ordered by %s"
        (mask_names pat mask) (List.length paths) (Pattern.name pat order)
  | Plan.Sort { by; _ } -> Printf.sprintf "Sort by %s" (Pattern.name pat by)
  | Plan.Structural_join { edge; algo; _ } as op ->
      Printf.sprintf "%s %s%s%s -> ordered by %s" (Plan.algo_to_string algo)
        (Pattern.name pat edge.Pattern.anc)
        (Axes.axis_to_string edge.Pattern.axis)
        (Pattern.name pat edge.Pattern.desc)
        (Pattern.name pat (Plan.ordered_by op))

let render annotate pat plan =
  let buf = Buffer.create 256 in
  let rec emit prefix plan =
    Buffer.add_string buf prefix;
    Buffer.add_string buf (describe pat plan);
    Buffer.add_string buf (annotate plan);
    Buffer.add_char buf '\n';
    let child = prefix ^ "  " in
    match plan with
    | Plan.Index_scan _ | Plan.Holistic _ -> ()
    | Plan.Sort { input; _ } -> emit child input
    | Plan.Structural_join { anc_side; desc_side; _ } ->
        emit child anc_side;
        emit child desc_side
  in
  emit "" plan;
  Buffer.contents buf

let to_string pat plan = render (fun _ -> "") pat plan

let with_costs factors provider pat plan =
  let annotate op =
    let card = provider.Costing.cluster_card (Plan.nodes_mask op) in
    Printf.sprintf "  [card~%.0f cost~%.1f]" card
      (Costing.operator_cost factors provider op)
  in
  render annotate pat plan

(* ---------- EXPLAIN ANALYZE ---------- *)

type measured = {
  mplan : Plan.t;
  rows : int;
  work : Sjos_obs.Work.t;
  seconds : float;
  inputs : measured list;
}

type analysis_row = {
  op : Plan.t;
  depth : int;
  est_rows : float;
  actual_rows : int;
  est_units : float;
  actual_units : float;
  q_error : float;
  seconds : float;
}

(* Moerkotte's q-error, made total: both sides are clamped to >= 1 so a
   zero on either side reads as "off by the other side's magnitude" and
   exact zero-vs-zero is a perfect 1.0. *)
let q_error ~est ~actual =
  let e = Float.max est 1.0 and a = Float.max actual 1.0 in
  Float.max (e /. a) (a /. e)

let analyze factors provider _pat measured =
  let rec walk depth m acc =
    let est_rows = provider.Costing.cluster_card (Plan.nodes_mask m.mplan) in
    let row =
      {
        op = m.mplan;
        depth;
        est_rows;
        actual_rows = m.rows;
        est_units = Costing.operator_cost factors provider m.mplan;
        actual_units = Sjos_cost.Cost_model.cost_units factors m.work;
        q_error = q_error ~est:est_rows ~actual:(float_of_int m.rows);
        seconds = m.seconds;
      }
    in
    List.fold_left (fun acc i -> walk (depth + 1) i acc) (row :: acc) m.inputs
  in
  List.rev (walk 0 measured [])

let analyze_to_string pat rows =
  let buf = Buffer.create 512 in
  let col_op = 46 in
  Buffer.add_string buf
    (Printf.sprintf "%-*s %10s %10s %7s %12s %12s %10s\n" col_op "operator"
       "est.rows" "act.rows" "q-err" "est.units" "act.units" "time(ms)");
  List.iter
    (fun r ->
      let label = String.make (2 * r.depth) ' ' ^ describe pat r.op in
      let label =
        if String.length label > col_op then String.sub label 0 col_op else label
      in
      Buffer.add_string buf
        (Printf.sprintf "%-*s %10.0f %10d %7.2f %12.1f %12.1f %10.3f\n" col_op
           label r.est_rows r.actual_rows r.q_error r.est_units r.actual_units
           (r.seconds *. 1e3)))
    rows;
  Buffer.contents buf

let analysis_to_json pat rows =
  Sjos_obs.Json.List
    (List.map
       (fun r ->
         Sjos_obs.Json.Obj
           [
             ("operator", Sjos_obs.Json.Str (describe pat r.op));
             ("depth", Sjos_obs.Json.Int r.depth);
             ("est_rows", Sjos_obs.Json.Float r.est_rows);
             ("actual_rows", Sjos_obs.Json.Int r.actual_rows);
             ("q_error", Sjos_obs.Json.Float r.q_error);
             ("est_cost_units", Sjos_obs.Json.Float r.est_units);
             ("actual_cost_units", Sjos_obs.Json.Float r.actual_units);
             ("seconds", Sjos_obs.Json.Float r.seconds);
           ])
       rows)

let one_line pat plan =
  let buf = Buffer.create 64 in
  let rec emit = function
    | Plan.Index_scan i -> Buffer.add_string buf (Pattern.name pat i)
    | Plan.Holistic { mask; _ } ->
        Buffer.add_string buf "twig{";
        Buffer.add_string buf (mask_names pat mask);
        Buffer.add_char buf '}'
    | Plan.Sort { input; by } ->
        Buffer.add_string buf "sort[";
        Buffer.add_string buf (Pattern.name pat by);
        Buffer.add_string buf "](";
        emit input;
        Buffer.add_char buf ')'
    | Plan.Structural_join { anc_side; desc_side; algo; _ } ->
        Buffer.add_char buf '(';
        emit anc_side;
        Buffer.add_string buf
          (match algo with
          | Plan.Stack_tree_anc -> " anc "
          | Plan.Stack_tree_desc -> " desc ");
        emit desc_side;
        Buffer.add_char buf ')'
  in
  emit plan;
  Buffer.contents buf
