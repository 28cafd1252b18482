let check_compatible anc desc =
  if Position_histogram.grid_size anc <> Position_histogram.grid_size desc then
    invalid_arg "Estimator: histograms have different grid sizes"

let ancestor_descendant ~anc ~desc =
  check_compatible anc desc;
  let g = Position_histogram.grid_size anc in
  let total = ref 0.0 in
  for i = 0 to g - 1 do
    (* start positions precede end positions, so only j >= i is populated *)
    for j = i to g - 1 do
      let ca = Position_histogram.cell anc i j in
      if ca > 0.0 then begin
        let inner =
          Position_histogram.count_in desc ~i0:(i + 1) ~i1:(g - 1) ~j0:0
            ~j1:(j - 1)
        in
        let shared_start =
          0.5 *. Position_histogram.count_in desc ~i0:i ~i1:i ~j0:0 ~j1:(j - 1)
        in
        let shared_end =
          0.5
          *. Position_histogram.count_in desc ~i0:(i + 1) ~i1:(g - 1) ~j0:j
               ~j1:j
        in
        (* Same-cell containment: instead of a blind 1/4, use the summed
           width mass of the ancestor cell — a node of width w contains a
           uniformly placed narrower interval with probability (w/S)^2. *)
        let diagonal =
          Position_histogram.cell desc i j
          *. Position_histogram.containment_mass anc i j /. Float.max ca 1.0
        in
        total := !total +. (ca *. (inner +. shared_start +. shared_end +. diagonal))
      end
    done
  done;
  !total

(* Fraction of level-compatible (a, d) pairs that are exactly one level
   apart: Sum_l A[l]*D[l+1]  /  Sum_l A[l] * Sum_{m>l} D[m]. *)
let level_factor ~anc ~desc =
  let la = Position_histogram.level_counts anc in
  let ld = Position_histogram.level_counts desc in
  let deeper_than l =
    let acc = ref 0.0 in
    for m = l + 1 to Array.length ld - 1 do
      acc := !acc +. ld.(m)
    done;
    !acc
  in
  let ad = ref 0.0 and pc = ref 0.0 in
  Array.iteri
    (fun l a ->
      if a > 0.0 then begin
        ad := !ad +. (a *. deeper_than l);
        if l + 1 < Array.length ld then pc := !pc +. (a *. ld.(l + 1))
      end)
    la;
  if !ad <= 0.0 then 0.0 else !pc /. !ad

let parent_child ~anc ~desc =
  ancestor_descendant ~anc ~desc *. level_factor ~anc ~desc

(* Slices come out in the [Hashtbl.fold] order of the level table, and
   [parent_child_by_level] sums in that order: float addition is not
   associative, so a different order would move estimates in their last
   bits. *)
let level_slices ~grid ~max_pos (c : Sjos_xml.Cols.t) =
  (* a level enters the table at its first row, which fixes the fold
     order *)
  let table : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun l -> if not (Hashtbl.mem table l) then Hashtbl.add table l ())
    c.Sjos_xml.Cols.levels;
  List.rev
    (Hashtbl.fold
       (fun level () acc ->
         ( level,
           Position_histogram.build ~grid ~max_pos
             (Sjos_xml.Cols.filter
                (fun i -> c.Sjos_xml.Cols.levels.(i) = level)
                c) )
         :: acc)
       table [])

let parent_child_by_level ~anc ~desc =
  List.fold_left
    (fun acc (level, anc_slice) ->
      match List.assoc_opt (level + 1) desc with
      | None -> acc
      | Some desc_slice ->
          acc +. ancestor_descendant ~anc:anc_slice ~desc:desc_slice)
    0.0 anc

let pairs axis ~anc ~desc =
  match axis with
  | Sjos_xml.Axes.Descendant -> ancestor_descendant ~anc ~desc
  | Sjos_xml.Axes.Child -> parent_child ~anc ~desc

let selectivity axis ~anc ~desc =
  let ca = Position_histogram.cardinality anc in
  let cd = Position_histogram.cardinality desc in
  if ca <= 0.0 || cd <= 0.0 then 0.0
  else Float.min 1.0 (Float.max 0.0 (pairs axis ~anc ~desc /. (ca *. cd)))
