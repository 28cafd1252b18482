open Sjos_xml

type t = {
  grid : Grid.t;
  diag_mass : float array;
      (* row-major g*g; for each diagonal cell, the sum over its nodes of
         min(1, (width / bucket_width)^2): the probability that a node
         whose start AND end fall uniformly in the same cell lies inside.
         Off-diagonal cells keep 0 (start bucket < end bucket there means
         width >= bucket span, handled by the coarse rules). *)
  bucket_width : float;
  card : float;
  levels : float array;
}

let build ?(grid = 32) ~max_pos (c : Cols.t) =
  if max_pos < 1 then invalid_arg "Position_histogram.build: bad max_pos";
  let g = Grid.create grid in
  let bucket_width = float_of_int max_pos /. float_of_int grid in
  let bucket pos =
    min (grid - 1) (int_of_float (float_of_int pos /. bucket_width))
  in
  let max_level = Array.fold_left max 0 c.Cols.levels in
  let levels = Array.make (max_level + 2) 0.0 in
  let diag_mass = Array.make (grid * grid) 0.0 in
  for r = 0 to Cols.length c - 1 do
    let s = c.Cols.starts.(r) and e = c.Cols.ends.(r) in
    let i = bucket s and j = bucket e in
    Grid.add g i j;
    if i = j then begin
      (* XML intervals nest or are disjoint, so a node whose start falls
         strictly inside this row's interval is contained in it: the containment
         probability for a same-cell node is linear in the width *)
      let w = float_of_int (e - s) /. bucket_width in
      diag_mass.((i * grid) + j) <-
        diag_mass.((i * grid) + j) +. Float.min 1.0 w
    end;
    let l = c.Cols.levels.(r) in
    levels.(l) <- levels.(l) +. 1.0
  done;
  Grid.seal g;
  { grid = g; diag_mass; bucket_width; card = float_of_int (Cols.length c); levels }

let grid_size t = Grid.size t.grid
let cardinality t = t.card

let bucket t pos =
  min (Grid.size t.grid - 1) (int_of_float (float_of_int pos /. t.bucket_width))

let count_in t ~i0 ~i1 ~j0 ~j1 = Grid.range_sum t.grid ~i0 ~i1 ~j0 ~j1
let cell t i j = Grid.get t.grid i j

let containment_mass t i j =
  if i < 0 || j < 0 || i >= grid_size t || j >= grid_size t then
    invalid_arg "Position_histogram.containment_mass: cell out of range";
  t.diag_mass.((i * grid_size t) + j)

let level_counts t = t.levels
