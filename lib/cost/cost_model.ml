type factors = {
  f_index : float;
  f_sort : float;
  f_io : float;
  f_stack : float;
}

let default = { f_index = 1.0; f_sort = 2.0; f_io = 10.0; f_stack = 1.0 }

let make ?(f_index = default.f_index) ?(f_sort = default.f_sort)
    ?(f_io = default.f_io) ?(f_stack = default.f_stack) () =
  if f_index < 0. || f_sort < 0. || f_io < 0. || f_stack < 0. then
    invalid_arg "Cost_model.make: negative factor";
  { f_index; f_sort; f_io; f_stack }

let index_access f n = f.f_index *. n

let sort f n =
  if n <= 1.0 then 0.0 else f.f_sort *. n *. (Float.log n /. Float.log 2.0)

let stack_tree_anc f ~anc ~output =
  (2.0 *. output *. f.f_io) +. (2.0 *. anc *. f.f_stack)

let stack_tree_desc f ~anc = 2.0 *. anc *. f.f_stack

let twig f ~candidates ~path_solutions =
  (f.f_index *. candidates)
  +. (2.0 *. candidates *. f.f_stack)
  +. (2.0 *. path_solutions *. f.f_io)

let ground_io ?(per_miss = default.f_io) f ~page_misses ~io_items =
  if page_misses < 0 || io_items < 0 then
    invalid_arg "Cost_model.ground_io: negative counter";
  if per_miss < 0. then invalid_arg "Cost_model.ground_io: negative per_miss";
  if page_misses = 0 || io_items = 0 then f
  else
    {
      f with
      f_io = per_miss *. float_of_int page_misses /. float_of_int io_items;
    }

let cost_units f (w : Sjos_obs.Work.t) =
  (f.f_index *. float_of_int w.candidates_scanned)
  +. (f.f_stack *. float_of_int w.stack_ops)
  +. (f.f_io *. float_of_int w.io_items)
  +. (f.f_sort *. w.sort_cost)

let pp_factors ppf f =
  Fmt.pf ppf "f_I=%g f_s=%g f_IO=%g f_st=%g" f.f_index f.f_sort f.f_io
    f.f_stack
