let all_plans ctx =
  let acc = ref [] in
  let rec go (s : Status.t) =
    if Status.is_final s then acc := Search.finalize ctx s :: !acc
    else List.iter go (Search.expand ctx s)
  in
  go (Search.start ctx);
  !acc

let optimal ctx =
  match all_plans ctx with
  | [] -> invalid_arg "Enumerate.optimal: no plans"
  | first :: rest ->
      List.fold_left
        (fun (bc, bp) (c, p) -> if c < bc then (c, p) else (bc, bp))
        first rest
