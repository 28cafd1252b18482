module Work = Sjos_obs.Work

let index_scan_batch scratch ~work ~width ~slot ids =
  work.Work.candidates_scanned <- work.Work.candidates_scanned + Array.length ids;
  Batch.of_ids scratch ~width ~slot ids

let index_scan ~work ~width ~slot ids =
  Scratch.with_set @@ fun scratch ->
  Batch.to_tuples (index_scan_batch scratch ~work ~width ~slot ids)

let account_sort ~work n =
  work.Work.sorted_items <- work.Work.sorted_items + n;
  if n > 1 then
    work.Work.sort_cost <-
      work.Work.sort_cost
      +. (float_of_int n *. (Float.log (float_of_int n) /. Float.log 2.0))

let sort_batch scratch ?(budget = Sjos_guard.Budget.unlimited) ~work ~doc ~by b
    =
  Sjos_guard.Budget.check budget ~during:"execute";
  account_sort ~work (Batch.length b);
  Batch.sort scratch ~doc ~by b

let sort ?budget ~work ~doc ~by tuples =
  let width = if Array.length tuples = 0 then 0 else Array.length tuples.(0) in
  Scratch.with_set @@ fun scratch ->
  Batch.to_tuples
    (sort_batch scratch ?budget ~work ~doc ~by (Batch.of_tuples ~width tuples))
