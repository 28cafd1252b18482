open Sjos_storage
module Work = Sjos_obs.Work

let index_scan ~work ~width ~slot candidates =
  work.Work.candidates_scanned <-
    work.Work.candidates_scanned + Array.length candidates;
  Array.map (fun node -> Tuple.singleton ~width slot node) candidates

let index_scan_batch ~work ~width ~slot (cols : Cols.t) =
  work.Work.candidates_scanned <-
    work.Work.candidates_scanned + Array.length cols.Cols.ids;
  Batch.of_ids ~width ~slot cols.Cols.ids

let account_sort ~work n =
  work.Work.sorted_items <- work.Work.sorted_items + n;
  if n > 1 then
    work.Work.sort_cost <-
      work.Work.sort_cost
      +. (float_of_int n *. (Float.log (float_of_int n) /. Float.log 2.0))

let sort ?(budget = Sjos_guard.Budget.unlimited) ~work ~doc ~by tuples =
  Sjos_guard.Budget.check budget ~during:"execute";
  account_sort ~work (Array.length tuples);
  Batch.sort_tuples ~doc ~by tuples

let sort_batch ?(budget = Sjos_guard.Budget.unlimited) ~work ~doc ~by b =
  Sjos_guard.Budget.check budget ~during:"execute";
  account_sort ~work (Batch.length b);
  Batch.sort ~doc ~by b
