open Sjos_pattern
open Sjos_obs

let update_min table status =
  let key = Status.key status in
  match Hashtbl.find_opt table key with
  | Some (existing : Status.t) when existing.Status.cost <= status.Status.cost
    ->
      ()
  | _ -> Hashtbl.replace table key status

let run ctx =
  let start = Search.start ctx in
  let levels = Pattern.edge_count ctx.Search.pat in
  let current : (Status.key, Status.t) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace current (Status.key start) start;
  let w = ctx.Search.work in
  let rec step lv current =
    if lv = levels then current
    else begin
      let next = Hashtbl.create 64 in
      let span = Trace.begin_span "dp.level" ~attrs:[ ("level", Json.Int lv) ] in
      Hashtbl.iter
        (fun _ status -> List.iter (update_min next) (Search.expand ctx status))
        current;
      Trace.end_span span
        ~attrs:
          [
            ("statuses_kept", Json.Int (Hashtbl.length next));
            ("generated_so_far", Json.Int w.Work.statuses_generated);
            ("expanded_so_far", Json.Int w.Work.expansions);
          ];
      step (lv + 1) next
    end
  in
  let finals = step 0 current in
  let best = ref None in
  Hashtbl.iter
    (fun _ status ->
      let cost, plan = Search.finalize ctx status in
      match !best with
      | Some (c, _) when c <= cost -> ()
      | _ -> best := Some (cost, plan))
    finals;
  match !best with
  | Some r -> r
  | None -> invalid_arg "Dp.run: no final status reached"
