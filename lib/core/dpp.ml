open Sjos_pattern
open Sjos_obs

let run ?(lookahead = true) ?(expansion_bound = None) ?(left_deep = false)
    ?(prioritize_by_ub = true) ctx =
  let start =
    Status.start ~factors:ctx.Search.factors ~provider:ctx.Search.provider
      ctx.Search.pat
  in
  let levels = Pattern.edge_count ctx.Search.pat in
  let peak_queue = ref 0 in
  let best_cost : (Status.key, float) Hashtbl.t = Hashtbl.create 64 in
  let queue : Status.t Pq.t = Pq.create () in
  let min_full = ref infinity in
  let best = ref None in
  let expanded_at_level = Array.make (levels + 1) 0 in
  let saturated_above = ref (-1) in
  (* highest level whose expansion budget is exhausted; all strictly
     shallower levels stop expanding (the DPAP-EB rule) *)
  let note_expansion lv =
    match expansion_bound with
    | None -> ()
    | Some te ->
        expanded_at_level.(lv) <- expanded_at_level.(lv) + 1;
        if expanded_at_level.(lv) >= te && lv > !saturated_above then
          saturated_above := lv
  in
  let budget_allows lv =
    match expansion_bound with
    | None -> true
    | Some te -> expanded_at_level.(lv) < te && lv >= !saturated_above
  in
  (* Per-level search effort, reported on the search span when tracing. *)
  let tracing = Trace.enabled () in
  let span =
    Trace.begin_span "dpp.search"
      ~attrs:
        [
          ("lookahead", Json.Bool lookahead);
          ("left_deep", Json.Bool left_deep);
          ( "expansion_bound",
            match expansion_bound with Some te -> Json.Int te | None -> Json.Null );
        ]
  in
  let expanded_per_level = if tracing then Array.make (levels + 1) 0 else [||] in
  let settle (s : Status.t) =
    if Status.is_final s then begin
      let cost, plan = Search.finalize ctx s in
      if cost < !min_full then begin
        min_full := cost;
        best := Some (cost, plan)
      end
    end
    else begin
      let key = Status.key s in
      let better =
        match Hashtbl.find_opt best_cost key with
        | Some c -> s.Status.cost < c
        | None -> true
      in
      if better then begin
        Hashtbl.replace best_cost key s.Status.cost;
        let priority =
          if prioritize_by_ub then s.Status.cost +. Search.ub_cost ctx s
          else s.Status.cost
        in
        Pq.push queue priority s;
        peak_queue := max !peak_queue (Pq.length queue)
      end
    end
  in
  settle start;
  (* A status may be queued several times (cheaper paths to the same key
     can be discovered later, since ubCost is only a heuristic); re-expand
     only on a strict improvement. *)
  let expanded_cost : (Status.key, float) Hashtbl.t = Hashtbl.create 64 in
  let rec loop () =
    match Pq.pop queue with
    | None -> ()
    | Some (_, s) ->
        let key = Status.key s in
        let stale =
          (match Hashtbl.find_opt expanded_cost key with
          | Some c -> s.Status.cost >= c
          | None -> false)
          ||
          match Hashtbl.find_opt best_cost key with
          | Some c -> s.Status.cost > c
          | None -> false
        in
        let dead = s.Status.cost >= !min_full in
        if (not stale) && (not dead) && budget_allows (Status.level s) then begin
          Hashtbl.replace expanded_cost key s.Status.cost;
          let successors =
            Search.expand ~left_deep ~lookahead ~cost_bound:!min_full ctx s
          in
          (* an expansion that created nothing (every successor was a
             lookahead deadend) does not use up the level's budget *)
          if successors <> [] then note_expansion (Status.level s);
          if tracing then begin
            let lv = Status.level s in
            expanded_per_level.(lv) <- expanded_per_level.(lv) + 1
          end;
          List.iter settle successors
        end;
        loop ()
  in
  loop ();
  Trace.end_span span
    ~attrs:
      [
        ("work", Work.to_json ctx.Search.work);
        ("peak_queue_depth", Json.Int !peak_queue);
        ( "expanded_per_level",
          Json.List
            (Array.to_list (Array.map (fun n -> Json.Int n) expanded_per_level))
        );
        ("best_cost", Json.Float !min_full);
      ];
  match (!best, expansion_bound) with
  | Some r, _ -> r
  | None, Some _ ->
      (* The expansion bound is a heuristic and can starve the levels that
         would have completed the plan; fall back to the cheapest
         fully-pipelined plan, which always exists (Theorem 3.1). *)
      Fp.run ctx
  | None, None -> invalid_arg "Dpp.run: no complete plan found"
