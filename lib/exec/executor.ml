open Sjos_storage
open Sjos_pattern
open Sjos_cost
open Sjos_plan
open Sjos_obs
open Sjos_guard

type run = {
  tuples : Tuple.t array;
  work : Work.t;
  cost_units : float;
  seconds : float;
  profile : Explain.measured;
}

let op_span_name = function
  | Plan.Index_scan _ -> "exec.index_scan"
  | Plan.Sort _ -> "exec.sort"
  | Plan.Structural_join _ -> "exec.join"
  | Plan.Holistic _ -> "exec.twig"

(* Candidate arrays from our own element index are sorted by construction;
   an externally supplied fetch (plan hints, fault injection, a remote
   storage tier) is a trust boundary and gets verified — the joins silently
   produce garbage on unsorted input otherwise.  The check reads the
   document's [starts] column instead of chasing one [Node.t] record per
   element: that is also exactly what the join kernels will see, since
   they resolve positions through the document, not through the fetched
   records.  An id the document does not know is reported as corrupt
   rather than joined blindly. *)
let verify_document_order ~doc ~what candidates =
  let { Sjos_xml.Cols.starts; _ } = Sjos_xml.Document.positions doc in
  let size = Array.length starts in
  let n = Array.length candidates in
  let prev = ref min_int in
  for i = 0 to n - 1 do
    let id = candidates.(i).Sjos_xml.Node.id in
    if id < 0 || id >= size then
      Error.fail
        (Error.Corrupt_input
           {
             source = what;
             reason =
               Printf.sprintf "candidate id %d not in document at position %d"
                 id i;
           });
    let s = Array.unsafe_get starts id in
    if s < !prev then
      Error.fail
        (Error.Corrupt_input
           {
             source = what;
             reason =
               Printf.sprintf
                 "candidate stream not in document order at position %d" i;
           });
    prev := s
  done;
  candidates

let execute ?(factors = Cost_model.default) ?(budget = Budget.unlimited)
    ?max_tuples ?fetch ?pool ?store index pat plan =
  (match Properties.validate pat plan with
  | Ok () -> ()
  | Error msg -> Error.fail (Error.Invalid_plan msg));
  let budget = Budget.cap_tuples budget max_tuples in
  (* No explicit pool means the process-wide default, sized by
     SJOS_DOMAINS (size 1 unless the environment asks for more — the
     kernels then take their serial path unchanged). *)
  let pool =
    match pool with Some p -> p | None -> Sjos_par.Pool.get_default ()
  in
  (* No explicit store means the Mem backend over this index — exactly
     the pre-Column_store behavior (and a cheap wrapper to build).
     Backend selection is the caller's job: {!Sjos_engine.Database}
     threads its configured store through here. *)
  let store =
    match store with
    | Some s ->
        if Column_store.index s != index then
          invalid_arg "Executor.execute: store built over a different index";
        s
    | None -> Column_store.create ~config:Column_store.mem index
  in
  let doc = Element_index.document index in
  let width = Pattern.node_count pat in
  let work = Work.zero () in
  let t0 = Clock.now_ns () in
  (* Rows travel between operators as {!Stack_tree.input}s: a leaf scan
     on the Disk backend stays a lazy handle all the way into the join,
     so only the pages the skip-ahead merge examines are ever read.
     Scan accounting is identical either way — one index item per
     candidate, leaf length answered from the catalog. *)
  let scan own i =
    let spec = Pattern.label pat i in
    match fetch with
    | Some f ->
        Stack_tree.Rows
          (Operators.index_scan_batch ~work:own ~width ~slot:i
             (Sjos_xml.Cols.of_nodes
                (verify_document_order ~doc
                   ~what:
                     (Printf.sprintf "candidates(%s)"
                        (Candidate.spec_to_string spec))
                   (f spec))))
    | None -> (
        match Column_store.leaf store spec with
        | Some lf ->
            own.Work.candidates_scanned <-
              own.Work.candidates_scanned + Column_store.leaf_length lf;
            Stack_tree.leaf ~width ~slot:i lf
        | None ->
            Stack_tree.Rows
              (Operators.index_scan_batch ~work:own ~width ~slot:i
                 (Column_store.select store spec)))
  in
  let rows = Stack_tree.input_rows in
  let check_output r =
    Budget.check_tuples budget ~during:"execute" ~count:(rows r);
    r
  in
  (* Each operator gets its own work record and its own (monotonic) self
     time, so the run profile prices every operator separately; each
     operator's record is added into the run total as it finishes. *)
  let rec eval plan : Stack_tree.input * Explain.measured =
    match plan with
    | Plan.Index_scan i ->
        measure plan [] (fun own _ -> check_output (scan own i)) rows
    | Plan.Sort { input; by } ->
        measure plan [ input ]
          (fun own -> function
            | [ (r, _) ] ->
                Stack_tree.Rows
                  (Operators.sort_batch ~budget ~work:own ~doc ~by
                     (Stack_tree.to_batch r))
            | _ -> assert false)
          rows
    | Plan.Structural_join { anc_side; desc_side; edge; algo } ->
        measure plan
          [ anc_side; desc_side ]
          (fun own -> function
            | [ (a, _); (d, _) ] ->
                check_output
                  (Stack_tree.Rows
                     (Stack_tree.join_batch_in ~budget ~pool ~work:own ~doc
                        ~axis:edge.Pattern.axis ~algo
                        ~anc:(a, edge.Pattern.anc)
                        ~desc:(d, edge.Pattern.desc) ()))
            | _ -> assert false)
          rows
    | Plan.Holistic _ ->
        (* candidate acquisition (and its accounting) belongs to the
           holistic operator, so it appears as one leaf operator in
           spans and the run profile *)
        measure plan []
          (fun own _ ->
            let inputs = Array.init width (fun i -> scan own i) in
            check_output
              (Stack_tree.Rows
                 (Twig_stack.run ~budget ~work:own ~doc ~pat ~inputs ())))
          rows
  (* [measure] owns the span/work/profile bookkeeping; it is polymorphic
     in the produced value so the root operator can produce the
     caller-facing tuple array while interior operators stay in
     {!Stack_tree.input}s. *)
  and measure :
      'a.
      Plan.t ->
      Plan.t list ->
      (Work.t -> (Stack_tree.input * Explain.measured) list -> 'a) ->
      ('a -> int) ->
      'a * Explain.measured =
   fun plan inputs apply rows_of ->
    Budget.check budget ~during:"execute";
    (* the span opens before the inputs run so child operators nest *)
    let span = Trace.begin_span (op_span_name plan) in
    let child_results =
      (* left-to-right: ancestor side before descendant side *)
      List.rev (List.fold_left (fun acc p -> eval p :: acc) [] inputs)
    in
    let own = Work.zero () in
    let op_t0 = Clock.now_ns () in
    let r = apply own child_results in
    let seconds = Clock.elapsed_seconds ~since:op_t0 in
    Trace.end_span span
      ~attrs:
        [
          ("rows", Json.Int (rows_of r));
          ("cost_units", Json.Float (Cost_model.cost_units factors own));
        ];
    Work.merge_into work own;
    ( r,
      {
        Explain.mplan = plan;
        rows = rows_of r;
        work = own;
        seconds;
        inputs = List.map snd child_results;
      } )
  in
  (* The root join runs straight to the caller-facing tuple format,
     skipping one full materialization of the (often dominant) root
     output. *)
  let tuples, profile =
    match plan with
    | Plan.Structural_join { anc_side; desc_side; edge; algo } ->
        measure plan
          [ anc_side; desc_side ]
          (fun own -> function
            | [ (a, _); (d, _) ] ->
                let tuples =
                  Stack_tree.join_root_in ~budget ~pool ~work:own ~doc
                    ~axis:edge.Pattern.axis ~algo
                    ~anc:(a, edge.Pattern.anc)
                    ~desc:(d, edge.Pattern.desc) ()
                in
                Budget.check_tuples budget ~during:"execute"
                  ~count:(Array.length tuples);
                tuples
            | _ -> assert false)
          Array.length
    | _ ->
        let r, profile = eval plan in
        (Batch.to_tuples (Stack_tree.to_batch r), profile)
  in
  let seconds = Clock.elapsed_seconds ~since:t0 in
  (* Charge the domain accumulator once, when the run completes.  [work]
     already holds the merged totals from every operator and shard
     (integer sums, partition-invariant), so the counters stay
     domain-independent. *)
  Work.absorb work;
  if Registry.enabled () then begin
    Registry.add_seconds (Registry.timer "executor.seconds") seconds;
    Registry.add (Registry.counter "executor.output_tuples") (Array.length tuples)
  end;
  {
    tuples;
    work;
    cost_units = Cost_model.cost_units factors work;
    seconds;
    profile;
  }

let count_matches ?factors index pat plan =
  Array.length (execute ?factors index pat plan).tuples
