open Sjos_xml
open Sjos_plan
open Sjos_exec
open Sjos_guard
module Work = Sjos_obs.Work

(* Consecutive tuples with the same node in the join slot form one group;
   inputs sorted by the join node keep equal nodes adjacent. *)
type group = { node : Node.t; tuples : Tuple.t list (* in input order *) }

let group_by_slot doc tuples slot =
  let groups = ref [] in
  let current_id = ref min_int in
  let current : Tuple.t list ref = ref [] in
  let flush () =
    if !current <> [] then begin
      let node = Document.node doc !current_id in
      groups := { node; tuples = List.rev !current } :: !groups
    end
  in
  let last_start = ref (-1) in
  Array.iter
    (fun t ->
      let id = Tuple.get t slot in
      if id = Tuple.unbound then
        invalid_arg "Stack_tree: join slot unbound in input tuple";
      if id <> !current_id then begin
        let start = (Document.node doc id).Node.start_pos in
        if start < !last_start then
          invalid_arg "Stack_tree: input not sorted by its join slot";
        last_start := start;
        flush ();
        current_id := id;
        current := [ t ]
      end
      else current := t :: !current)
    tuples;
  flush ();
  Array.of_list (List.rev !groups)

let cross ~budget ~work ~count_io out_push a_tuples d_tuples =
  List.iter
    (fun ta ->
      List.iter
        (fun td ->
          out_push (Tuple.merge ta td);
          work.Work.tuples_emitted <- work.Work.tuples_emitted + 1;
          Budget.check_tuples budget ~during:"execute"
            ~count:work.Work.tuples_emitted;
          if count_io then work.Work.io_items <- work.Work.io_items + 2)
        d_tuples)
    a_tuples

(* Deadline/cancellation polls in the merge loops are amortized: a clock
   read per descendant group would dominate small joins. *)
let poll_mask = 255

let poll_merge ~budget iters =
  incr iters;
  if !iters land poll_mask = 0 then Budget.check budget ~during:"execute"

(* --- Stack-Tree-Desc: stream output in descendant order --------------- *)

let run_desc ~budget ~work ~axis anc_groups desc_groups =
  let out = ref [] in
  let iters = ref 0 in
  let stack = ref [] in
  (* head = top; entries form a nested chain, innermost first *)
  let pop_until start =
    let rec go () =
      match !stack with
      | g :: rest when g.node.Node.end_pos < start ->
          stack := rest;
          go ()
      | _ -> ()
    in
    go ()
  in
  let na = Array.length anc_groups and nd = Array.length desc_groups in
  let ai = ref 0 and di = ref 0 in
  while !di < nd do
    poll_merge ~budget iters;
    let d = desc_groups.(!di) in
    if
      !ai < na && anc_groups.(!ai).node.Node.start_pos < d.node.Node.start_pos
    then begin
      let a = anc_groups.(!ai) in
      pop_until a.node.Node.start_pos;
      work.Work.stack_ops <-
        work.Work.stack_ops + (2 * List.length a.tuples);
      stack := a :: !stack;
      incr ai
    end
    else begin
      pop_until d.node.Node.start_pos;
      (* same work unit as the columnar kernel: one comparison per live
         stack entry examined for this descendant group *)
      work.Work.comparisons <-
        work.Work.comparisons + List.length !stack;
      (* bottom-to-top = ancestor document order within this descendant *)
      List.iter
        (fun a ->
          if Axes.related axis ~anc:a.node ~desc:d.node then
            cross ~budget ~work ~count_io:false
              (fun t -> out := t :: !out)
              a.tuples d.tuples)
        (List.rev !stack);
      incr di
    end
  done;
  Array.of_list (List.rev !out)

(* --- Stack-Tree-Anc: buffer pairs until the ancestor pops ------------- *)

type anc_entry = {
  group : group;
  mutable self_rev : Tuple.t list;  (* pairs with this entry as ancestor *)
  mutable inherit_chunks_rev : Tuple.t list list;
      (* completed pair chunks from entries popped above this one; each
         chunk is in final order, chunks in reverse arrival order *)
}

let run_anc ~budget ~work ~axis anc_groups desc_groups =
  let out_chunks_rev = ref [] in
  let iters = ref 0 in
  let stack = ref [] in
  let flush_entry e =
    (* this entry's own pairs (in descendant arrival order) come first:
       inherited chunks all have ancestors with larger start positions *)
    let pairs =
      List.rev e.self_rev @ List.concat (List.rev e.inherit_chunks_rev)
    in
    match !stack with
    | [] -> if pairs <> [] then out_chunks_rev := pairs :: !out_chunks_rev
    | top :: _ ->
        if pairs <> [] then
          top.inherit_chunks_rev <- pairs :: top.inherit_chunks_rev
  in
  let pop_until start =
    let rec go () =
      match !stack with
      | e :: rest when e.group.node.Node.end_pos < start ->
          stack := rest;
          flush_entry e;
          go ()
      | _ -> ()
    in
    go ()
  in
  let na = Array.length anc_groups and nd = Array.length desc_groups in
  let ai = ref 0 and di = ref 0 in
  while !di < nd do
    poll_merge ~budget iters;
    let d = desc_groups.(!di) in
    if
      !ai < na && anc_groups.(!ai).node.Node.start_pos < d.node.Node.start_pos
    then begin
      let a = anc_groups.(!ai) in
      pop_until a.node.Node.start_pos;
      work.Work.stack_ops <-
        work.Work.stack_ops + (2 * List.length a.tuples);
      stack :=
        { group = a; self_rev = []; inherit_chunks_rev = [] } :: !stack;
      incr ai
    end
    else begin
      pop_until d.node.Node.start_pos;
      work.Work.comparisons <-
        work.Work.comparisons + List.length !stack;
      List.iter
        (fun e ->
          if Axes.related axis ~anc:e.group.node ~desc:d.node then
            cross ~budget ~work ~count_io:true
              (fun t -> e.self_rev <- t :: e.self_rev)
              e.group.tuples d.tuples)
        !stack;
      incr di
    end
  done;
  (* drain the stack: innermost entries flush into the ones below *)
  while !stack <> [] do
    match !stack with
    | e :: rest ->
        stack := rest;
        flush_entry e
    | [] -> ()
  done;
  Array.of_list (List.concat (List.rev !out_chunks_rev))

let join ?(budget = Budget.unlimited) ~work ~doc ~axis ~algo
    ~anc:(anc_tuples, anc_slot) ~desc:(desc_tuples, desc_slot) () =
  let anc_groups = group_by_slot doc anc_tuples anc_slot in
  let desc_groups = group_by_slot doc desc_tuples desc_slot in
  match algo with
  | Plan.Stack_tree_desc ->
      run_desc ~budget ~work ~axis anc_groups desc_groups
  | Plan.Stack_tree_anc ->
      run_anc ~budget ~work ~axis anc_groups desc_groups
