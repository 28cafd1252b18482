open Sjos_xml
open Sjos_pattern
open Sjos_guard
module Ibuf = Batch.Ibuf
module Work = Sjos_obs.Work

(* Columnar holistic twig kernel, after TwigStack (Bruno, Koudas,
   Srivastava — SIGMOD 2002).  The oracle is {!Naive}: this kernel must
   produce its match sets, in lexicographic order, while touching only
   flat int arrays on the hot path.

   Phase 1 merges every candidate stream in global document order
   through per-pattern-node linked stacks (PathStack-style: plain global
   order, parent-child edges post-filtered at emission) and appends path
   solutions — matches of each root-to-leaf pattern path — to flat
   per-leaf column blocks.  Phase 2 merge-joins the blocks on their
   shared path prefixes (sort-merge over index permutations, no boxing)
   and canonically orders the full matches.

   Streams arrive as {!Stack_tree.input}s and are grouped through
   {!Stack_tree.group_input}, so a Disk-backed lazy leaf faults in only
   the metadata the merged cursor front examines; skip-ahead both drops
   provably dead runs (a stream whose pattern parent can never match
   again) and gallops a child stream past candidates that must arrive
   before their first possible ancestor.  Skips are logical — counted in
   [items_skipped] identically for both storage backends — and the whole
   pass is serial, so every counter is domain-count invariant. *)

(* ---------- per-node state ---------- *)

(* Linked int-indexed stacks: one flat growable buffer per pattern node,
   [stride] ints per entry.  [parent_top] is the index of the deepest
   entry of the parent node's stack that strictly contains this entry at
   push time — the chain emission walks. *)
let stride = 5

let e_start = 0
and e_end = 1
and e_level = 2
and e_id = 3
and e_parent_top = 4

type stack = { mutable buf : int array; mutable len : int (* entries *) }

let new_stack () = { buf = Array.make (8 * stride) 0; len = 0 }

let push st ~start ~end_ ~level ~id ~parent_top =
  if st.len * stride = Array.length st.buf then begin
    let buf = Array.make (2 * st.len * stride) 0 in
    Array.blit st.buf 0 buf 0 (st.len * stride);
    st.buf <- buf
  end;
  let base = st.len * stride in
  st.buf.(base + e_start) <- start;
  st.buf.(base + e_end) <- end_;
  st.buf.(base + e_level) <- level;
  st.buf.(base + e_id) <- id;
  st.buf.(base + e_parent_top) <- parent_top;
  st.len <- st.len + 1

let entry st j f = st.buf.((j * stride) + f)

(* ---------- pattern shape ---------- *)

let parent_axis pat =
  Array.init (Pattern.node_count pat) (fun i ->
      match Pattern.parent_of pat i with
      | None -> (-1, Axes.Descendant)
      | Some (p, e) -> (p, e.Pattern.axis))

(* Root-first order with parents before children, independent of the
   node numbering: the skip-ahead pass visits parents first so a dead
   parent cascades to its subtree across successive rounds. *)
let topo_order pat =
  let n = Pattern.node_count pat in
  let order = Array.make n 0 in
  let k = ref 0 in
  let rec visit i =
    order.(!k) <- i;
    incr k;
    List.iter (fun (c, _) -> visit c) (Pattern.children_of pat i)
  in
  visit 0;
  if !k <> n then invalid_arg "Twig_stack: pattern is not a rooted tree";
  order

let leaves pat =
  List.filter
    (fun i -> Pattern.children_of pat i = [])
    (List.init (Pattern.node_count pat) Fun.id)

(* Root-to-node index path (root first). *)
let paths_to pat =
  Array.init (Pattern.node_count pat) (fun i ->
      let rec up j acc =
        match Pattern.parent_of pat j with
        | None -> j :: acc
        | Some (p, _) -> up p (j :: acc)
      in
      up i [])

(* ---------- the kernel ---------- *)

let poll_mask = 255

let run scratch ?(budget = Budget.unlimited) ~work ~doc ~pat ~inputs () =
  let n = Pattern.node_count pat in
  if Array.length inputs <> n then
    invalid_arg "Twig_stack.run: expected one input per pattern node";
  let width = n in
  Array.iter
    (fun i ->
      if Stack_tree.input_width i <> width then
        invalid_arg "Twig_stack.run: input width must equal the node count")
    inputs;
  let cols = lazy (Document.positions doc) in
  let g =
    Array.init n (fun i -> Stack_tree.group_input scratch ~cols inputs.(i) i)
  in
  Array.iter
    (fun (gi : Stack_tree.groups) ->
      (* candidate streams carry distinct elements, so every group is a
         single row; anything else is not a candidate stream *)
      if gi.Stack_tree.off.(gi.Stack_tree.n) <> gi.Stack_tree.n then
        invalid_arg "Twig_stack.run: input is not a candidate stream")
    g;
  let pa = parent_axis pat in
  let topo = topo_order pat in
  let paths = paths_to pat in
  let leaf_nodes = leaves pat in
  let is_leaf = Array.make n false in
  List.iter (fun l -> is_leaf.(l) <- true) leaf_nodes;
  let limited = not (Budget.is_unlimited budget) in
  let pos = Array.make n 0 in
  let stacks = Array.init n (fun _ -> new_stack ()) in
  let blocks = Array.init n (fun _ -> Ibuf.create 64) in
  let sol_count = ref 0 in
  let iters = ref 0 in
  let poll () =
    incr iters;
    if limited && !iters land poll_mask = 0 then
      Budget.check budget ~during:"execute"
  in
  (* -- skip-ahead: dead-run drop + gallop on the merged cursor front -- *)
  let skip_pass () =
    Array.iter
      (fun k ->
        let p, _ = pa.(k) in
        if p >= 0 && stacks.(p).len = 0 && pos.(k) < g.(k).Stack_tree.n then
          if pos.(p) >= g.(p).Stack_tree.n then begin
            (* the parent can never be pushed again: everything left in
               this stream (and, transitively, its subtree) is dead *)
            work.Work.items_skipped <-
              work.Work.items_skipped + (g.(k).Stack_tree.n - pos.(k));
            pos.(k) <- g.(k).Stack_tree.n
          end
          else begin
            (* candidates starting before the parent front arrive while
               the parent stack is still empty, so they are dropped on
               arrival anyway — gallop past the whole run *)
            g.(p).Stack_tree.e_probe pos.(p);
            let sp = g.(p).Stack_tree.gstart.(pos.(p)) in
            g.(k).Stack_tree.e_probe pos.(k);
            if g.(k).Stack_tree.gstart.(pos.(k)) < sp then begin
              let j =
                Stack_tree.gallop ~probe:g.(k).Stack_tree.e_probe
                  g.(k).Stack_tree.gstart pos.(k) g.(k).Stack_tree.n sp
              in
              work.Work.items_skipped <-
                work.Work.items_skipped + (j - pos.(k));
              pos.(k) <- j
            end
          end)
      topo
  in
  (* -- the merged cursor front: stream with the smallest next start -- *)
  let next_min () =
    let best = ref (-1) and best_start = ref max_int in
    for k = 0 to n - 1 do
      if pos.(k) < g.(k).Stack_tree.n then begin
        g.(k).Stack_tree.e_probe pos.(k);
        let s = g.(k).Stack_tree.gstart.(pos.(k)) in
        work.Work.comparisons <- work.Work.comparisons + 1;
        if s < !best_start then begin
          best_start := s;
          best := k
        end
      end
    done;
    if !best < 0 then None else Some !best
  in
  let clean_stacks start =
    Array.iter
      (fun st ->
        while st.len > 0 && entry st (st.len - 1) e_end < start do
          st.len <- st.len - 1;
          work.Work.stack_ops <- work.Work.stack_ops + 1
        done)
      stacks
  in
  (* -- emission: expand all chains of a just-arrived leaf entry -- *)
  let scratch = Array.make width Tuple.unbound in
  let append leaf =
    let b = blocks.(leaf) in
    for s = 0 to width - 1 do
      Ibuf.push b scratch.(s)
    done;
    work.Work.io_items <- work.Work.io_items + 2;
    work.Work.tuples_emitted <- work.Work.tuples_emitted + 1;
    incr sol_count;
    if limited then
      Budget.check_tuples budget ~during:"execute" ~count:!sol_count
  in
  let emit leaf ~start ~end_ ~level ~id ~parent_top =
    Array.fill scratch 0 width Tuple.unbound;
    scratch.(leaf) <- id;
    (* rev_path = leaf :: parent :: ... :: root *)
    let rev_path = List.rev paths.(leaf) in
    let rec expand chain bound ~cstart ~cend ~clevel ~caxis =
      match chain with
      | [] -> append leaf
      | k :: rest ->
          let st = stacks.(k) in
          for j = 0 to bound do
            (* Descendant steps are bulk emission — every stack entry up
               to [bound] qualifies by the nesting invariant, so, like
               the binary kernels' pair emission, they cost no
               comparison.  Child steps evaluate a real predicate. *)
            let ok =
              match caxis with
              | Axes.Descendant -> true
              | Axes.Child ->
                  work.Work.comparisons <- work.Work.comparisons + 1;
                  entry st j e_level = clevel - 1
                  && entry st j e_start < cstart
                  && entry st j e_end > cend
            in
            if ok then begin
              scratch.(k) <- entry st j e_id;
              expand rest
                (entry st j e_parent_top)
                ~cstart:(entry st j e_start) ~cend:(entry st j e_end)
                ~clevel:(entry st j e_level)
                ~caxis:(snd pa.(k))
            end
          done
    in
    match rev_path with
    | [ _ ] -> append leaf
    | _ :: rest ->
        expand rest parent_top ~cstart:start ~cend:end_ ~clevel:level
          ~caxis:(snd pa.(leaf))
    | [] -> assert false
  in
  (* -- phase 1: stream all candidates in global document order -- *)
  let rec loop () =
    skip_pass ();
    match next_min () with
    | None -> ()
    | Some k ->
        poll ();
        let r = pos.(k) in
        pos.(k) <- r + 1;
        g.(k).Stack_tree.e_meta r;
        let start = g.(k).Stack_tree.gstart.(r)
        and end_ = g.(k).Stack_tree.gend.(r)
        and level = g.(k).Stack_tree.glevel.(r) in
        clean_stacks start;
        let p, _ = pa.(k) in
        let parent_top =
          if p < 0 then -1
          else begin
            (* deepest strict ancestor: skip equal-interval top entries
               (the same document node as a candidate for both pattern
               nodes) *)
            let st = stacks.(p) in
            let pt = ref (st.len - 1) in
            while !pt >= 0 && entry st !pt e_start >= start do
              work.Work.comparisons <- work.Work.comparisons + 1;
              decr pt
            done;
            !pt
          end
        in
        if p < 0 || parent_top >= 0 then begin
          work.Work.stack_ops <- work.Work.stack_ops + 1;
          g.(k).Stack_tree.e_rows r (r + 1);
          let id = Stack_tree.input_id inputs.(k) r k in
          if is_leaf.(k) then emit k ~start ~end_ ~level ~id ~parent_top
          else push stacks.(k) ~start ~end_ ~level ~id ~parent_top
        end;
        loop ()
  in
  loop ();
  (* -- phase 2: merge path-solution blocks on shared prefixes -- *)
  let shared_slots mask_a mask_b =
    let rec go i acc =
      if 1 lsl i > mask_a land mask_b then List.rev acc
      else if mask_a land mask_b land (1 lsl i) <> 0 then go (i + 1) (i :: acc)
      else go (i + 1) acc
    in
    go 0 []
  in
  let mask_of_path leaf =
    List.fold_left (fun m i -> m lor (1 lsl i)) 0 paths.(leaf)
  in
  (* Index permutation sorted by the key slots, tie-broken by row index:
     a total order, so the sorted sequence (and with it every downstream
     counter) is independent of the sort algorithm.  Accounted exactly
     like the algebra's Sort operator — sorted_items and sort_cost,
     no per-comparison work — so the engines' comparison
     counters price the same thing. *)
  let sort_perm rows_data nrows key_slots =
    let perm = Array.init nrows Fun.id in
    let cmp ra rb =
      let rec go = function
        | [] -> compare ra rb
        | s :: rest ->
            let c =
              compare rows_data.((ra * width) + s) rows_data.((rb * width) + s)
            in
            if c <> 0 then c else go rest
      in
      go key_slots
    in
    Array.sort cmp perm;
    Operators.account_sort ~work nrows;
    perm
  in
  let key_equal rows_a ra rows_b rb key_slots =
    List.for_all
      (fun s ->
        work.Work.comparisons <- work.Work.comparisons + 1;
        rows_a.((ra * width) + s) = rows_b.((rb * width) + s))
      key_slots
  in
  let merge (acc_data, acc_rows) (b_data, b_rows) shared =
    let pa_ = sort_perm acc_data acc_rows shared in
    let pb = sort_perm b_data b_rows shared in
    let out = Ibuf.create (max 64 (acc_rows * width)) in
    let emitted = ref 0 in
    let ia = ref 0 and ib = ref 0 in
    let key_lt rows_a ra rows_b rb =
      let rec go = function
        | [] -> false
        | s :: rest ->
            work.Work.comparisons <- work.Work.comparisons + 1;
            let va = rows_a.((ra * width) + s)
            and vb = rows_b.((rb * width) + s) in
            if va < vb then true else if va > vb then false else go rest
      in
      go shared
    in
    while !ia < acc_rows && !ib < b_rows do
      poll ();
      let ra = pa_.(!ia) and rb = pb.(!ib) in
      if key_lt acc_data ra b_data rb then incr ia
      else if key_lt b_data rb acc_data ra then incr ib
      else begin
        (* equal keys: delimit both runs and emit the cross product *)
        let ja = ref (!ia + 1) in
        while
          !ja < acc_rows && key_equal acc_data pa_.(!ja) acc_data ra shared
        do
          incr ja
        done;
        let jb = ref (!ib + 1) in
        while !jb < b_rows && key_equal b_data pb.(!jb) b_data rb shared do
          incr jb
        done;
        for x = !ia to !ja - 1 do
          for y = !ib to !jb - 1 do
            poll ();
            let ba = pa_.(x) * width and bb = pb.(y) * width in
            for s = 0 to width - 1 do
              let v = acc_data.(ba + s) in
              Ibuf.push out (if v <> Tuple.unbound then v else b_data.(bb + s))
            done;
            incr emitted;
            if limited then
              Budget.check_tuples budget ~during:"execute"
                ~count:(!sol_count + !emitted)
          done
        done;
        ia := !ja;
        ib := !jb
      end
    done;
    work.Work.tuples_emitted <- work.Work.tuples_emitted + !emitted;
    (Ibuf.data out, !emitted)
  in
  let result_data, result_rows =
    match leaf_nodes with
    | [] -> invalid_arg "Twig_stack.run: pattern has no leaves"
    | first :: rest ->
        let acc = ref (Ibuf.data blocks.(first), Ibuf.length blocks.(first) / width) in
        let acc_mask = ref (mask_of_path first) in
        List.iter
          (fun leaf ->
            let mask = mask_of_path leaf in
            let shared = shared_slots !acc_mask mask in
            let b = (Ibuf.data blocks.(leaf), Ibuf.length blocks.(leaf) / width) in
            acc := merge !acc b shared;
            acc_mask := !acc_mask lor mask)
          rest;
        !acc
  in
  (* -- canonical order: lexicographic by slot values (slot 0 first, i.e.
     document order of the pattern root) -- *)
  let all_slots = List.init width Fun.id in
  let perm = sort_perm result_data result_rows all_slots in
  let buf = Ibuf.create (max 16 (result_rows * width)) in
  Array.iter
    (fun r ->
      let base = r * width in
      for s = 0 to width - 1 do
        Ibuf.push buf result_data.(base + s)
      done)
    perm;
  Batch.unsafe_of_raw ~width ~len:result_rows (Ibuf.data buf)
