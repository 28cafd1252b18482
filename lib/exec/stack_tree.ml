open Sjos_xml
open Sjos_storage
open Sjos_plan
open Sjos_guard
module Pool = Sjos_par.Pool
module Shard = Sjos_par.Shard
module Work = Sjos_obs.Work

(* Columnar Stack-Tree kernel: one body for both algorithms and both
   output forms ({!join_in}).  An index scan enters as a leaf whose
   candidate columns are its groups and its rows; a join's or a sort's
   output carries the groups of the slot it is ordered by, so only
   fetched streams are grouped row by row ({!group}).  The merge records
   each related group pair as a rectangle ({!record}); the output, and
   for a flat output the groups of its order, are then taken once at
   their exact size and written in the algorithm's order ({!write}).
   The rectangles, per-group counts and merge stack live in a lane of
   the execution's {!Scratch} set, and a flat output and its groups are
   lent by the set's arena, so an interior join allocates nothing the
   collector sees; only a root join's boxed rows are fresh.  The legacy
   group-list implementation is
   preserved in the tests as [Stack_tree_legacy]; this module must
   produce bit-identical tuple sequences and counter totals (modulo
   [items_skipped]) while touching only flat int arrays on the hot path.

   With a domain pool, the join is additionally range-partitioned on the
   ancestor group column at forest-closed cut points (no ancestor
   interval straddles a cut — {!Sjos_par.Shard.cut_points}), each shard
   records its slice with the identical serial merge, and then writes
   its rows and groups into its own range of the one output, in shard
   order.  Sharding is output- and counter-preserving by construction,
   not by sampling: see the [~drain] accounting in {!merge_loop}. *)

(* ---------- grouping: batch rows -> flat group columns ---------- *)

(* Consecutive rows with the same node in the join slot form one group;
   [off] has [n + 1] meaningful entries delimiting each group's row
   range.  A leaf is its own grouping ({!leaf_groups}), and a join's or
   a sort's output arrives with the groups of the slot it is ordered by
   ({!carried}), which is the slot every valid plan joins it on.  Only
   a fetched stream, and a batch joined on a slot it carries no groups
   for, is grouped here, in one pass that looks each group's positions
   up in the document by node id.  The arrays are sized for the worst
   case (one group per row) and lent by the execution's set; entries
   past [n] are unused.

   The [e_*] closures are the out-of-core hook: before the merge reads a
   group's metadata or a row range it calls the matching closure, which
   for a disk-backed leaf is its {!Column_store.leaf}'s ensure: it
   faults the covering pages in through the buffer pool and keeps the
   page-run state.  In-memory groups carry shared no-op closures, so
   the resident hot path pays one indirect call per ensured access and
   nothing else.  Once a slot has been decoded its value persists even
   if the pool later evicts the backing page (re-reads are idempotent),
   so stacked ancestor groups ensured at push time stay readable for
   the whole merge. *)
type groups = {
  n : int;
  off : int array;
  gstart : int array;  (* join-node start positions, strictly increasing *)
  gend : int array;
  glevel : int array;
  e_meta : int -> unit;  (* fault group [g]'s start/end/level *)
  e_probe : int -> unit;  (* fault group [g]'s start only (gallop probe) *)
  e_rows : int -> int -> unit;  (* fault absolute row range [lo, hi) *)
}

let no_ensure (_ : int) = ()
let no_ensure2 (_ : int) (_ : int) = ()

let group scratch ~(cols : Cols.t) (b : Batch.t) slot =
  let width = Batch.width b and data = Batch.data b and len = Batch.length b in
  if len > 0 && (slot < 0 || slot >= width) then
    invalid_arg "Stack_tree: join slot out of range";
  let starts = cols.Cols.starts
  and ends = cols.Cols.ends
  and levels = cols.Cols.levels in
  let size = Array.length starts in
  let a = Scratch.alloc scratch in
  let off = a (len + 1) and gstart = a len and gend = a len and glevel = a len in
  let n = ref 0 in
  let current = ref min_int and last_start = ref (-1) in
  for r = 0 to len - 1 do
    let id = Array.unsafe_get data ((r * width) + slot) in
    if id <> !current then begin
      if id = Tuple.unbound then
        invalid_arg "Stack_tree: join slot unbound in input tuple";
      if id < 0 || id >= size then
        invalid_arg (Printf.sprintf "Document.node: id %d out of range" id);
      let s = Array.unsafe_get starts id in
      if s < !last_start then
        invalid_arg "Stack_tree: input not sorted by its join slot";
      last_start := s;
      let k = !n in
      Array.unsafe_set off k r;
      Array.unsafe_set gstart k s;
      Array.unsafe_set gend k (Array.unsafe_get ends id);
      Array.unsafe_set glevel k (Array.unsafe_get levels id);
      n := k + 1;
      current := id
    end
  done;
  off.(!n) <- len;
  {
    n = !n;
    off;
    gstart;
    gend;
    glevel;
    e_meta = no_ensure;
    e_probe = no_ensure;
    e_rows = no_ensure2;
  }

(* The groups an operator output carries ({!Batch.grouped}). *)
let carried (c : Batch.groups) =
  {
    n = c.n;
    off = c.off;
    gstart = c.gstart;
    gend = c.gend;
    glevel = c.glevel;
    e_meta = no_ensure;
    e_probe = no_ensure;
    e_rows = no_ensure2;
  }

(* ---------- inputs: operator outputs or index-scan leaves ---------- *)

(* A leaf input is one index scan: a candidate list's columns, either
   resident ({!Column_store.select}'s result) or served lazily by a
   Disk {!Column_store.leaf} whose buffer frames [lcols] are.  A lazy
   leaf's merge faults in group metadata for groups it actually
   examines, single [starts] probes for gallop skips, and [ids] only
   for rows that reach an emitted pair; a resident leaf's columns are
   all readable already.  Either way a leaf keeps no rows: the writer
   reads row [r] as [lcols.ids.(r)] bound in [slot] of a [width]-slot
   row, everything else [Tuple.unbound] (see {!side}). *)

type leaf_input = {
  lcols : Cols.t;
  lwidth : int;
  lslot : int;
  lf : Column_store.leaf option;  (* faults [lcols] in; [None]: resident *)
}

type input = Rows of Batch.t | Leaf of leaf_input

let leaf_of ~width ~slot lf lcols =
  if slot < 0 || slot >= width then
    invalid_arg "Stack_tree: join slot out of range";
  Leaf { lcols; lwidth = width; lslot = slot; lf }

let leaf ~width ~slot lf =
  leaf_of ~width ~slot (Some lf) (Column_store.leaf_cols lf)

let resident ~width ~slot cols = leaf_of ~width ~slot None cols
let force_leaf (l : leaf_input) = Option.iter Column_store.force l.lf

(* The identity offsets every leaf's groups share: the first [n + 1]
   entries of [identity_offsets n] are [0 .. n].  One process-wide array,
   as long as the longest leaf seen so far plus one, so a leaf allocates
   no offsets of its own.  A published array is never written again, so
   domains read it freely; two domains growing it at once each build a
   correct array and either may stay published. *)
let identity = Atomic.make [| 0 |]

let identity_offsets n =
  let a = Atomic.get identity in
  if Array.length a > n then a
  else begin
    let a = Array.make (n + 1) 0 in
    for i = 1 to n do
      Array.unsafe_set a i i
    done;
    Atomic.set identity a;
    a
  end

(* Candidate ids from the store are strictly increasing (document
   order), so every row is its own group and [off] is the identity —
   the exact grouping {!group} computes for the materialized scan.  The
   metadata columns alias the leaf's columns, so a leaf needs no
   grouping pass.  A resident leaf's ensure closures are the no-ops; a
   lazy leaf's are its {!Column_store.leaf}'s, which pin page runs. *)
let leaf_groups (l : leaf_input) =
  let c = l.lcols in
  let n = Cols.length c in
  let e_meta, e_probe, e_rows =
    match l.lf with
    | None -> (no_ensure, no_ensure, no_ensure2)
    | Some lf ->
        Column_store.(ensure_meta lf, ensure_probe lf, ensure_ids lf)
  in
  {
    n;
    off = identity_offsets n;
    gstart = c.Cols.starts;
    gend = c.Cols.ends;
    glevel = c.Cols.levels;
    e_meta;
    e_probe;
    e_rows;
  }

let input_width = function Rows b -> Batch.width b | Leaf l -> l.lwidth

let input_rows = function
  | Rows b -> Batch.length b
  | Leaf l -> Cols.length l.lcols

let input_id i r slot =
  match i with
  | Rows b -> (Batch.data b).((r * Batch.width b) + slot)
  | Leaf l -> if slot = l.lslot then l.lcols.Cols.ids.(r) else Tuple.unbound

let to_batch scratch = function
  | Rows b -> b
  | Leaf l ->
      force_leaf l;
      Batch.of_ids scratch ~width:l.lwidth ~slot:l.lslot l.lcols.Cols.ids

(* How one join reads an input's rows: row [r] sits at [base side r] in
   [side.data].  A batch's side is its flat rows.  A leaf has no rows:
   its side assembles each row in a one-row buffer, [slot] set to the
   row's id and every other slot unbound, so each {!write} (each
   shard's, too) makes its own sides. *)
type side = { data : int array; slot : int; ids : int array }

let side ~width = function
  | Rows b -> { data = Batch.data b; slot = -1; ids = [||] }
  | Leaf l ->
      {
        data = Array.make width Tuple.unbound;
        slot = l.lslot;
        ids = l.lcols.Cols.ids;
      }

let[@inline] base (s : side) ~width r =
  if s.slot < 0 then r * width
  else begin
    Array.unsafe_set s.data s.slot (Array.unsafe_get s.ids r);
    0
  end

(* ---------- shared merge machinery ---------- *)

(* Deadline/cancellation polls in the merge loops are amortized: a clock
   read per descendant group would dominate small joins. *)
let poll_mask = 255

let poll_merge ~budget iters =
  incr iters;
  if !iters land poll_mask = 0 then Budget.check budget ~during:"execute"

(* First index in [lo, hi) whose value is >= [target]; [hi] if none.
   Exponential probe followed by binary search, so a jump over [d] items
   costs O(log d) instead of O(d).  [probe] faults each examined index in
   before its value is read (a no-op for resident inputs) — the skip
   over [d] items therefore costs O(log d) page touches too, which is
   exactly the out-of-core saving the IO bench measures. *)
let gallop ~probe (a : int array) lo hi target =
  if
    lo >= hi
    ||
    (probe lo;
     Array.unsafe_get a lo >= target)
  then lo
  else begin
    let prev = ref lo and cur = ref (lo + 1) and step = ref 1 in
    while
      !cur < hi
      &&
      (probe !cur;
       Array.unsafe_get a !cur < target)
    do
      prev := !cur;
      step := !step * 2;
      cur := !cur + !step
    done;
    let lo' = ref !prev and hi' = ref (min !cur hi) in
    (* invariant: a.(!lo') < target, and either !hi' = hi or
       a.(!hi') >= target *)
    while !hi' - !lo' > 1 do
      let mid = (!lo' + !hi') / 2 in
      probe mid;
      if Array.unsafe_get a mid < target then lo' := mid else hi' := mid
    done;
    !hi'
  end

(* Merge one ancestor row with one descendant row straight into [out] at
   [obase], mirroring {!Tuple.merge} (including its error message). *)
let merge_rows adata abase ddata dbase out obase width =
  for k = 0 to width - 1 do
    let x = Array.unsafe_get adata (abase + k) in
    let y = Array.unsafe_get ddata (dbase + k) in
    if x = Tuple.unbound then Array.unsafe_set out (obase + k) y
    else if y = Tuple.unbound then Array.unsafe_set out (obase + k) x
    else invalid_arg "Tuple.merge: slot bound on both sides"
  done

(* The Stack-Tree merge of ancestor groups [alo, ahi) with descendant
   groups [dlo, dhi), with an explicit int-indexed stack of ancestor
   group indices.  A serial join merges every group; a shard merges its
   ranges of the shared group columns, whose row offsets index the
   shared rows.  [emit g d] is called for every
   related (ancestor group, descendant group) pair, bottom-to-top within
   each descendant visit — exactly the legacy emission order.

   Skip-ahead (the batch engine's win over the textbook loop):

   - ancestor side: a group whose interval ends before the current
     descendant group starts can never contain it, nor any later
     descendant (their starts only grow).  The whole dead run is skipped
     in one scan without materializing stack entries; the push+pop
     accounting ([stack_ops]) is still charged so executed counters match
     the legacy kernels bit-for-bit.

   - descendant side: when the stack is empty, nothing can emit until
     the next ancestor group opens at [ag.gstart.(ai)], so every
     descendant group starting before it is galloped over (binary search
     on the sorted start column).

   Both skips are counted in [Work.items_skipped] (diagnostics only,
   never priced by the cost model).

   [drain]: sharded runs set it on every shard that has descendant
   groups after its own range.  Ancestor groups left over when the
   shard's descendants run out are then charged as a dead run
   ([stack_ops] push+pop and [items_skipped]), because that is exactly
   what the serial merge does to them when the first later descendant
   becomes current — every leftover group's interval ends before the
   next cut, hence before any later descendant's start.  The serial
   (unsharded) call passes [drain:false]: with no later descendants the
   serial loop leaves those groups untouched, and so do we. *)
let merge_loop ~budget ~work ~axis ~drain ~(lane : Scratch.lane) (ag : groups)
    ~alo ~ahi (dg : groups) ~dlo ~dhi ~emit =
  let iters = ref 0 in
  let stack = ref (Scratch.reserve lane.Scratch.stack 64) in
  lane.Scratch.stack <- !stack;
  let sp = ref 0 in
  let push g =
    if !sp = Array.length !stack then begin
      let bigger = Array.make (2 * !sp) 0 in
      Array.blit !stack 0 bigger 0 !sp;
      stack := bigger;
      lane.Scratch.stack <- bigger
    end;
    Array.unsafe_set !stack !sp g;
    incr sp
  in
  let pop_until start =
    while
      !sp > 0
      && Array.unsafe_get ag.gend (Array.unsafe_get !stack (!sp - 1)) < start
    do
      decr sp
    done
  in
  let is_child = match axis with Axes.Child -> true | Axes.Descendant -> false in
  let na = ahi and nd = dhi in
  let ai = ref alo and di = ref dlo in
  while !di < nd do
    poll_merge ~budget iters;
    dg.e_probe !di;
    let dstart = Array.unsafe_get dg.gstart !di in
    if !ai < na then ag.e_meta !ai;
    if !ai < na && Array.unsafe_get ag.gstart !ai < dstart then begin
      if Array.unsafe_get ag.gend !ai < dstart then begin
        (* ancestor-side skip: dead run (validated documents guarantee
           start < end, so end < dstart implies start < dstart) *)
        let j = ref (!ai + 1) in
        while
          !j < na
          &&
          (ag.e_meta !j;
           Array.unsafe_get ag.gend !j < dstart)
        do
          incr j
        done;
        let items = ag.off.(!j) - ag.off.(!ai) in
        work.Work.stack_ops <- work.Work.stack_ops + (2 * items);
        work.Work.items_skipped <-
          work.Work.items_skipped + items;
        ai := !j
      end
      else begin
        let astart = Array.unsafe_get ag.gstart !ai in
        pop_until astart;
        work.Work.stack_ops <-
          work.Work.stack_ops + (2 * (ag.off.(!ai + 1) - ag.off.(!ai)));
        push !ai;
        incr ai
      end
    end
    else begin
      pop_until dstart;
      if !sp = 0 then
        (* descendant-side skip *)
        if !ai >= na then begin
          work.Work.items_skipped <-
            work.Work.items_skipped + (dg.off.(nd) - dg.off.(!di));
          di := nd
        end
        else begin
          let j =
            gallop ~probe:dg.e_probe dg.gstart !di nd
              (Array.unsafe_get ag.gstart !ai)
          in
          if j > !di then begin
            work.Work.items_skipped <-
              work.Work.items_skipped + (dg.off.(j) - dg.off.(!di));
            di := j
          end
          else incr di
        end
      else begin
        dg.e_meta !di;
        let dend = Array.unsafe_get dg.gend !di in
        let dlevel = Array.unsafe_get dg.glevel !di in
        (* Deterministic work unit: one comparison per live stack entry
           examined for this descendant group.  The stack holds exactly
           the ancestor groups whose interval contains [dstart], which
           does not depend on shard boundaries (forest-closed cuts) or
           on engine (the legacy join scans the same stack), so totals
           are partition- and engine-invariant. *)
        work.Work.comparisons <- work.Work.comparisons + !sp;
        (* bottom-to-top = ancestor document order within this descendant *)
        for s = 0 to !sp - 1 do
          let g = Array.unsafe_get !stack s in
          if
            dend < Array.unsafe_get ag.gend g
            && Array.unsafe_get ag.gstart g < dstart
            && ((not is_child) || dlevel = Array.unsafe_get ag.glevel g + 1)
          then emit g !di
        done;
        incr di
      end
    end
  done;
  if drain && !ai < na then begin
    let items = ag.off.(na) - ag.off.(!ai) in
    work.Work.stack_ops <- work.Work.stack_ops + (2 * items);
    work.Work.items_skipped <- work.Work.items_skipped + items
  end

(* ---------- output forms ---------- *)

type _ out = Flat : Batch.t out | Boxed : Tuple.t array out

(* Output rows, taken once at their exact count: [width] ints per row
   in an array the execution's set lends, or one boxed tuple per row.
   A boxed row is merged into a one-row buffer and copied out by
   {!Tuple.of_slice}, the allocator every boxed result shares; it is
   never written flat and converted afterwards, because the root join's
   output is handed to the caller as [Tuple.t array] and for join-heavy
   patterns it dominates the run.  Being the result, it is the one
   output allocated fresh. *)
type _ rows =
  | Flat_rows : int array -> Batch.t rows
  | Boxed_rows : Tuple.t array -> Tuple.t array rows

let make_rows : type o. o out -> Scratch.t -> width:int -> int -> o rows =
 fun out scratch ~width n ->
  match out with
  | Flat -> Flat_rows (Scratch.alloc scratch (n * width))
  | Boxed -> Boxed_rows (Array.make n [||])

(* Write the merges of ancestor rows [alo, ahi) with descendant rows
   [dlo, dhi), row-major, as output rows [row ..]; a boxed row is merged
   in [buf] first. *)
let write_rows : type o.
    o rows -> buf:int array -> width:int -> anc:side -> desc:side -> int ->
    int -> int -> int -> int -> unit =
 fun r ~buf ~width ~anc ~desc row alo ahi dlo dhi ->
  match r with
  | Flat_rows out ->
      let o = ref (row * width) in
      for ar = alo to ahi - 1 do
        let ab = base anc ~width ar in
        for dr = dlo to dhi - 1 do
          merge_rows anc.data ab desc.data (base desc ~width dr) out !o width;
          o := !o + width
        done
      done
  | Boxed_rows out ->
      let o = ref row in
      for ar = alo to ahi - 1 do
        let ab = base anc ~width ar in
        for dr = dlo to dhi - 1 do
          merge_rows anc.data ab desc.data (base desc ~width dr) buf 0 width;
          Array.unsafe_set out !o (Tuple.of_slice buf 0 width);
          incr o
        done
      done

let finish_rows : type o. o rows -> width:int -> ?groups:Batch.groups -> int -> o
    =
 fun r ~width ?groups len ->
  match r with
  | Flat_rows a -> Batch.unsafe_of_raw ?groups ~width ~len a
  | Boxed_rows a -> a

(* ---------- the kernel ---------- *)

(* The tuple ceiling a kernel clamps its emits to, read once per kernel.
   A negative ceiling stops at the first tuple, exactly like 0 (the
   payload still reports the budget's own limit). *)
let ceiling (budget : Budget.t) =
  match budget.Budget.max_tuples with Some l -> max l 0 | None -> max_int

(* What {!record} learned about the ancestor groups [alo, ahi) it
   merged: the [nr / 3] rectangles (g, d0, d1) in generation order, the
   first row of each key counted from the merge's own first row, its
   [total] rows and the [ng] output-order groups that met a pair.  The
   arrays are a lane's: valid until the lane's next kernel. *)
type recording = {
  alo : int;
  ahi : int;
  rects : int array;
  nr : int;
  next : int array;
  total : int;
  ng : int;
}

(* Record and size, the first two of a join's three steps.

   Record.  The merge calls [emit g d] for every related (ancestor
   group, descendant group) pair; [emit] faults the pair's rows in (so
   page touches happen in merge order), counts its pairs in
   [tuples_emitted] and records the rectangle (g, d, d + 1): the rows of
   ancestor group [g] times those of descendant groups [d, d + 1), read
   back from [off] when written.  When [g] has one row and the previous
   rectangle is (g, _, d), that rectangle grows to end at [d + 1]
   instead: its rows stay in generation order.  Lazy leaves make every
   descendant group one row, so without this an out-of-core join
   records a rectangle per output pair.  A group pair that would cross
   the ceiling stops the join, counting up to the first tuple past
   [limit]: the same stopping tuple and the same [Tuples_materialized {
   limit; count = limit + 1 }] as the per-tuple check of
   [Stack_tree_legacy].  The rectangles go into the lane, which starts
   empty whatever its last holder left in it (the length [nr] is this
   call's), and grows by doubling only past its largest earlier use.

   Size.  Each rectangle has a key: 0 for Desc, which writes rectangles
   in generation order, and its ancestor group for Anc, which writes
   every pair of group [g] before any pair of a later group — the order
   the legacy variant's self/inherit chunk chaining emits.  Pair counts
   per key turn into row offsets (a stable counting sort).  Holding
   |AB| pairs until their ancestor pops is what the [2 |AB| f_IO] cost
   term prices, hence Anc's [io_items]. *)
let record ~by_anc ~budget ~work ~axis ~drain ~(lane : Scratch.lane) ag ~alo
    ~ahi dg ~dlo ~dhi =
  let keys = if by_anc then ahi - alo else 1 in
  let next = Scratch.reserve lane.Scratch.counts keys in
  lane.Scratch.counts <- next;
  Array.fill next 0 keys 0;
  let rects = ref lane.Scratch.rects and nr = ref 0 in
  (* the output-order groups that met a pair: an Anc group's first pair,
     or a new descendant group (they come in order) *)
  let ng = ref 0 and last_d = ref (-1) in
  let limit = ceiling budget in
  let emit g d =
    let a_lo = ag.off.(g) and a_hi = ag.off.(g + 1) in
    let d_lo = dg.off.(d) and d_hi = dg.off.(d + 1) in
    ag.e_rows a_lo a_hi;
    dg.e_rows d_lo d_hi;
    let npairs = (a_hi - a_lo) * (d_hi - d_lo) in
    let room = limit - work.Work.tuples_emitted in
    if npairs <= room then begin
      let n = !nr and r = !rects in
      if a_hi - a_lo = 1 && n > 0 && r.(n - 3) = g && r.(n - 1) = d then
        r.(n - 1) <- d + 1
      else begin
        let r =
          if n + 3 <= Array.length r then r
          else begin
            let bigger = Array.make (max 3072 (2 * n)) 0 in
            Array.blit r 0 bigger 0 n;
            rects := bigger;
            lane.Scratch.rects <- bigger;
            bigger
          end
        in
        r.(n) <- g;
        r.(n + 1) <- d;
        r.(n + 2) <- d + 1;
        nr := n + 3
      end;
      let k = if by_anc then g - alo else 0 in
      if (if by_anc then next.(k) = 0 else d <> !last_d) then incr ng;
      last_d := d;
      next.(k) <- next.(k) + npairs;
      work.Work.tuples_emitted <- work.Work.tuples_emitted + npairs
    end
    else begin
      (* at least one: a work record already past the ceiling stops at the
         next tuple *)
      work.Work.tuples_emitted <- work.Work.tuples_emitted + max 1 (room + 1);
      Budget.check_tuples budget ~during:"execute" ~count:work.Work.tuples_emitted
    end
  in
  merge_loop ~budget ~work ~axis ~drain ~lane ag ~alo ~ahi dg ~dlo ~dhi ~emit;
  let total = ref 0 in
  for k = 0 to keys - 1 do
    let c = next.(k) in
    next.(k) <- !total;
    total := !total + c
  done;
  let total = !total in
  if by_anc then work.Work.io_items <- work.Work.io_items + (2 * total);
  { alo; ahi; rects = !rects; nr = !nr; next; total; ng = !ng }

(* The groups a Flat output carries, in its output order's slot, written
   as groups [at ..] of [c] with rows counted from [row0]: the [rc.ng]
   groups of that side that met at least one pair.  For Anc, ancestor
   group [g]'s rows start at its key's offset and end where the next
   group's begin.  For Desc they are read off the rectangles in
   generation order: rectangle (g, d0, d1) writes ancestor [g]'s rows
   times descendant groups [d0, d1) in turn, and one descendant group's
   rectangles are consecutive.  Every group here met a pair, so its
   metadata was faulted in before the merge emitted it.  [c.off]'s last
   entry is the caller's to write. *)
let carry ~by_anc rc (ag : groups) (dg : groups) (c : Batch.groups) ~at ~row0 =
  let k = ref at in
  let add (g : groups) i row =
    c.off.(!k) <- row0 + row;
    c.gstart.(!k) <- g.gstart.(i);
    c.gend.(!k) <- g.gend.(i);
    c.glevel.(!k) <- g.glevel.(i);
    incr k
  in
  if by_anc then
    for g = rc.alo to rc.ahi - 1 do
      let first = rc.next.(g - rc.alo) in
      if (if g + 1 < rc.ahi then rc.next.(g + 1 - rc.alo) else rc.total) > first
      then add ag g first
    done
  else begin
    let r = rc.rects and last = ref (-1) and row = ref 0 in
    for i = 0 to (rc.nr / 3) - 1 do
      let g = r.(3 * i) in
      let arows = ag.off.(g + 1) - ag.off.(g) in
      for d = r.((3 * i) + 1) to r.((3 * i) + 2) - 1 do
        if d <> !last then begin
          add dg d !row;
          last := d
        end;
        row := !row + (arows * (dg.off.(d + 1) - dg.off.(d)))
      done
    done
  end

(* Write, the last step: rectangles in generation order, each at its
   key's next row, counted from [row0]; deadline and cancellation are
   polled every 256 rectangles. *)
let write : type o.
    o rows -> by_anc:bool -> budget:Budget.t -> width:int -> anc_i:input ->
    desc_i:input -> recording -> groups -> groups -> row0:int -> unit =
 fun rows ~by_anc ~budget ~width ~anc_i ~desc_i rc ag dg ~row0 ->
  let anc = side ~width anc_i and desc = side ~width desc_i in
  let buf =
    match rows with
    | Flat_rows _ -> [||]
    | Boxed_rows _ -> Array.make width Tuple.unbound
  in
  let r = rc.rects and next = rc.next in
  for i = 0 to (rc.nr / 3) - 1 do
    if i land poll_mask = poll_mask then Budget.check budget ~during:"execute";
    let g = r.(3 * i) in
    let alo = ag.off.(g) and ahi = ag.off.(g + 1) in
    let dlo = dg.off.(r.((3 * i) + 1)) and dhi = dg.off.(r.((3 * i) + 2)) in
    let k = if by_anc then g - rc.alo else 0 in
    let row = next.(k) in
    write_rows rows ~buf ~width ~anc ~desc (row0 + row) alo ahi dlo dhi;
    next.(k) <- row + ((ahi - alo) * (dhi - dlo))
  done

(* The output of recordings [recs], in order: rows and, for a Flat
   output, groups, taken once at their exact size from the execution's
   set.  Recording [k] writes its rows and groups after those of the
   recordings before it; [each f] calls [f k] once for every [k], in
   any order and on any domain, since no two write the same entry. *)
let assemble : type o.
    o out -> Scratch.t -> by_anc:bool -> budget:Budget.t -> width:int ->
    slot:int -> anc_i:input -> desc_i:input -> groups -> groups ->
    recording array -> each:((int -> unit) -> unit) -> o =
 fun out scratch ~by_anc ~budget ~width ~slot ~anc_i ~desc_i ag dg recs ~each ->
  let m = Array.length recs in
  let row0 = Array.make (m + 1) 0 and at = Array.make (m + 1) 0 in
  Array.iteri
    (fun k rc ->
      row0.(k + 1) <- row0.(k) + rc.total;
      at.(k + 1) <- at.(k) + rc.ng)
    recs;
  let total = row0.(m) in
  let rows = make_rows out scratch ~width total in
  let groups =
    match out with
    | Boxed -> None
    | Flat ->
        let c = Batch.make_groups scratch ~slot at.(m) in
        c.off.(at.(m)) <- total;
        Some c
  in
  each (fun k ->
      let rc = recs.(k) in
      Option.iter
        (fun c -> carry ~by_anc rc ag dg c ~at:at.(k) ~row0:row0.(k))
        groups;
      write rows ~by_anc ~budget ~width ~anc_i ~desc_i rc ag dg ~row0:row0.(k));
  finish_rows rows ~width ?groups total

(* ---------- sharded dispatch ---------- *)

(* Below this many total input rows the pool hand-off costs more than
   the merge; tests lower it to force sharding on tiny documents. *)
let default_par_min_rows = 4096

(* Decide whether (and where) to shard.  Parallelism is declined when
   the budget carries a tuple ceiling: the serial kernels stop after
   exactly the budgeted tuple, and per-shard counters cannot reproduce
   that global ordering.  Deadline/cancellation budgets poll per shard
   and stay on.  Returns the cut array only when it yields >= 2 shards.

   [force] materializes any disk-backed leaf inputs; it runs after the
   cheap size checks but before cut-point selection, which scans the
   full ancestor metadata columns.  Sharded merges therefore never
   fault lazily (see {!resident_view}): page accounting stays a
   deterministic full scan regardless of domain count, at the price of
   giving up skip-ahead IO savings on joins big enough to shard. *)
let shard_cuts ~pool ~par_min_rows ~budget ~force (ag : groups) (dg : groups) =
  match pool with
  | None -> None
  | Some p ->
      if
        Pool.size p <= 1 || ag.n < 2 || dg.n = 0
        || budget.Budget.max_tuples <> None
        || ag.off.(ag.n) + dg.off.(dg.n) < par_min_rows
      then None
      else begin
        force ();
        (* modest oversubscription so row-balanced cuts of skewed inputs
           still fill every domain *)
        let shards = min (2 * Pool.size p) ag.n in
        let cuts =
          Shard.cut_points ~shards ~off:ag.off ~gstart:ag.gstart ~gend:ag.gend
            ~n:ag.n
        in
        if Array.length cuts <= 2 then None else Some cuts
      end

type shard_stats = {
  sharded_joins : int;
  shard_rows_total : int;
  shard_rows_max_weighted : int;
}

(* Process-wide sums over every sharded join: a pool size's balance is
   judged over a whole workload, which no single query's result
   carries. *)
let sharded_joins = Atomic.make 0
let shard_rows_total = Atomic.make 0
let shard_rows_max_weighted = Atomic.make 0

let shard_stats () =
  {
    sharded_joins = Atomic.get sharded_joins;
    shard_rows_total = Atomic.get shard_rows_total;
    shard_rows_max_weighted = Atomic.get shard_rows_max_weighted;
  }

(* Groups whose columns are all readable already: a sharded join's
   inputs are forced (see {!shard_cuts}), and shards must not share a
   lazy leaf's page-run state — per-shard lazy faulting would make page
   accounting depend on domain interleaving. *)
let resident_view (g : groups) =
  { g with e_meta = no_ensure; e_probe = no_ensure; e_rows = no_ensure2 }

(* Shard [k] records the ancestor groups [cuts.(k), cuts.(k+1)) and
   exactly the descendant groups [dcuts.(k), dcuts.(k+1)): those whose
   start falls at-or-after its first ancestor's start and before the
   next shard's — containment pairs never cross a valid cut, so every
   pair is produced by exactly one shard.  Each shard records in its own
   lane of the execution's set, over ranges of the shared group columns;
   per-shard work is merged into [work] at the barrier (integer counters
   are order-independent sums).  Returns the recordings in shard
   order. *)
let record_sharded ~pool ~cuts ~work ~lanes ag dg record =
  let m = Array.length cuts - 1 in
  let dcuts =
    Array.init (m + 1) (fun k ->
        if k = 0 then 0
        else if k = m then dg.n
        else Shard.lower_bound dg.gstart ~lo:0 ~hi:dg.n ag.gstart.(cuts.(k)))
  in
  (* Shard-balance accounting, computed from the cuts alone — fully
     deterministic for a given pool size and input, independent of
     scheduling. *)
  let total = ref 0 and max_rows = ref 0 in
  for k = 0 to m - 1 do
    let rows =
      ag.off.(cuts.(k + 1))
      - ag.off.(cuts.(k))
      + (dg.off.(dcuts.(k + 1)) - dg.off.(dcuts.(k)))
    in
    total := !total + rows;
    if rows > !max_rows then max_rows := rows
  done;
  Atomic.incr sharded_joins;
  ignore (Atomic.fetch_and_add shard_rows_total !total);
  ignore (Atomic.fetch_and_add shard_rows_max_weighted (!max_rows * m));
  let results =
    Pool.run pool m (fun k ->
        let dhi = dcuts.(k + 1) in
        let shard_work = Work.zero () in
        let rc =
          record ~work:shard_work ~drain:(dhi < dg.n) ~lane:lanes.(k)
            ~alo:cuts.(k) ~ahi:cuts.(k + 1) ~dlo:dcuts.(k) ~dhi
        in
        (shard_work, rc))
  in
  Array.iter (fun (sw, _) -> Work.merge_into work sw) results;
  Array.map snd results

(* ---------- entry points ---------- *)

(* Group an input for a join on [slot].  A batch that carries the groups
   of [slot] (a join's or a sort's output, joined on the slot it is
   ordered by) is not read again; only a fetched stream, or a batch
   joined on another slot, is grouped by {!group}.  A leaf joined on its
   own bound slot is served lazily.  Any other slot is unbound in every
   row of a leaf, so {!group} over one such row raises what it would
   raise over the whole leaf, without reading the leaf at all; an empty
   leaf has no groups.  Document position columns are only built when a
   batch input actually needs them. *)
let group_input scratch ~cols (i : input) slot =
  match i with
  | Rows b -> (
      match Batch.grouped b with
      | Some c when c.Batch.slot = slot -> carried c
      | _ -> group scratch ~cols:(Lazy.force cols) b slot)
  | Leaf l when slot = l.lslot -> leaf_groups l
  | Leaf l ->
      let len = min 1 (Cols.length l.lcols) in
      group scratch ~cols:Cols.empty
        (Batch.unsafe_of_raw ~width:l.lwidth ~len
           (Array.make (len * l.lwidth) Tuple.unbound))
        slot

let force_input = function Rows _ -> () | Leaf l -> force_leaf l

(* Shard when the pool and budget allow (see [shard_cuts]), otherwise
   record serially in the set's own lane; either way the output is
   written once, each recording into its own range of it. *)
let join_in (type o) (out : o out) scratch ?(budget = Budget.unlimited) ?pool
    ?(par_min_rows = default_par_min_rows) ~work ~doc ~axis ~algo
    ~anc:(anc_i, anc_slot) ~desc:(desc_i, desc_slot) () : o =
  let width = input_width anc_i in
  if input_width desc_i <> width then
    invalid_arg "Stack_tree: input batch widths differ";
  let cols = lazy (Document.positions doc) in
  let ag = group_input scratch ~cols anc_i anc_slot in
  let dg = group_input scratch ~cols desc_i desc_slot in
  let by_anc, slot =
    match algo with
    | Plan.Stack_tree_anc -> (true, anc_slot)
    | Plan.Stack_tree_desc -> (false, desc_slot)
  in
  let assemble ag dg recs ~each =
    assemble out scratch ~by_anc ~budget ~width ~slot ~anc_i ~desc_i ag dg
      recs ~each
  in
  let force () =
    force_input anc_i;
    force_input desc_i
  in
  match shard_cuts ~pool ~par_min_rows ~budget ~force ag dg with
  | Some cuts ->
      let pool = Option.get pool in
      let ag = resident_view ag and dg = resident_view dg in
      let lanes = Scratch.lanes scratch (Array.length cuts - 1) in
      let recs =
        record_sharded ~pool ~cuts ~work ~lanes ag dg
          (record ~by_anc ~budget ~axis ag dg)
      in
      assemble ag dg recs ~each:(fun f ->
          ignore (Pool.run pool (Array.length recs) f))
  | None ->
      let rc =
        record ~by_anc ~budget ~work ~axis ~drain:false
          ~lane:(Scratch.lane scratch) ag ~alo:0 ~ahi:ag.n dg ~dlo:0 ~dhi:dg.n
      in
      assemble ag dg [| rc |] ~each:(fun f -> f 0)

let join ?budget ?pool ?par_min_rows ~work ~doc ~axis ~algo
    ~anc:(anc_tuples, anc_slot) ~desc:(desc_tuples, desc_slot) () =
  let width =
    if Array.length anc_tuples > 0 then Array.length anc_tuples.(0)
    else if Array.length desc_tuples > 0 then Array.length desc_tuples.(0)
    else 0
  in
  let rows tuples = Rows (Batch.of_tuples ~width tuples) in
  Scratch.with_set @@ fun scratch ->
  join_in Boxed scratch ?budget ?pool ?par_min_rows ~work ~doc ~axis ~algo
    ~anc:(rows anc_tuples, anc_slot) ~desc:(rows desc_tuples, desc_slot) ()
