open Sjos_xml

(* ---------- reusable growable int buffer ---------- *)

module Ibuf = struct
  type t = { mutable len : int; mutable data : int array }

  let create cap = { len = 0; data = Array.make (max cap 16) 0 }
  let length b = b.len

  let push b v =
    if b.len = Array.length b.data then begin
      let data = Array.make (2 * b.len) 0 in
      Array.blit b.data 0 data 0 b.len;
      b.data <- data
    end;
    Array.unsafe_set b.data b.len v;
    b.len <- b.len + 1

  let data b = b.data
end

(* ---------- columnar tuple batches ---------- *)

type groups = {
  slot : int;
  n : int;
  off : int array;
  gstart : int array;
  gend : int array;
  glevel : int array;
}

type t = { width : int; len : int; data : int array; groups : groups option }

let make_groups scratch ~slot n =
  let a = Scratch.alloc scratch in
  { slot; n; off = a (n + 1); gstart = a n; gend = a n; glevel = a n }

let width b = b.width
let length b = b.len
let data b = b.data
let grouped b = b.groups

let get b row slot = b.data.((row * b.width) + slot)

let unsafe_of_raw ?groups ~width ~len data =
  if len * width > Array.length data then
    invalid_arg "Batch.unsafe_of_raw: data shorter than len * width";
  (match groups with
  | Some g when g.off.(g.n) <> len ->
      invalid_arg "Batch.unsafe_of_raw: groups do not cover the rows"
  | _ -> ());
  { width; len; data; groups }

let of_tuples ~width (tuples : Tuple.t array) =
  let n = Array.length tuples in
  let data = Array.make (n * width) Tuple.unbound in
  for i = 0 to n - 1 do
    let t = Array.unsafe_get tuples i in
    if Array.length t <> width then
      invalid_arg "Batch.of_tuples: tuple width mismatch";
    Array.blit t 0 data (i * width) width
  done;
  { width; len = n; data; groups = None }

let to_tuples b =
  let { width; len; data; _ } = b in
  (* not [Array.init]: its first row, young, would force a minor GC
     whenever the result is allocated straight in the major heap *)
  let out = Array.make len ([||] : Tuple.t) in
  for i = 0 to len - 1 do
    Array.unsafe_set out i (Tuple.of_slice data (i * width) width)
  done;
  out

let of_ids scratch ~width ~slot (ids : int array) =
  if slot < 0 || slot >= width then invalid_arg "Batch.of_ids: slot out of range";
  let n = Array.length ids in
  let data = Scratch.alloc scratch (n * width) in
  Array.fill data 0 (n * width) Tuple.unbound;
  for i = 0 to n - 1 do
    Array.unsafe_set data ((i * width) + slot) (Array.unsafe_get ids i)
  done;
  { width; len = n; data; groups = None }

(* ---------- the sort ---------- *)

(* Bits needed to write [x >= 0] in binary (0 for 0). *)
let bits x =
  let rec go b = if x lsr b = 0 then b else go (b + 1) in
  go 0

(* Stable LSD radix sort of rows [0, n) by the id in [by].  Pre-order
   ids are document order ({!Document.of_nodes} rejects anything else),
   so this is the stable sort by start position without reading a
   single position.  Each row's key is packed with its row index,
   [(id - lo) lsl ib lor row], and passes of at most 11 bits run over
   the id part only, so the packed words sort stably and carry their row
   along; a pass costs two sequential sweeps, and at Mbench 740K's 20-bit
   ids there are two passes.  Returns the array holding the sorted
   packed keys and [ib], the width of their row part. *)
let radix (s : Scratch.lane) data ~w ~by ~n ~lo ~hi =
  let ib = bits (n - 1) and kb = bits (hi - lo) in
  let passes = (kb + 10) / 11 in
  let d = (kb + passes - 1) / passes in
  let src = ref (Scratch.reserve s.Scratch.keys n)
  and dst = ref (Scratch.reserve s.Scratch.keys' n) in
  s.Scratch.keys <- !src;
  s.Scratch.keys' <- !dst;
  let counts = Scratch.reserve s.Scratch.counts ((1 lsl d) + 1) in
  s.Scratch.counts <- counts;
  let a = !src in
  for i = 0 to n - 1 do
    Array.unsafe_set a i
      (((Array.unsafe_get data ((i * w) + by) - lo) lsl ib) lor i)
  done;
  let mask = (1 lsl d) - 1 in
  for p = 0 to passes - 1 do
    let shift = ib + (p * d) and a = !src and b = !dst in
    Array.fill counts 0 (mask + 2) 0;
    for i = 0 to n - 1 do
      let k = ((Array.unsafe_get a i lsr shift) land mask) + 1 in
      Array.unsafe_set counts k (Array.unsafe_get counts k + 1)
    done;
    for k = 1 to mask do
      Array.unsafe_set counts k
        (Array.unsafe_get counts k + Array.unsafe_get counts (k - 1))
    done;
    for i = 0 to n - 1 do
      let v = Array.unsafe_get a i in
      let k = (v lsr shift) land mask in
      let at = Array.unsafe_get counts k in
      Array.unsafe_set b at v;
      Array.unsafe_set counts k (at + 1)
    done;
    src := b;
    dst := a
  done;
  (!src, ib)

(* The groups of slot [by] in rows sorted by it: one per run of equal
   ids, positions from the document's columns. *)
let groups_of scratch (cols : Cols.t) data ~w ~by ~n =
  let ng = ref 0 and prev = ref Tuple.unbound in
  for i = 0 to n - 1 do
    let id = Array.unsafe_get data ((i * w) + by) in
    if id <> !prev then begin
      incr ng;
      prev := id
    end
  done;
  let c = make_groups scratch ~slot:by !ng in
  let g = ref 0 and prev = ref Tuple.unbound in
  for i = 0 to n - 1 do
    let id = Array.unsafe_get data ((i * w) + by) in
    if id <> !prev then begin
      let k = !g in
      c.off.(k) <- i;
      c.gstart.(k) <- cols.Cols.starts.(id);
      c.gend.(k) <- cols.Cols.ends.(id);
      c.glevel.(k) <- cols.Cols.levels.(id);
      g := k + 1;
      prev := id
    end
  done;
  c.off.(!ng) <- n;
  c

let sort scratch ~doc ~by b =
  let cols = Document.positions doc in
  let size = Array.length cols.Cols.starts in
  let n = b.len and w = b.width and data = b.data in
  if n > 0 && (by < 0 || by >= w) then invalid_arg "Batch.sort: slot out of range";
  let lo = ref max_int and hi = ref min_int and sorted = ref true in
  for i = 0 to n - 1 do
    let id = Array.unsafe_get data ((i * w) + by) in
    if id < 0 || id >= size then
      invalid_arg (Printf.sprintf "Batch.sort: id %d out of range" id);
    if id < !hi then sorted := false else hi := id;
    if id < !lo then lo := id
  done;
  (* rows already in order (a sort after a join that emits them so) are
     shared, not copied: a batch is never written after it is built *)
  let data =
    if !sorted then data
    else begin
      let keys, ib =
        radix (Scratch.lane scratch) data ~w ~by ~n ~lo:!lo ~hi:!hi
      in
      let rmask = (1 lsl ib) - 1 in
      let out = Scratch.alloc scratch (n * w) in
      for i = 0 to n - 1 do
        let src = (Array.unsafe_get keys i land rmask) * w and dst = i * w in
        for k = 0 to w - 1 do
          Array.unsafe_set out (dst + k) (Array.unsafe_get data (src + k))
        done
      done;
      out
    end
  in
  {
    width = w;
    len = n;
    data;
    groups = Some (groups_of scratch cols data ~w ~by ~n);
  }
