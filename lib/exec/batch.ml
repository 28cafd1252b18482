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

type t = { width : int; mutable len : int; mutable data : int array }

let create width =
  { width; len = 0; data = Array.make (max width (64 * width)) Tuple.unbound }

let width b = b.width
let length b = b.len
let data b = b.data

let get b row slot = b.data.((row * b.width) + slot)

let unsafe_of_raw ~width ~len data =
  if len * width > Array.length data then
    invalid_arg "Batch.unsafe_of_raw: data shorter than len * width";
  { width; len; data }

let of_tuples ~width (tuples : Tuple.t array) =
  let n = Array.length tuples in
  let data = Array.make (n * width) Tuple.unbound in
  for i = 0 to n - 1 do
    let t = Array.unsafe_get tuples i in
    if Array.length t <> width then
      invalid_arg "Batch.of_tuples: tuple width mismatch";
    Array.blit t 0 data (i * width) width
  done;
  { width; len = n; data }

let to_tuples b =
  let { width; len; data } = b in
  (* not [Array.init]: its first row, young, would force a minor GC
     whenever the result is allocated straight in the major heap *)
  let out = Array.make len ([||] : Tuple.t) in
  for i = 0 to len - 1 do
    Array.unsafe_set out i (Tuple.of_slice data (i * width) width)
  done;
  out

let of_ids ~width ~slot (ids : int array) =
  if slot < 0 || slot >= width then invalid_arg "Batch.of_ids: slot out of range";
  let n = Array.length ids in
  let data = Array.make (n * width) Tuple.unbound in
  for i = 0 to n - 1 do
    Array.unsafe_set data ((i * width) + slot) (Array.unsafe_get ids i)
  done;
  { width; len = n; data }

(* ---------- key-column sorts ---------- *)

(* Stable permutation sort on a precomputed int key column: the comparator
   touches only machine ints — no [Document.node] calls, no polymorphic
   compare. *)
let sort_perm (keys : int array) =
  let n = Array.length keys in
  let perm = Array.init n (fun i -> i) in
  Array.stable_sort
    (fun i j -> Int.compare (Array.unsafe_get keys i) (Array.unsafe_get keys j))
    perm;
  perm

let key_of_id ~what (starts : int array) id =
  if id < 0 || id >= Array.length starts then
    invalid_arg (Printf.sprintf "%s: id %d out of range" what id)
  else Array.unsafe_get starts id

let sort ~doc ~by b =
  let { Cols.starts; _ } = Document.positions doc in
  let n = b.len and w = b.width in
  if n > 0 && (by < 0 || by >= w) then invalid_arg "Batch.sort: slot out of range";
  let keys = Array.make n 0 in
  for i = 0 to n - 1 do
    keys.(i) <-
      key_of_id ~what:"Batch.sort" starts (Array.unsafe_get b.data ((i * w) + by))
  done;
  let perm = sort_perm keys in
  let data = Array.make (n * w) Tuple.unbound in
  for i = 0 to n - 1 do
    Array.blit b.data (Array.unsafe_get perm i * w) data (i * w) w
  done;
  { width = w; len = n; data }
