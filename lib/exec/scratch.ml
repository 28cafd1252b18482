(* Int arrays the operators of one execution reuse from earlier
   executions, so an execution allocates only its result.

   Sets live on one process-wide free list, an immutable list behind an
   [Atomic] compare-and-set: an execution pops a set (or makes one when
   the list is empty), owns it for the whole run and pushes it back.  A
   set is therefore never shared: not by two pool domains, and not by two
   server connection threads on one domain, which [Domain.DLS] would
   hand the same buffer.  A new set is made only when every existing one
   is held, so the list never holds more sets than executions have run
   at once.  The CAS compares list cells, and a pushed cell is always
   fresh, so a set popped and pushed back in between makes the CAS fail
   rather than succeed on a stale tail.

   A set has two parts.  Its lanes are the kernels' working buffers,
   dead once a kernel returns: lane 0 serves the serial kernels, lane
   [k] the [k]-th shard of a sharded join.  Its arena lends the arrays
   operators return, which live until the set goes back: buffers come in
   power-of-two size classes, a request takes a free buffer of the
   smallest class that holds it, and every lent buffer is free again
   once the set is returned.  A class keeps at most [max_kept] ints of
   free buffers, so however many arrays one run needed, a set keeps at
   most 15 classes of 2 MiB. *)

type lane = {
  mutable rects : int array;
  mutable counts : int array;
  mutable stack : int array;
  mutable keys : int array;
  mutable keys' : int array;
}

(* Size class [c] holds buffers of exactly [1 lsl c] ints. *)
let min_class = 4
let max_class = 18

(* A buffer longer than this many ints (2 MiB) goes back to the
   collector when its set is returned, so one huge join does not pin its
   peak on the free list for the life of the process; so do the free
   buffers of a class past this many ints in all. *)
let max_kept = 1 lsl max_class

type t = {
  mutable lanes : lane array;
  spare : int array list array;  (* free arena buffers, by size class *)
  kept : int array;  (* the length of each class's [spare] list *)
  mutable lent : int array list;  (* arena buffers lent since taken *)
}

let fresh_lane () =
  { rects = [||]; counts = [||]; stack = [||]; keys = [||]; keys' = [||] }

let free : t list Atomic.t = Atomic.make []

let fresh () =
  {
    lanes = [| fresh_lane () |];
    spare = Array.make (max_class + 1) [];
    kept = Array.make (max_class + 1) 0;
    lent = [];
  }

let rec take () =
  match Atomic.get free with
  | [] -> fresh ()
  | s :: rest as l -> if Atomic.compare_and_set free l rest then s else take ()

let rec give s =
  let l = Atomic.get free in
  if not (Atomic.compare_and_set free l (s :: l)) then give s

let trim a = if Array.length a > max_kept then [||] else a

let class_of n =
  let rec go c = if 1 lsl c >= n then c else go (c + 1) in
  go min_class

(* Every lent buffer is free again, up to [max_kept] ints a class; lane
   buffers past [max_kept] go.  Lent buffers are never longer than
   [max_kept] ({!alloc}). *)
let release s =
  List.iter
    (fun a ->
      let c = class_of (Array.length a) in
      if (s.kept.(c) + 1) lsl c <= max_kept then begin
        s.spare.(c) <- a :: s.spare.(c);
        s.kept.(c) <- s.kept.(c) + 1
      end)
    s.lent;
  s.lent <- [];
  Array.iter
    (fun l ->
      l.rects <- trim l.rects;
      l.counts <- trim l.counts;
      l.stack <- trim l.stack;
      l.keys <- trim l.keys;
      l.keys' <- trim l.keys')
    s.lanes

let with_set f =
  let s = take () in
  Fun.protect
    ~finally:(fun () ->
      release s;
      give s)
    (fun () -> f s)

let lane s = s.lanes.(0)

let lanes s n =
  let have = Array.length s.lanes in
  if have < n then
    s.lanes <-
      Array.init n (fun k -> if k < have then s.lanes.(k) else fresh_lane ());
  s.lanes

let alloc s n =
  if n > max_kept then Array.make n 0
  else begin
    let c = class_of n in
    let a =
      match s.spare.(c) with
      | a :: rest ->
          s.spare.(c) <- rest;
          s.kept.(c) <- s.kept.(c) - 1;
          a
      | [] -> Array.make (1 lsl c) 0
    in
    s.lent <- a :: s.lent;
    a
  end

let reserve a n =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

let free_sets () = List.length (Atomic.get free)

let longest_kept () =
  let longest m l = List.fold_left (fun m a -> max m (Array.length a)) m l in
  List.fold_left
    (fun m s ->
      let m = Array.fold_left longest m s.spare in
      Array.fold_left
        (fun m l -> longest m [ l.rects; l.counts; l.stack; l.keys; l.keys' ])
        m s.lanes)
    0 (Atomic.get free)
