(* Grow-only int arrays the join and sort kernels reuse between calls,
   so a kernel allocates only the arrays it returns.

   Sets live on one process-wide free list, an immutable list behind an
   [Atomic] compare-and-set: a kernel pops a set (or makes one when the
   list is empty), owns it for the whole call and pushes it back.  A set
   is therefore never shared: not by two pool domains, and not by two
   server connection threads on one domain, which [Domain.DLS] would
   hand the same buffer.  A new set is made only when every existing one
   is held, so the list never holds more sets than kernels have run at
   once.  The CAS compares list cells, and a pushed cell is always fresh,
   so a set popped and pushed back in between makes the CAS fail rather
   than succeed on a stale tail. *)

type t = {
  mutable rects : int array;
  mutable counts : int array;
  mutable stack : int array;
  mutable keys : int array;
  mutable keys' : int array;
}

(* A buffer longer than this many ints (2 MiB) goes back to the
   collector when its set is returned, so one huge join does not pin its
   peak on the free list for the life of the process. *)
let max_kept = 1 lsl 18

let free : t list Atomic.t = Atomic.make []

let fresh () =
  { rects = [||]; counts = [||]; stack = [||]; keys = [||]; keys' = [||] }

let rec take () =
  match Atomic.get free with
  | [] -> fresh ()
  | s :: rest as l -> if Atomic.compare_and_set free l rest then s else take ()

let trim a = if Array.length a > max_kept then [||] else a

let rec give s =
  let l = Atomic.get free in
  if not (Atomic.compare_and_set free l (s :: l)) then give s

let with_set f =
  let s = take () in
  Fun.protect
    ~finally:(fun () ->
      s.rects <- trim s.rects;
      s.counts <- trim s.counts;
      s.stack <- trim s.stack;
      s.keys <- trim s.keys;
      s.keys' <- trim s.keys';
      give s)
    (fun () -> f s)

let reserve a n =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

let free_sets () = List.length (Atomic.get free)

let longest_kept () =
  List.fold_left
    (fun m s ->
      List.fold_left
        (fun m a -> max m (Array.length a))
        m
        [ s.rects; s.counts; s.stack; s.keys; s.keys' ])
    0 (Atomic.get free)
