open Sjos_obs

type fault = Truncate_candidates | Unsort_candidates | Lie_cardinalities

type t = {
  seed : int;
  fault_list : fault list;
  mutable state : int64;
  (* shared between a parent and its [derive]d children, so the
     diagnostic total survives per-query stream splitting *)
  injected : int Atomic.t;
}

let all_faults = [ Truncate_candidates; Unsort_candidates; Lie_cardinalities ]

(* splitmix64: tiny, deterministic, and decoupled from Stdlib.Random. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ?(faults = all_faults) ~seed () =
  {
    seed;
    fault_list = faults;
    state = Int64.of_int ((2 * seed) + 1);
    injected = Atomic.make 0;
  }

let seed t = t.seed
let injected t = Atomic.get t.injected

(* An independent stream for [key], pure in (parent seed, key): the
   parent's generator state is never read or advanced, so the faults a
   query sees depend only on the configured seed and the query itself —
   never on how many streams other queries consumed first, or on domain
   scheduling.  The injection total is shared with the parent. *)
let derive t ~key =
  let h =
    String.fold_left
      (fun acc c -> mix (Int64.logxor acc (Int64.of_int (Char.code c))))
      (mix (Int64.of_int ((2 * t.seed) + 1)))
      key
  in
  let child_seed = Int64.to_int (Int64.logand h 0x3FFFFFFFFFFFFFFL) in
  {
    seed = child_seed;
    fault_list = t.fault_list;
    state = Int64.of_int ((2 * child_seed) + 1);
    injected = t.injected;
  }

let next t =
  t.state <- Int64.add t.state 0x9e3779b97f4a7c15L;
  mix t.state

let next_int t n =
  if n <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int)
                       (Int64.of_int n))

let enabled t f = List.mem f t.fault_list
let flip t = Int64.logand (next t) 1L = 0L

let wrap_candidates t candidates =
  let n = Array.length candidates in
  let stream_faults =
    List.filter
      (fun f -> f <> Lie_cardinalities && enabled t f)
      t.fault_list
  in
  if stream_faults = [] || n = 0 || not (flip t) then candidates
  else
    let f = List.nth stream_faults (next_int t (List.length stream_faults)) in
    match f with
    | Truncate_candidates ->
        Atomic.incr t.injected;
        Array.sub candidates 0 (next_int t n)
    | Unsort_candidates ->
        if n < 2 then candidates
        else begin
          let i = next_int t n in
          let j = (i + 1 + next_int t (n - 1)) mod n in
          if candidates.(i) = candidates.(j) then candidates
          else begin
            Atomic.incr t.injected;
            let c = Array.copy candidates in
            let tmp = c.(i) in
            c.(i) <- c.(j);
            c.(j) <- tmp;
            c
          end
        end
    | Lie_cardinalities -> candidates

(* A per-mask multiplicative lie in [1/64, 64], deterministic in
   (seed, mask) so the wrapped provider remains a function. *)
let lie_factor t mask =
  let h = mix (Int64.of_int (((t.seed * 0x1f123bb5) lxor mask) lor 1)) in
  let exp = Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) 13L) - 6 in
  Float.pow 2.0 (float_of_int exp)

let wrap_provider t (p : Sjos_plan.Costing.provider) =
  if not (enabled t Lie_cardinalities) then p
  else begin
    Atomic.incr t.injected;
    {
      Sjos_plan.Costing.node_card =
        (fun i -> p.Sjos_plan.Costing.node_card i *. lie_factor t (1 lsl i));
      cluster_card =
        (fun mask -> p.Sjos_plan.Costing.cluster_card mask *. lie_factor t mask);
    }
  end

let fault_name = function
  | Truncate_candidates -> "truncate_candidates"
  | Unsort_candidates -> "unsort_candidates"
  | Lie_cardinalities -> "lie_cardinalities"

let to_json t =
  Json.Obj
    [
      ("seed", Json.Int t.seed);
      ( "faults",
        Json.List (List.map (fun f -> Json.Str (fault_name f)) t.fault_list) );
      ("injected", Json.Int (Atomic.get t.injected));
    ]
