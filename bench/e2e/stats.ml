(* Order statistics shared by the workloads, the report and [compare]. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an already sorted sample ([p] in 0..1):
   the smallest value with at least [p] of the sample at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The percentiles a sample of [n] supports: the highest of these with at
   least ten samples beyond it is the tail percentile worth reporting. *)
let candidate_percentiles = [ 0.999; 0.99; 0.9; 0.5 ]

let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. p) >= 10.0 -. 1e-9)
    candidate_percentiles

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] computes
   them (the default "exclusive" method), so spreads printed here agree
   with any script that checks the same runs. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* Distance between the first and third quartile as a share of the
   median: the run-to-run noise a bound has to exceed. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs m
