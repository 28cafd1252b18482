(* [compare A B]: two sets of runs (JSON lines written by [run --out]),
   judged per workload on correctness, then metric by metric against the
   bounds in BENCHMARK.json. *)

module Json = Sjos_obs.Json

type direction = Lower | Higher

type bound = { name : string; unit_ : string; better : direction; bound : float }

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let field k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" k)

let str j = match j with Json.Str s -> s | _ -> failwith "expected a string"

let num j =
  match Json.number j with Some f -> f | None -> failwith "expected a number"

let load_bounds path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.of_string text with
  | Error msg -> failwith (path ^ ": " ^ msg)
  | Ok j -> (
      match field "end_to_end" j with
      | Json.List l ->
          List.map
            (fun m ->
              {
                name = str (field "name" m);
                unit_ = str (field "unit" m);
                better =
                  (match str (field "better" m) with
                  | "lower" -> Lower
                  | "higher" -> Higher
                  | s -> failwith ("better must be lower or higher, not " ^ s));
                bound = num (field "bound" m);
              })
            l
      | _ -> failwith (path ^ ": end_to_end is not a list"))

type run = {
  workload : string;
  sound : bool;  (** the child exited 0 and reported [correct] *)
  failed : int;
  metrics : (string * float) list;
}

(* One record per line: {"workload", "seed", "trace", "exited_ok",
   "result"}.  Traced runs carry per-layer metrics only and are skipped. *)
let load_runs path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun line ->
         match Json.of_string line with
         | Error msg -> failwith (path ^ ": " ^ msg)
         | Ok j ->
             if Json.member "trace" j = Some (Json.Bool true) then None
             else
               let result = field "result" j in
               let metrics =
                 match field "metrics" result with
                 | Json.Obj l -> List.map (fun (k, v) -> (k, num (field "value" v))) l
                 | _ -> failwith (path ^ ": metrics is not an object")
               in
               Some
                 {
                   workload = str (field "workload" j);
                   sound =
                     field "exited_ok" j = Json.Bool true
                     && field "correct" result = Json.Bool true;
                   failed = int_of_float (num (field "failed" result));
                   metrics;
                 })

(* A workload's results: regressed when any B run is unsound or failed
   more requests than every A run did.  Timings of a B set that gets
   answers wrong mean nothing, so this is judged before any metric. *)
let correctness a b =
  let most runs = List.fold_left (fun m r -> max m r.failed) 0 runs in
  if List.exists (fun r -> not r.sound) b || most b > most a then Regressed
  else Unchanged

(* [b] against [a]: regressed when B's median is worse than A's by more
   than the bound; unresolved when either side's quartile spread exceeds
   the bound and B does not beat A on every run; improved when B wins at
   least nine tenths of all (a, b) pairs and the medians differ by more
   than A's own spread. *)
let verdict bound a b =
  let ma = Stats.median a and mb = Stats.median b in
  let better x y = match bound.better with Lower -> y < x | Higher -> y > x in
  let worse_by =
    (match bound.better with Lower -> mb -. ma | Higher -> ma -. mb)
    /. Float.abs ma
  in
  let pairs = Array.length a * Array.length b in
  let wins =
    Array.fold_left
      (fun n x -> Array.fold_left (fun n y -> if better x y then n + 1 else n) n b)
      0 a
  in
  if Float.max (Stats.spread a) (Stats.spread b) > bound.bound && wins < pairs
  then Unresolved
  else if worse_by > bound.bound then Regressed
  else if
    worse_by < 0.0
    && -.worse_by > Stats.spread a
    && float_of_int wins >= 0.9 *. float_of_int pairs
  then Improved
  else Unchanged

let min_runs = 5

let run ~spec a_path b_path =
  let bounds = load_bounds spec in
  let a = load_runs a_path and b = load_runs b_path in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b))
  in
  let of_workload runs w = List.filter (fun r -> r.workload = w) runs in
  let values runs w name =
    Array.of_list
      (List.filter_map (fun r -> List.assoc_opt name r.metrics) (of_workload runs w))
  in
  Printf.printf "%-12s %-16s %28s %28s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "verdict";
  let bad = ref 0 in
  List.iter
    (fun w ->
      let ra = of_workload a w and rb = of_workload b w in
      let show runs =
        Printf.sprintf "%d unsound, %d failed"
          (List.length (List.filter (fun r -> not r.sound) runs))
          (List.fold_left (fun n r -> n + r.failed) 0 runs)
      in
      let v = correctness ra rb in
      if v = Regressed then incr bad;
      Printf.printf "%-12s %-16s %28s %28s  %s\n" w "correctness" (show ra)
        (show rb) (verdict_name v);
      List.iter
        (fun bd ->
          let va = values a w bd.name and vb = values b w bd.name in
          let show v =
            if Array.length v < 2 then Printf.sprintf "%d runs" (Array.length v)
            else
              let q1, _, q3 = Stats.quartiles v in
              Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median v) q1 q3
          in
          let v =
            if Array.length va < min_runs || Array.length vb < min_runs then
              Unresolved
            else verdict bd va vb
          in
          if v = Regressed || v = Unresolved then incr bad;
          Printf.printf "%-12s %-16s %28s %28s  %s (bound %g, %s)\n" w bd.name
            (show va) (show vb) (verdict_name v) bd.bound bd.unit_)
        bounds)
    workloads;
  if !bad > 0 then begin
    Printf.printf "%d pair(s) regressed or unresolved (need %d runs a side)\n"
      !bad min_runs;
    exit 1
  end
