(* Unit tests for the statistics the benchmark reports, and a smoke run
   of every workload at a tiny size.

   Usage: test_e2e.exe MAIN_EXE BENCHMARK_JSON *)

open Sjos_e2e
module Json = Sjos_obs.Json

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let stats () =
  (* the highest percentile with at least ten samples beyond it *)
  check "tail of 9" (Stats.tail_percentile 9 = None);
  check "tail of 20" (Stats.tail_percentile 20 = Some 0.5);
  check "tail of 100" (Stats.tail_percentile 100 = Some 0.9);
  check "tail of 999" (Stats.tail_percentile 999 = Some 0.9);
  check "tail of 1000" (Stats.tail_percentile 1000 = Some 0.99);
  check "tail of 3000" (Stats.tail_percentile 3000 = Some 0.99);
  check "tail of 10000" (Stats.tail_percentile 10000 = Some 0.999);
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let s = Stats.sorted ten in
  check "p50 nearest rank" (Stats.percentile s 0.5 = 5.0);
  check "p90 nearest rank" (Stats.percentile s 0.9 = 9.0);
  check "p99 nearest rank" (Stats.percentile s 0.99 = 10.0);
  check "median even" (Stats.median ten = 5.5);
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles ten in
  check "quartiles of 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  (* statistics.quantiles([1, 2, 3, 4, 5], n=4) = [1.5, 3.0, 4.5] *)
  let q1, q2, q3 = Stats.quartiles [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  check "quartiles of 1..5" (close q1 1.5 && close q2 3.0 && close q3 4.5);
  check "spread of 1..10" (close (Stats.spread ten) 1.0);
  check "spread of a constant" (Stats.spread [| 4.0; 4.0; 4.0 |] = 0.0)

let verdicts () =
  let bound better = { Compare.name = "m"; unit_ = "ms"; better; bound = 0.1 } in
  let runs base = Array.init 6 (fun i -> base *. (1.0 +. (0.002 *. float_of_int i))) in
  let v = Compare.verdict in
  check "same runs unchanged" (v (bound Compare.Lower) (runs 10.0) (runs 10.0) = Compare.Unchanged);
  check "slower regressed" (v (bound Compare.Lower) (runs 10.0) (runs 12.0) = Compare.Regressed);
  check "faster improved" (v (bound Compare.Lower) (runs 10.0) (runs 8.0) = Compare.Improved);
  check "higher-is-better regressed" (v (bound Compare.Higher) (runs 10.0) (runs 8.0) = Compare.Regressed);
  let noisy = [| 5.0; 8.0; 10.0; 12.0; 15.0; 10.0 |] in
  check "noisy unresolved" (v (bound Compare.Lower) noisy (runs 10.0) = Compare.Unresolved)

(* A run set that gets answers wrong regresses whatever its timings. *)
let correctness () =
  let path = Filename.temp_file "sjos-e2e-runs" ".jsonl" in
  let line ~exited_ok ~correct ~failed =
    Printf.sprintf
      {|{"workload":"w","seed":1,"trace":false,"exited_ok":%b,"result":{"correct":%b,"attempted":9,"failed":%d,"metrics":{"latency_p50_ms":{"value":1.5,"unit":"ms"}}}}|}
      exited_ok correct failed
  in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        [
          line ~exited_ok:true ~correct:true ~failed:0;
          line ~exited_ok:false ~correct:false ~failed:2;
          line ~exited_ok:false ~correct:true ~failed:0;
        ]);
  let runs = Compare.load_runs path in
  Sys.remove path;
  let good, wrong, crashed =
    match runs with [ a; b; c ] -> (a, b, c) | _ -> failwith "expected three runs"
  in
  check "run sound" good.Compare.sound;
  check "incorrect run unsound" (not wrong.Compare.sound && wrong.failed = 2);
  check "failed exit unsound" (not crashed.Compare.sound);
  check "sound runs unchanged" (Compare.correctness [ good ] [ good ] = Compare.Unchanged);
  check "incorrect B regressed" (Compare.correctness [ good ] [ good; wrong ] = Compare.Regressed);
  check "failed exit regressed" (Compare.correctness [ good ] [ crashed ] = Compare.Regressed);
  check "more failures regressed"
    (Compare.correctness [ good ] [ { good with failed = 1 } ] = Compare.Regressed);
  check "as many failures as A unchanged"
    (Compare.correctness [ { good with failed = 1 } ] [ { good with failed = 1 } ]
    = Compare.Unchanged)

(* ---------- smoke ---------- *)

let metric_list spec key =
  match Json.member key spec with
  | Some (Json.List l) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | _ -> failwith "metric without name or unit")
        l
  | _ -> failwith ("BENCHMARK.json has no " ^ key)

(* Runs [exe]; returns its exit status, stdout and stderr (the server
   logs a line on every drain, so stderr is shown only on failure). *)
let run_capture exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let err_path = Filename.temp_file "sjos-e2e" ".err" in
  let err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w err
  in
  Unix.close w;
  Unix.close err;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let stderr = In_channel.with_open_bin err_path In_channel.input_all in
  Sys.remove err_path;
  (status, out, stderr)

let last_line s =
  match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let smoke exe spec =
  let expected trace = metric_list spec (if trace then "per_layer" else "end_to_end") in
  let ours trace =
    List.map (fun (m : Spec.metric) -> (m.mname, m.unit_)) (Spec.metrics ~trace)
  in
  check "end_to_end names and units agree with Spec"
    (List.sort compare (expected false) = List.sort compare (ours false));
  check "per_layer names and units agree with Spec"
    (List.sort compare (expected true) = List.sort compare (ours true));
  (match Json.member "workloads" spec with
  | Some (Json.List l) ->
      check "workloads agree with Spec"
        (List.sort compare
           (List.map (fun w -> Json.member "name" w) l)
        = List.sort compare
            (List.map (fun w -> Some (Json.Str w.Spec.name)) Spec.workloads))
  | _ -> check "BENCHMARK.json lists workloads" false);
  let dir = Filename.temp_dir "sjos-e2e-smoke" "" in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () ->
      Sys.chdir cwd;
      Common.remove_tree dir)
  @@ fun () ->
  List.iter
    (fun (w : Spec.workload) ->
      List.iter
        (fun trace ->
          let name = Printf.sprintf "%s --trace %b" w.name trace in
          let trace_out = Filename.concat "_e2e" ("trace-" ^ w.name ^ ".json") in
          let before = !failures in
          let status, out, stderr =
            run_capture exe
              [
                "--workload"; w.name; "--seed"; "3"; "--seconds"; "0.5";
                "--trace"; (if trace then "1" else "0");
                "--scale"; "0.02";
              ]
          in
          check (name ^ " exits 0") (status = Unix.WEXITED 0);
          Fun.protect ~finally:(fun () ->
              if !failures > before then print_string stderr)
          @@ fun () ->
          match Json.of_string (last_line out) with
          | Error msg -> check (name ^ " result line parses: " ^ msg) false
          | Ok r ->
              check (name ^ " correct") (Json.member "correct" r = Some (Json.Bool true));
              check (name ^ " failed = 0") (Json.member "failed" r = Some (Json.Int 0));
              check (name ^ " attempted >= 1")
                (match Json.member "attempted" r with
                | Some (Json.Int n) -> n >= 1
                | _ -> false);
              let printed =
                match Json.member "metrics" r with
                | Some (Json.Obj l) ->
                    List.filter_map
                      (fun (k, v) ->
                        match (Json.member "value" v, Json.member "unit" v) with
                        | Some x, Some (Json.Str u) when Json.number x <> None ->
                            Some (k, u)
                        | _ -> None)
                      l
                | _ -> []
              in
              check (name ^ " prints every metric with its unit")
                (List.sort compare printed = List.sort compare (expected trace));
              if trace then
                check (name ^ " trace parses")
                  (match
                     Json.of_string
                       (In_channel.with_open_bin trace_out In_channel.input_all)
                   with
                  | Ok t -> (
                      match Json.member "traceEvents" t with
                      | Some (Json.List (_ :: _)) -> true
                      | _ -> false)
                  | Error _ -> false))
        [ false; true ])
    Spec.workloads

let () =
  let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  let exe = absolute Sys.argv.(1) in
  let spec =
    match Json.of_string (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all) with
    | Ok j -> j
    | Error msg -> failwith ("BENCHMARK.json: " ^ msg)
  in
  stats ();
  verdicts ();
  correctness ();
  smoke exe spec;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "e2e: all checks passed"
