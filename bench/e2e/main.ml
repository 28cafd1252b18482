(* End-to-end benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
       one workload in this process; the last stdout line is the result
     main.exe run [--seed N] [--seconds S] [--traced] [--out FILE]
       every workload, each in a fresh child process
     main.exe compare A B
       two sets of runs judged against BENCHMARK.json's bounds

   Run with: dune exec bench/e2e/main.exe -- run --seed 1 *)

open Sjos_e2e
open Cmdliner
module Json = Sjos_obs.Json

let run_one ~workload ~seed ~seconds ~trace ~scale =
  let w =
    match Spec.find workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" workload
          (String.concat ", " (List.map (fun w -> w.Spec.name) Spec.workloads));
        exit 2
  in
  if not (Sys.file_exists Common.scratch) then Sys.mkdir Common.scratch 0o755;
  let run_dir =
    Filename.concat Common.scratch (Printf.sprintf "run-%d" (Unix.getpid ()))
  in
  Sys.mkdir run_dir 0o755;
  let o = { Common.workload = w; seed; seconds; trace; scale; run_dir } in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Common.remove_tree run_dir)
      (fun () ->
        match w.Spec.kind with
        | Spec.Serve -> Serve_mix.run o
        | Spec.Cold | Spec.Warm -> Closed_loop.run o)
  in
  let result = Common.result_json o outcome in
  List.iter
    (fun (m : Spec.metric) ->
      Printf.printf "%-12s %-30s %14.6g %s\n" workload m.mname
        (List.assoc m.mname outcome.Common.values)
        m.unit_)
    (Spec.metrics ~trace);
  print_endline (Json.to_string result);
  if not outcome.Common.correct then exit 1

(* ---------- run: every workload in a child process ---------- *)

let run_child args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec read last =
    match input_line ic with
    | line ->
        print_endline line;
        read (Some line)
    | exception End_of_file -> last
  in
  let last = read None in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, last)

(* Each workload's result line is appended to [out] with the child's exit
   status as ["exited_ok"], so [compare] can reject a run that failed even
   where its result line looks plausible. *)
let run_all ~seed ~seconds ~traced ~scale ~out =
  let ok = ref true in
  List.iter
    (fun (w : Spec.workload) ->
      let status, last =
        run_child
          [
            "--workload"; w.name;
            "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds;
            "--trace"; (if traced then "1" else "0");
            "--scale"; Printf.sprintf "%g" scale;
          ]
      in
      let exited_ok = status = Unix.WEXITED 0 in
      if not exited_ok then begin
        Printf.eprintf "%s: child failed\n%!" w.name;
        ok := false
      end;
      match Option.map Json.of_string last with
      | Some (Ok result) ->
          Option.iter
            (fun path ->
              let oc =
                open_out_gen [ Open_append; Open_creat; Open_text ] 0o644 path
              in
              output_string oc
                (Json.to_string
                   (Json.Obj
                      [
                        ("workload", Json.Str w.name);
                        ("seed", Json.Int seed);
                        ("trace", Json.Bool traced);
                        ("exited_ok", Json.Bool exited_ok);
                        ("result", result);
                      ]));
              output_char oc '\n';
              close_out oc)
            out
      | _ ->
          Printf.eprintf "%s: no result line\n%!" w.name;
          ok := false)
    Spec.workloads;
  if not !ok then exit 1

(* ---------- command line ---------- *)

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed of the request stream.")

let seconds =
  Arg.(value & opt float 20.0 & info [ "seconds" ] ~doc:"Length of the timed window.")

let scale =
  Arg.(
    value & opt float 1.0
    & info [ "scale" ]
        ~doc:
          "Document sizes relative to the paper's (Mbench 740K, DBLP 500K, \
           Pers 5K).  Match counts are pinned only at 1.")

let one =
  let workload =
    Arg.(
      required & opt (some string) None
      & info [ "workload" ] ~doc:"Workload to run in this process.")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ]
          ~doc:
            "1: record spans, print per-layer metrics and write \
             _e2e/trace-<workload>.json.")
  in
  Term.(
    const (fun workload seed seconds trace scale ->
        run_one ~workload ~seed ~seconds ~trace ~scale)
    $ workload $ seed $ seconds $ trace $ scale)

let run_cmd =
  let traced =
    Arg.(value & flag & info [ "traced" ] ~doc:"Run every workload traced.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~doc:"Append one JSON line per workload to this file.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run every workload, each in a fresh child process.")
    Term.(
      const (fun seed seconds traced scale out ->
          run_all ~seed ~seconds ~traced ~scale ~out)
      $ seed $ seconds $ traced $ scale $ out)

let compare_cmd =
  let file n = Arg.(required & pos n (some file) None & info [] ~docv:"RUNS") in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Judge run set B against run set A with the bounds in ./BENCHMARK.json.")
    Term.(const (fun a b -> Compare.run ~spec:"BENCHMARK.json" a b) $ file 0 $ file 1)

let () =
  let info = Cmd.info "main" ~doc:"End-to-end benchmark of the sjos query engine." in
  exit (Cmd.eval (Cmd.group ~default:one info [ run_cmd; compare_cmd ]))
