(* The one bench driver: [main.exe [SUITE...]] runs each named suite in
   order and hands its report to [Harness.finish], which writes
   BENCH_<SUITE>.json, appends the perf-history datapoint and prints the
   gate table.  With no argument it runs the paper's evaluation:
   [paper cache guard].  Exits 1 if any gate of any suite failed, 2 on an
   unknown suite or a malformed environment variable (see harness.ml).

   Run with: dune exec bench/main.exe -- [SUITE...] *)

let suites =
  [
    ("paper", Bench_paper.run);
    ("cache", Bench_cache.run);
    ("guard", Bench_guard.run);
    ("par", Bench_par.run);
    ("io", Bench_io.run);
    ("twig", Bench_twig.run);
    ("bigopt", Bench_bigopt.run);
    ("serve", Bench_serve.run);
  ]

let () =
  let names =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ "paper"; "cache"; "guard" ]
    | names -> names
  in
  (* resolve every name before running anything *)
  let runs =
    List.map
      (fun name ->
        match List.assoc_opt name suites with
        | Some run -> run
        | None ->
            Harness.die "unknown suite %S (valid suites: %s)" name
              (String.concat ", " (List.map fst suites)))
      names
  in
  let pass = List.fold_left (fun pass run -> Harness.finish (run ()) && pass) true runs in
  if not pass then exit 1
