(* What every bench suite shares: the environment, read once at startup;
   memoised documents and databases; and [finish], the one place a
   suite's report becomes BENCH_<SUITE>.json, a printed gate table and a
   verdict.  The cells that carry [work] are what
   scripts/check_bench.py compares against bench/baseline/<suite>.json.

   Environment knobs (all optional; an unparsable value exits 2):
     SJOS_BENCH_SCALE   scale data set sizes (per-suite default)
     SJOS_BENCH_FAST    if set, paper skips folding x500 and Bechamel;
                        guard runs a shorter chaos sweep
     SJOS_BENCH_REPS    par: timed repetitions per pool size (default 5)
     SJOS_BENCH_REQS    serve: open-loop requests (default 640, min 500)
     SJOS_IO_PAPER      io: when "1", also load Mbench at 740k under Disk *)

open Sjos_engine
module Json = Sjos_obs.Json
module Work = Sjos_obs.Work

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

(* [None] when unset or empty; a value that does not parse is fatal *)
let getenv name parse what =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some s -> (
      match parse (String.trim s) with
      | Some v -> Some v
      | None -> die "%s=%S is not %s" name s what)

let int_env name = getenv name int_of_string_opt "an integer"

let scale_env =
  getenv "SJOS_BENCH_SCALE"
    (fun s ->
      match float_of_string_opt s with
      | Some f when Float.is_finite f && f > 0. -> Some f
      | _ -> None)
    "a positive number"

let fast = Sys.getenv_opt "SJOS_BENCH_FAST" <> None
let reps = max 1 (Option.value (int_env "SJOS_BENCH_REPS") ~default:5)
let reqs = max 500 (Option.value (int_env "SJOS_BENCH_REQS") ~default:640)
let io_paper = Sys.getenv_opt "SJOS_IO_PAPER" = Some "1"

let scale ~default = Option.value scale_env ~default

let scaled ?(floor = 500) scale base =
  max floor (int_of_float (float_of_int base *. scale))

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ---------- memoised inputs ---------- *)

(* Documents are immutable and shared across suites; databases carry
   plan caches and lazily built statistics, so each suite gets fresh
   ones ([finish] disposes them). *)
let docs = Hashtbl.create 8
let dbs = Hashtbl.create 8

let memo tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.add tbl key v;
      v

let doc ~size ds = memo docs (ds, size) (fun () -> Workload.generate ~size ds)

let db ~size ds =
  memo dbs (ds, size) (fun () -> Database.of_document (doc ~size ds))

(* [f ()] under a scoped work accumulator: (work, result, wall seconds) *)
let timed f =
  let t0 = Sjos_obs.Clock.now_ns () in
  let work, outcome = Work.scoped f in
  let seconds = Sjos_obs.Clock.elapsed_seconds ~since:t0 in
  match outcome with Ok r -> (work, r, seconds) | Error e -> raise e

let tuples_equal a b =
  Array.length a = Array.length b && Array.for_all2 Sjos_exec.Tuple.equal a b

let table2_exact () = Experiment.table2_matches (Experiment.table2 ())

(* ---------- the report envelope ---------- *)

type cell = {
  id : string;
  work : Work.t option;  (** present: the cell is in the committed baseline *)
  alloc : float;  (** allocated bytes, advisory; 0 = not measured *)
  seconds : float option;  (** advisory wall clock *)
  data : (string * Json.t) list;
}

let cell ?work ?(alloc = 0.) ?seconds id data =
  { id; work; alloc; seconds; data }

let int_cell id fields =
  cell id (List.map (fun (k, v) -> (k, Json.Int v)) fields)

type report = {
  suite : string;
  meta : (string * Json.t) list;
  cells : cell list;
  gates : (string * bool) list;
}

let cell_json c =
  let opt f = Option.fold ~none:[] ~some:f in
  Json.Obj
    ((("id", Json.Str c.id)
     :: opt
          (fun w ->
            [ ("work", Work.to_json w); ("allocated_bytes", Json.Float c.alloc) ])
          c.work)
    @ opt (fun s -> [ ("seconds", Json.Float s) ]) c.seconds
    @ c.data)

(* Write BENCH_<SUITE>.json, print the gate table, and return whether
   every gate holds. *)
let finish r =
  let file = Printf.sprintf "BENCH_%s.json" (String.uppercase_ascii r.suite) in
  Json.write_file file
    (Json.Obj
       [
         ("suite", Json.Str r.suite);
         ("meta", Json.Obj r.meta);
         ("cells", Json.List (List.map cell_json r.cells));
         ("gates", Json.Obj (List.map (fun (g, ok) -> (g, Json.Bool ok)) r.gates));
       ]);
  Printf.printf "\nwrote %s (%d cells)\n" file (List.length r.cells);
  List.iter
    (fun (g, ok) -> Printf.printf "  gate %-32s %s\n" g (if ok then "PASS" else "FAIL"))
    r.gates;
  let pass = List.for_all snd r.gates in
  Printf.printf "%s: %s\n%!" r.suite (if pass then "PASS" else "FAIL");
  Hashtbl.iter (fun _ db -> Database.dispose db) dbs;
  Hashtbl.reset dbs;
  pass
