open Sjos_pattern
open Sjos_datagen

type dataset = Mbench | Dblp | Pers

let dataset_name = function
  | Mbench -> "Mbench"
  | Dblp -> "DBLP"
  | Pers -> "Pers"

let all_datasets = [ Mbench; Dblp; Pers ]

let default_size = function Mbench -> 60_000 | Dblp -> 50_000 | Pers -> 5_000

(* the paper's §4.1 document sizes *)
let paper_size = function Mbench -> 740_000 | Dblp -> 500_000 | Pers -> 5_000

let generate ?size ds =
  let target_nodes = match size with Some s -> s | None -> default_size ds in
  match ds with
  | Mbench -> Sjos_datagen.Mbench.generate ~target_nodes ()
  | Dblp -> Sjos_datagen.Dblp.generate ~target_nodes ()
  | Pers -> Pers.generate ~target_nodes ()

type query = { id : string; dataset : dataset; shape : char; pattern : Pattern.t }

let q id dataset shape text =
  { id; dataset; shape; pattern = Parse.pattern text }

let queries =
  [
    q "Q.Mbench.1.a" Mbench 'a'
      "eNest[@aLevel='2'](//eNest[@aLevel='6'](/eNest[@aLevel='7']))";
    q "Q.Mbench.2.b" Mbench 'b'
      "eNest[@aLevel='1'](/eNest[@aLevel='2'],//eNest[@aSixtyFour='3'](/eOccasional))";
    q "Q.DBLP.1.b" Dblp 'b' "inproceedings(/author,//cite(/title))";
    q "Q.DBLP.2.c" Dblp 'c' "dblp(//article(/author),//inproceedings(/cite))";
    q "Q.Pers.1.a" Pers 'a' "manager(//employee(/name))";
    q "Q.Pers.2.c" Pers 'c' "manager(//employee(/name),//department(/name))";
    q "Q.Pers.3.d" Pers 'd'
      "manager(//employee(/name),//manager(/department(/name)))";
    q "Q.Pers.4.d" Pers 'd'
      "manager(//department(/name),//manager(/employee(/name)))";
  ]

let find id = List.find (fun query -> String.equal query.id id) queries
let q_pers_3_d = find "Q.Pers.3.d"

let run ?opts db query = Database.run ?opts db query.pattern

(* Inter-query parallelism: the eight queries are independent, so they
   fan out across the pool, one task per query, and come back in query
   order (Pool.run is index-ordered) — the output is identical to the
   serial loop no matter how the domains interleave.  Databases are
   obtained and warmed serially first: [db_for] may build/cache them
   (not thread-safe), and warming moves every lazily built read-side
   structure out of the racy window.  The queries themselves also carry
   the pool, so a query large enough to shard its joins uses the same
   domains — nested parallelism degrades to serial inside a worker
   rather than deadlocking. *)
let run_all ?(opts = Query_opts.default) ?pool db_for =
  let pool =
    match (pool, opts.Query_opts.pool) with
    | Some p, _ -> p
    | None, Some p -> p
    | None, None -> Sjos_par.Pool.get_default ()
  in
  let qs = Array.of_list queries in
  let dbs = Array.map (fun q -> db_for q.dataset) qs in
  Array.iter Database.warm dbs;
  let opts = { opts with Query_opts.pool = Some pool } in
  let runs =
    Sjos_par.Pool.run pool (Array.length qs) (fun i ->
        Database.run ~opts dbs.(i) qs.(i).pattern)
  in
  Array.mapi (fun i r -> (qs.(i), r)) runs
