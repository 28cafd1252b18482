open Sjos_xml
open Sjos_storage
open Sjos_histogram
open Sjos_cost
open Sjos_pattern
open Sjos_plan
open Sjos_core
open Sjos_exec
open Sjos_cache
open Sjos_obs
open Sjos_guard

type cached_plan = { plan : Plan.t; est_cost : float }

type t = {
  doc : Document.t;
  index : Element_index.t;
  (* Label statistics at the database's own grid, [grid] below. *)
  catalog : Stats_catalog.t;
  plan_cache : cached_plan Plan_cache.t;
  store : Column_store.t;
}

(* The positional-histogram resolution every database's statistics use. *)
let grid = 32

let of_document ?storage doc =
  let storage =
    match storage with Some c -> c | None -> Column_store.config_of_env ()
  in
  let index = Element_index.build doc in
  {
    doc;
    index;
    catalog = Stats_catalog.create ~grid index;
    plan_cache = Plan_cache.create ();
    store = Column_store.create ~config:storage index;
  }

let of_string ?storage s = of_document ?storage (Parser.parse_string s)
let load_file ?storage p = of_document ?storage (Parser.parse_file p)

let document t = t.doc
let index t = t.index
let store t = t.store

let dispose t = Column_store.dispose t.store

let stats t = Stats.compute t.doc

(* The document's position columns are the one lazily built read-side
   structure; build them up front, so that queries fanned out across
   domains afterwards touch only read paths. *)
let warm t = ignore (Document.positions t.doc)

let factors _ = Cost_model.default
let catalog t = t.catalog
let plan_cache t = t.plan_cache

let provider_of stats pat =
  let cards = Cardinality.create stats pat in
  {
    Costing.node_card = Cardinality.node_card cards;
    cluster_card = Cardinality.cluster_card cards;
  }

let provider t pat = provider_of t.catalog pat

(* Chaos runs are never cached — a plan chosen under lying statistics
   must not leak into healthy queries. *)
let cache_key (opts : Query_opts.t) ~algorithm ~fingerprint =
  if opts.Query_opts.use_cache && Option.is_none opts.Query_opts.chaos then
    (* the engine is part of the key: Auto and Binary may pick different
       plans for the same (algorithm, structure).  The algorithm is the
       *effective* one — a DPP request on a large pattern runs (and
       caches) as the BigDP tier, and the entry must say so. *)
    Some
      (Optimizer.engine_name opts.Query_opts.engine
      ^ "|" ^ Optimizer.name algorithm ^ "|" ^ fingerprint)
  else None

(* Run the optimizer through the plan cache.  On a hit the stored plan —
   kept in the canonical numbering — is mapped back to the caller's
   numbering; the synthesized result reports zero search work and the
   (tiny) lookup time as [opt_seconds].  Returns the result and whether it
   came from the cache.

   Budget exhaustion goes through {!Optimizer.optimize_r}, so an exact
   search degrades to DPAP-EB instead of failing; a degraded plan is never
   stored (the budget, not the statistics, chose it).  A cached plan that
   does not evaluate the pattern (a fingerprint collision) is treated as
   corruption: counted, overwritten by a fresh optimization, never served. *)
let resolve t ~(opts : Query_opts.t) ~pat ~(canon : Fingerprint.canonical)
    ~algorithm ~key ~provider =
  let t0 = Clock.now_ns () in
  let fresh ~store () =
    match
      Optimizer.optimize_e ~budget:opts.Query_opts.budget ~provider
        ~engine:opts.Query_opts.engine opts.Query_opts.algorithm pat
    with
    | Error e -> Error.fail e
    | Ok r ->
        (match (store, key) with
        | true, Some key when r.Optimizer.degraded_from = None ->
            Plan_cache.add t.plan_cache key
              {
                plan =
                  Plan.map_nodes (Array.get canon.to_canon) r.Optimizer.plan;
                est_cost = r.Optimizer.est_cost;
              }
        | _ -> ());
        (r, false)
  in
  match key with
  | None -> fresh ~store:false ()
  | Some k -> (
      match Plan_cache.find t.plan_cache k with
      | None -> fresh ~store:true ()
      | Some entry -> (
          let plan = Plan.map_nodes (Array.get canon.of_canon) entry.plan in
          match Properties.validate pat plan with
          | Error reason ->
              Trace.event "plan_cache.corrupt"
                ~attrs:[ ("key", Json.Str k); ("reason", Json.Str reason) ];
              fresh ~store:true ()
          | Ok () ->
              ( {
                  Optimizer.algorithm;
                  plan;
                  est_cost = entry.est_cost;
                  opt_seconds = Clock.elapsed_seconds ~since:t0;
                  work = Work.zero ();
                  degraded_from = None;
                },
                true )))

type prepared = {
  pdb : t;
  ppattern : Pattern.t;
  popts : Query_opts.t;
  pfingerprint : string;
  pfetch : (Candidate.spec -> int array) option;
  pprovider : Costing.provider;
  presult : Optimizer.result;
  pcached : bool;
}

(* Fault injection hooks in at the two trust boundaries: the cardinality
   provider (lies) and the candidate streams (truncation / disorder).
   The caller's chaos instance is never drawn from directly: [prepare]
   derives an independent child stream keyed on the query fingerprint
   ({!Chaos.derive}), so which faults a query sees is a function of
   (seed, query) alone — not of how many queries ran before it, nor of
   the domain scheduling of a parallel workload. *)
let chaos_provider t ~chaos pat =
  match chaos with
  | None -> provider t pat
  | Some c ->
      (* Only the database's own statistics are retained: a chaos run
         builds private statistics that die with its provider. *)
      Chaos.wrap_provider c
        (provider_of (Stats_catalog.create ~grid t.index) pat)

let chaos_fetch t chaos =
  match chaos with
  | Some c ->
      Some
        (fun spec ->
          Chaos.wrap_candidates c (Candidate.select t.index spec).Cols.ids)
  | None -> None

let parse_pattern ~xpath s =
  let parsed =
    if xpath then Result.map fst (Xpath.compile_opt s) else Parse.pattern_opt s
  in
  match parsed with
  | Ok p -> p
  | Error message -> Error.fail (Error.Parse_error { input = s; message })

let prepare ?(opts = Query_opts.default) t pat =
  let canon = Fingerprint.canonical pat in
  let fingerprint = canon.Fingerprint.fingerprint in
  let chaos =
    Option.map
      (fun c -> Chaos.derive c ~key:fingerprint)
      opts.Query_opts.chaos
  in
  let algorithm = Optimizer.effective pat opts.Query_opts.algorithm in
  let key = cache_key opts ~algorithm ~fingerprint in
  let provider = chaos_provider t ~chaos pat in
  let result, cached =
    resolve t ~opts ~pat ~canon ~algorithm ~key ~provider
  in
  {
    pdb = t;
    ppattern = pat;
    popts = opts;
    pfingerprint = fingerprint;
    pfetch = chaos_fetch t chaos;
    pprovider = provider;
    presult = result;
    pcached = cached;
  }

let prepared_fingerprint p = p.pfingerprint
let prepared_result p = p.presult

let prepared_from_cache p = p.pcached

type query_run = { opt : Optimizer.result; exec : Executor.run }

let execute_plan ?budget ?pool t pat plan =
  Executor.execute ?budget ?pool ~store:t.store t.index pat plan

let exec p =
  let t = p.pdb in
  let exec =
    Executor.execute
      ~budget:p.popts.Query_opts.budget
      ?fetch:p.pfetch
      ?pool:p.popts.Query_opts.pool
      ~store:t.store
      t.index p.ppattern p.presult.Optimizer.plan
  in
  { opt = p.presult; exec }

let explain_prepared p =
  Explain.with_costs
    Cost_model.default p.pprovider p.ppattern p.presult.Optimizer.plan

type analysis = {
  opt : Optimizer.result;
  exec : Executor.run;
  rows : Explain.analysis_row list;
}

let analyze_prepared p =
  let r = exec p in
  let rows =
    Explain.analyze
      Cost_model.default p.pprovider p.ppattern r.exec.Executor.profile
  in
  { opt = r.opt; exec = r.exec; rows }

let run ?opts t pat = exec (prepare ?opts t pat)
