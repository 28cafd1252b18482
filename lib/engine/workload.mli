(** The paper's experimental workload (§4.1): three data sets and eight
    queries named [Q.DataSet.QueryNum.Pattern], where the trailing letter
    is the pattern shape of Figure 6 (see {!Sjos_pattern.Shapes}). *)

open Sjos_xml
open Sjos_pattern

type dataset = Mbench | Dblp | Pers

val dataset_name : dataset -> string
val all_datasets : dataset list

val default_size : dataset -> int
(** Default generated size (element count) used by the benchmarks:
    Mbench 60k, DBLP 50k, Pers 5k — scaled-down but with the same size
    ordering as the paper's 740k / 500k / 5k. *)

val paper_size : dataset -> int
(** The paper's §4.1 document sizes: Mbench 740k, DBLP 500k, Pers 5k
    elements.  The bench's [io] suite ([bench/main.exe io]) runs the Disk
    backend at this scale when asked ([SJOS_IO_PAPER=1]). *)

val generate : ?size:int -> dataset -> Document.t
(** Deterministic synthetic document for the data set. *)

type query = {
  id : string;  (** e.g. ["Q.Pers.3.d"] *)
  dataset : dataset;
  shape : char;  (** 'a' .. 'd' *)
  pattern : Pattern.t;
}

val queries : query list
(** The eight queries of Table 1, in the paper's order. *)

val find : string -> query
(** Lookup by id.  Raises [Not_found]. *)

val q_pers_3_d : query
(** The query used by Tables 2-3 and Figures 7-8. *)

val run : ?opts:Query_opts.t -> Database.t -> query -> Database.query_run
(** Prepare and execute a workload query ([opts] defaults to
    {!Query_opts.default}); repeated runs of the same query structure hit
    the database's plan cache. *)

val run_all :
  ?opts:Query_opts.t ->
  ?pool:Sjos_par.Pool.t ->
  (dataset -> Database.t) ->
  (query * Database.query_run) array
(** Run all eight queries, fanned out across the pool (one task per
    query) — results come back in {!queries} order regardless of domain
    scheduling, and each run's tuples and work are bit-identical to
    the serial loop.  [db_for] is called, and the databases warmed
    ({!Database.warm}), serially before the fan-out.  [pool] defaults to
    [opts.pool], then {!Sjos_par.Pool.get_default}; the queries carry
    the same pool, so large joins inside a single query shard over idle
    domains too.  An exception from any query (budget exhaustion, a
    chaos fault) is re-raised deterministically: lowest query index
    wins. *)
