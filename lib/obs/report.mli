(** Combined export of everything the observability layer collected:
    the metrics registry snapshot and the span forest, as one JSON
    document or one human-readable text block.  This is what the CLI's
    [--trace] / [--json] flags and the bench driver's [BENCH_<SUITE>.json]
    writer ([bench/harness.ml]) build on. *)

val enable_all : unit -> unit
(** Turn on both the metrics registry and span tracing. *)

val disable_all : unit -> unit
val reset_all : unit -> unit

val to_json : unit -> Json.t
(** [{"metrics": <Registry.to_json>, "trace": <Trace.to_json>}]. *)

val to_string : unit -> string
(** Registry dump followed by the trace tree; empty string when nothing
    was recorded. *)

val write_file : string -> Json.t -> unit
(** Write a JSON document to a file (pretty-printed, trailing newline). *)
