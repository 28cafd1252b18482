(** Append-only perf-history store and the deterministic regression gate
    built on it.

    Each bench run appends [<dir>/<bench>-<timestamp>.json] and rewrites
    [<dir>/<bench>-latest.json] (a human/dashboard convenience that the
    gate never treats as history).  A datapoint carries one {!entry} per
    benchmarked unit: its deterministic {!Work} counters (the score the
    gate compares), an allocation figure (looser threshold), and
    wall-clock seconds (advisory only — never gated).

    The gate compares the two newest timestamped datapoints: a work-unit
    score above the baseline by more than the tolerance fails, an
    improvement or equality passes, and a store with fewer than two
    datapoints bootstraps (passes with a note).  Because work scores are
    bit-deterministic, CI can run the same bench twice and gate the pair
    — any tolerance-exceeding difference is a real behavior change, not
    noise. *)

type entry = {
  entry_id : string;
  work : Work.t;
  allocated_bytes : float;
  seconds : float;  (** advisory; the gate never reads it *)
}

type datapoint = {
  bench : string;  (** store key: ["par"], ["io"], ... *)
  timestamp : int;  (** unix seconds; ties get a [-N] file suffix *)
  meta : (string * Json.t) list;  (** scale, reps, cores, ... *)
  entries : entry list;
}

val to_json : datapoint -> Json.t
val of_string : string -> (datapoint, string) result

val append : dir:string -> datapoint -> string
(** Write the datapoint under [dir] (created if missing), rewrite
    [<bench>-latest.json], and return the timestamped path. *)

val history : dir:string -> bench:string -> string list
(** Timestamped datapoint paths for a bench, oldest first; the [latest]
    pointer is excluded.  An absent directory is an empty history. *)

val load : string -> (datapoint, string) result

type verdict =
  | Pass of string
  | Bootstrap of string  (** fewer than two datapoints; passes *)
  | Fail of string list  (** one message per regressed entry *)

val compare_datapoints :
  ?work_tolerance:float ->
  ?alloc_tolerance:float ->
  baseline:datapoint ->
  current:datapoint ->
  unit ->
  verdict
(** Entry-by-entry comparison (matched by [entry_id]).  An entry present
    in the baseline but missing from the current run fails — a silently
    shrinking bench must not pass as an improvement.  New entries are
    accepted.  [work_tolerance] defaults to 1% (generous, since work
    scores are bit-deterministic), [alloc_tolerance] to 10% (allocation
    is deterministic only for serial runs). *)

val gate :
  ?work_tolerance:float ->
  ?alloc_tolerance:float ->
  dir:string ->
  bench:string ->
  unit ->
  verdict
(** {!compare_datapoints} over the two newest datapoints in the store. *)
