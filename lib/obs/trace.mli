(** Lightweight span tracing.

    A span is a named, monotonic-timed interval; spans opened while
    another span is open nest under it, so a run produces a forest of
    timed trees (the optimizer's per-level search spans, the executor's
    per-operator spans).  Arbitrary JSON attributes can be attached at
    open or close time — counters, cardinalities, pruning statistics.

    Tracing is disabled by default: every entry point first checks one
    boolean and returns immediately, so instrumented code paths cost
    nothing unless the user asked for a trace ([--trace] in the CLI).

    The recorded forest is {e domain-local}: spans nest along each
    domain's own call stack, and [to_json]/[to_string]/[reset] act on
    the calling domain's forest.  Work traced on pool worker domains
    therefore does not appear in the driving domain's export. *)

type span

val set_enabled : bool -> unit
val enabled : unit -> bool

val null_span : span
(** The inert span returned while tracing is disabled. *)

val begin_span : ?attrs:(string * Json.t) list -> string -> span
(** Open a span nested under the innermost open span. *)

val end_span : ?attrs:(string * Json.t) list -> span -> unit
(** Close a span, merging any extra attributes.  Closing also closes any
    still-open descendants.  Closing [null_span] is a no-op. *)

val with_span : ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [begin_span]/[end_span] around a thunk, exception-safe. *)

val event : ?attrs:(string * Json.t) list -> string -> unit
(** A zero-duration span, for point-in-time annotations. *)

val reset : unit -> unit
(** Drop all recorded spans (open and finished). *)

val is_empty : unit -> bool
(** No spans have been recorded. *)

val to_json : unit -> Json.t
(** The finished-span forest:
    [[{"name": .., "seconds": .., "attrs": {..}, "children": [..]}, ..]].
    Still-open spans are included with their current elapsed time. *)

val to_string : unit -> string
(** Indented human-readable tree, one span per line with milliseconds. *)

val to_chrome_json : unit -> Json.t
(** The whole process's span forests — every domain that ever traced,
    not just the caller's — as a Chrome trace-event document
    ([{"traceEvents": [..], "displayTimeUnit": "ms"}]) loadable in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.  Each
    domain gets its own track ([tid]) with a [thread_name] metadata
    record; spans become complete ("X") events with microsecond
    timestamps rebased to the earliest span.  Meant to be called after
    the traced work has finished; still-open spans are exported with
    their current elapsed time. *)
