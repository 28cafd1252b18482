(** The multi-tenant query server.

    One [t] owns a {!Sjos_engine.Database.t}, a tenant registry, a
    bounded {!Admission} queue in front of the execution pool, and a
    watcher thread.  Requests arrive as length-prefixed JSON frames
    ({!Wire}); each is handled under {!Sjos_guard.Error.protect}, so the
    wire only ever carries well-formed responses — an engine failure of
    any class becomes [{"ok": false, "error": {...}}], never a dropped
    connection or an escaped exception.

    {2 Protocol}

    Request: [{"op": <op>, "id"?: n, "tenant"?: s, ...}].  Ops:
    - [health] — liveness, drain flag, admission occupancy.
    - [metrics] — the {!Snapshot} shape plus a ["serve"] section:
      admission occupancy, the counts of requests handled, exceptions
      that escaped a connection loop and requests stopped by a
      cancellation, and each tenant's counters.
    - [prepare] — [pattern] (+[xpath], [algorithm]), [name]: parse and
      optimize once, bind [tenant/name] for later [exec].
    - [exec] — [pattern] or prepared [name]; optional [limit],
      [deadline_ms], [include_tuples].  Replies with match count, a
      result digest, timing, cache/degradation provenance.
    - [explain] / [analyze] — plan text / per-operator estimate-vs-actual
      rows for a pattern.

    Responses echo ["id"] and carry ["ok"].  Errors are
    {!Sjos_guard.Error.to_json}; [overloaded] ones include
    [retry_after_ms].

    {2 Lifecycle}

    {!run} accepts until {!initiate_drain} (async-signal-safe: it only
    sets an atomic flag, so it may be called from a SIGTERM handler).
    Draining stops accepting, wakes queued waiters (they shed with
    [overloaded]), lets in-flight requests finish, joins connection
    threads, flushes a final metrics line and removes the socket file.

    The watcher thread polls in-flight connections ~every 25 ms: a
    client that disconnected mid-query gets its budget cancelled, so
    cross-domain kernels abandon the work at their next poll point. *)

type config = {
  max_active : int;  (** concurrent executing queries (default 4) *)
  max_queue : int;  (** waiters beyond that before shedding (default 16) *)
  default_deadline_ms : float option;
      (** deadline applied when neither request nor tenant sets one *)
  watcher_period_s : float;  (** watcher poll period (default 0.025) *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?tenants:Tenant.registry ->
  ?pool:Sjos_par.Pool.t ->
  Sjos_engine.Database.t ->
  t
(** The watcher thread starts here; {!shutdown} (or a completed {!run})
    stops it. *)

val tenants : t -> Tenant.registry
val admission : t -> Admission.t

val draining : t -> bool
val initiate_drain : t -> unit
(** Only sets an atomic flag — safe from a signal handler. *)

val handle_request : t -> Sjos_obs.Json.t -> Sjos_obs.Json.t
(** Handle one decoded request (no socket involved) — the full
    admission/quota/execution path.  Never raises. *)

val handle_connection : t -> Unix.file_descr -> unit
(** Serve one connection until EOF, a fatal framing error, or drain.
    Closes [fd] before returning.  Tests drive this directly over a
    socketpair; {!run} spawns one thread per accepted connection. *)

val run : t -> socket_path:string -> unit
(** Bind, listen and accept on a Unix-domain socket until drain
    completes.  Ignores SIGPIPE for the whole process.  Removes a stale
    socket file at bind time and the live one at exit. *)

val shutdown : t -> unit
(** Stop the watcher thread (idempotent).  {!run} calls this on the way
    out; only tests that never call {!run} need it. *)

val response_payload : id:Sjos_obs.Json.t -> Sjos_obs.Json.t -> string
(** Serialize a response for the wire.  A response that would not fit
    in one frame ({!Wire.max_frame_bytes}) is replaced by a structured
    [invalid_request] error (echoing [id]) advising ["limit"] /
    dropping ["include_tuples"] — the size ceiling must never surface
    as an escaped exception or a dropped connection. *)

val result_digest : Sjos_exec.Tuple.t array -> string
(** Order-sensitive 64-bit digest of a result set, as 16 hex digits.
    The bench compares this between served and direct execution —
    equality means bit-identical tuples. *)
