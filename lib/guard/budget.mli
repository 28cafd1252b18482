(** Query resource budgets.

    The exact algorithms (DP/DPP) are worst-case exponential in pattern
    size, and a bad plan can materialize unbounded intermediate results;
    a budget puts hard ceilings on both.  A [Budget.t] travels in
    [Query_opts.t] and is polled from the optimizer search loops (per
    status expansion) and the executor's operator inner loops (per chunk
    of produced tuples).

    Checks are pure observers: they never alter search order or results,
    only abort by raising {!Exhausted} — so an unlimited budget is
    guaranteed bit-identical behaviour, and {!unlimited} itself is a
    single physical-equality test on the hot path. *)

type resource =
  | Wall_clock  (** the deadline passed *)
  | Statuses_expanded  (** the optimizer expanded too many statuses *)
  | Tuples_materialized of { limit : int; count : int }
      (** an operator materialized more than [limit] tuples; [count] is
          the number produced when the budget fired (the partial size) *)
  | Cancelled  (** the cooperative cancellation flag was raised *)

type t = {
  deadline_ns : int64 option;
      (** absolute monotonic deadline ({!Sjos_obs.Clock.now_ns} scale) *)
  max_expanded : int option;  (** optimizer status-expansion ceiling *)
  max_tuples : int option;  (** per-operator materialization ceiling *)
  cancelled : bool Atomic.t;
      (** set (from any domain) to abort at the next poll point; the
          atomic write is the happens-before edge that makes the cancel
          visible to workers mid-merge-loop *)
}

exception Exhausted of { resource : resource; during : string }
(** Raised by the check functions; converted to a structured
    [Error.Budget_exhausted] at the public (Result) boundary. *)

val unlimited : t
(** No ceilings.  All checks are no-ops (and recognized by physical
    equality, so governance costs nothing when no budget is set).  Its
    [cancelled] ref must never be set; use {!make} for a cancellable
    budget. *)

val make :
  ?deadline_ms:float ->
  ?max_expanded:int ->
  ?max_tuples:int ->
  ?cancelled:bool Atomic.t ->
  unit ->
  t
(** [deadline_ms] is relative to now and resolved to an absolute
    monotonic deadline immediately.  With no argument at all the result
    is {!unlimited} itself. *)

val cancel : t -> unit
(** Raise the cancellation flag; every domain polling this budget aborts
    at its next poll point.  Raises [Invalid_argument] on {!unlimited}. *)

val is_unlimited : t -> bool
(** Physical equality with {!unlimited} — the only budget whose checks
    may be skipped wholesale.  A budget built by {!make} with no
    ceilings but a [cancelled] ref is {e not} unlimited: it must keep
    being polled so a cross-thread {!cancel} (client disconnect, server
    drain) can abort execution. *)

val cap_tuples : t -> int option -> t
(** Merge a legacy [?max_tuples] knob into the budget (minimum of the
    two when both are set). *)

val poll : t -> resource option
(** Cheap poll of the time-like resources: cancellation first, then the
    deadline.  [None] while within budget. *)

val check : t -> during:string -> unit
(** {!poll}, raising {!Exhausted} when over. *)

val check_search : t -> during:string -> expanded:int -> unit
(** Search-loop check: [max_expanded] against the expansion count, then
    {!check}.  Call {e before} doing the work the counter will account,
    so an aborted search has performed exactly the budgeted amount. *)

val check_tuples : t -> during:string -> count:int -> unit
(** Executor check: raises when [count] exceeds [max_tuples]. *)

val resource_name : resource -> string
(** Short stable name: ["wall_clock"], ["statuses_expanded"],
    ["tuples_materialized"], ["cancelled"]. *)

val pp_resource : resource Fmt.t
val to_json : t -> Sjos_obs.Json.t
val pp : t Fmt.t
