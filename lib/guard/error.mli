(** Structured engine errors — errors as values, not crashes.

    Every failure mode of the query pipeline maps to exactly one
    constructor, so callers can match on the class (and the CLI can map
    each class to a distinct exit code) instead of fishing a raw
    [Invalid_argument] out of a backtrace.  The engine raises {!Error};
    wrapping a call in {!protect} gives the Result form, from which no
    other exception escapes: stragglers become {!Internal}. *)

type t =
  | Parse_error of { input : string; message : string }
      (** malformed pattern / XPath / XQuery / XML text *)
  | Invalid_request of string
      (** a well-formed query with out-of-range knobs (e.g. a
          non-positive [Te]) *)
  | Invalid_plan of string
      (** a plan that does not evaluate the pattern (externally supplied
          or corrupted in transport) *)
  | Budget_exhausted of { resource : Budget.resource; during : string }
      (** a resource ceiling fired and no degradation tier could absorb
          it; [during] is ["optimize"] or ["execute"] *)
  | Corrupt_input of { source : string; reason : string }
      (** corrupt data detected at a trust boundary, e.g. an externally
          supplied candidate stream out of document order, or a column
          data file gone missing/truncated underneath a disk store *)
  | Internal of string
      (** an engine invariant failed — a bug, reported structurally
          rather than as an escaped exception *)
  | Overloaded of { reason : string; retry_after_ms : float }
      (** admission control shed the request — the server's bounded
          queue was full or a tenant quota/rate limit fired.  The
          request was well-formed and may be retried after roughly
          [retry_after_ms]; nothing about it was executed *)

exception Error of t
(** How the engine raises a structured error; {!protect} catches it. *)

val fail : t -> 'a
(** [raise (Error t)]. *)

val class_name : t -> string
(** Stable lowercase class tag, e.g. ["parse_error"]. *)

val exit_code : t -> int
(** Distinct non-zero process exit code per class: parse 2, request 3,
    plan 4, budget 5, corrupt input 7, internal 8, overloaded 9.  Code 6
    is unused. *)

val exit_code_of_class : string -> int option
(** Inverse lookup from a {!class_name} tag — used by wire clients that
    receive only the class string and must exit like the local CLI
    would. *)

val all_class_names : string list
(** Every class tag, in exit-code order (2..5, 7..9). *)

val message : t -> string
(** One-line human message (no backtrace, no class prefix). *)

val of_exn : exn -> t option
(** Map the exceptions this library owns ({!Error}, {!Budget.Exhausted})
    and the boundary exceptions of the layers below it to their value
    form: [Invalid_argument] to {!Invalid_request}, the storage layer's
    [Column_store.Io_error] to {!Corrupt_input}, and the XML parser's
    [Parse_error] to {!Parse_error} with [input = "xml"] and a
    ["line L, col C: msg"] message.  [None] for anything else. *)

val protect : (unit -> 'a) -> ('a, t) result
(** Run the thunk, converting raised errors to values: {!of_exn} first,
    then a catch-all to {!Internal}.  [Out_of_memory] and
    [Stack_overflow] are re-raised — they are not query errors. *)

val to_json : t -> Sjos_obs.Json.t
