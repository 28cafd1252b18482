(** A minimal JSON document type with a serializer and a parser.

    Every machine-readable export in the system — EXPLAIN ANALYZE output,
    optimizer results, metrics snapshots, trace dumps, bench tables — goes
    through this one representation, so that `--json` output from any layer
    has a single, testable round-trip ([to_string] then [of_string]).

    Non-finite floats, which JSON cannot represent, serialize as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) JSON. *)

val to_string_pretty : t -> string
(** Two-space-indented JSON, for humans. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; trailing non-whitespace is an error.
    Numbers parse as [Int] when they are integral literals without
    exponent or fraction, [Float] otherwise. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] for missing fields or non-objects. *)

val number : t -> float option
(** The numeric value of an [Int] or [Float]. *)

val equal : t -> t -> bool
(** Structural equality; object fields compare order-sensitively. *)

val write_file : string -> t -> unit
(** Write a document to a file, pretty-printed with a trailing newline. *)
