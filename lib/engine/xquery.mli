(** A miniature XQuery FLWOR front end.

    The paper situates structural join order selection inside Timber's
    XQuery pipeline: "the XPath expressions used to bind variables in
    XQuery, along with the conditions in the WHERE clause, can be expressed
    as the matching of a query pattern tree" (§2.1).  This module closes
    that loop for a compact FLWOR subset: it compiles for/where clauses
    into a single pattern tree, lets the cost-based optimizer pick the
    structural join order, and evaluates the return clause per match.

    Supported grammar:

    {v
      query   ::= for+ where? "return" item
      for     ::= "for" "$"NAME "in" source
      source  ::= absolute-xpath                    first binding
                | "$"NAME steps                     relative to a binding
      where   ::= "where" cond ("and" cond)*
      cond    ::= "$"NAME steps? "=" "'" chars "'"  value condition
                | "$"NAME steps                     existence condition
      item    ::= "<" NAME ">" item* "</" NAME ">"  element constructor
                | "{" "$"NAME "}"                   copy the bound subtree
                | "{" "$"NAME "/text()" "}"         text content
                | raw text
      steps   ::= (("/" | "//") step)+              (see {!Xpath})
    v}

    Example:

    {v
      for $m in //manager
      for $e in $m//employee
      where $e/name = 'dan' and $m/department
      return <hit><boss>{$m/name/text()}</boss>{$e}</hit>
    v}

    Every query evaluates to a fresh document rooted at [<results>] with
    one child per match. *)

open Sjos_xml

type compiled = {
  pattern : Sjos_pattern.Pattern.t;
  bindings : (string * int) list;  (** variable name -> pattern node *)
}

val compile : string -> compiled * (Document.t -> Sjos_exec.Tuple.t -> Builder.t -> unit)
(** Parse and compile; returns the pattern plus the per-match constructor.
    Raises [Sjos_guard.Error.Error (Parse_error { input = src; _ })] on
    unsupported input. *)

val run : ?opts:Query_opts.t -> Database.t -> string -> Document.t
(** Compile, prepare (default {!Query_opts.default}: DPP through the plan
    cache), execute, construct results.  Raises like {!compile} and
    {!Database.run}; wrap in {!Sjos_guard.Error.protect} for the Result
    form. *)

val run_string : ?opts:Query_opts.t -> Database.t -> string -> string
(** {!run} rendered as XML text. *)
