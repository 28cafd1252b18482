(** Tag-name element index.

    Maps each tag to the columns ({!Cols.t}) of its elements sorted by
    [start_pos] (document order), which is exactly the input format
    required by the Stack-Tree join algorithms.  This plays the role of
    Timber's element-tag index: "accessing an index built on the element
    tag names gives us a list of candidate data nodes for each node in
    the query pattern" (paper, Example 2.1).  Columns are the only form
    a candidate list takes; callers must never mutate them. *)

open Sjos_xml

type t

val build : Document.t -> t
(** Index every element of the document by tag: one exact-size
    {!Cols.t} per tag, filled in a counting pass. *)

val cols : t -> string -> Cols.t
(** A tag's candidate columns; {!Cols.empty} for unknown tags.  Built by
    {!build} and never changed, so safe to read from any domain without
    a lock. *)

val attr_cols : t -> tag:string -> attr:string -> value:string -> Cols.t
(** The rows of [cols t tag] whose element carries [attr="value"].  A
    non-empty selection is cached on first use, one entry per
    [(tag, attr, value)], so repeated attribute-predicate scans (the
    Mbench workload) cost one lookup; an empty one is not stored, so the
    cache never outgrows the document's own attributes, whatever names
    and values queries ask for.  Safe to call from any domain (the cache
    is mutex-guarded). *)

val cardinality : t -> string -> int
val tags : t -> string list

val document : t -> Document.t
(** The indexed document. *)

val total_nodes : t -> int
