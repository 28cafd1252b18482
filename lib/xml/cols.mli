(** The unified structure-of-arrays column record.

    Row [i] describes the node [ids.(i)]: its interval encoding
    ([starts], [ends]) and depth ([levels]).  This one type replaces the
    two structurally identical records that used to live in [Document]
    and [Element_index]; it is the only form a candidate list takes, and
    every consumer of one — the element index, the statistics, the batch
    join kernels, the sort operators, the column store — reads this
    shape.
    Callers must never mutate the arrays.

    For a {e document-wide} view ({!Document.positions}) [ids] is the
    identity and the arrays are indexed by node id; for a {e candidate
    list} view the rows are a document-ordered subset and [ids.(i)] maps
    the row back to the node. *)

type t = {
  ids : int array;  (** node id of row [i] *)
  starts : int array;  (** [start_pos] of row [i]'s node *)
  ends : int array;  (** [end_pos] of row [i]'s node *)
  levels : int array;  (** [level] of row [i]'s node *)
}

val empty : t

val length : t -> int
(** Number of rows. *)

val filter : (int -> bool) -> t -> t
(** [filter keep c] — the rows [i] of [c] with [keep i], in order, in
    fresh exact-size columns; [c] itself when every row is kept.  [keep]
    is called twice per row and must give the same answer both times. *)

val equal : t -> t -> bool
(** Structural equality of all four columns. *)
