(** The four pattern-tree shapes of the paper's evaluation (Figure 6).

    Each constructor takes the tag (or full spec) of every node plus the
    axis of every edge, in pre-order.  Shapes:

    {v
      a: A - B - C                      (3-node path)
      b: A - (B, C - D)                 (4 nodes, one branch)
      c: A - (B - C, D - E)             (5 nodes, two branches)
      d: A - (B - C, D - E - F)         (6 nodes; the paper's Figure 1)
    v} *)

open Sjos_xml
open Sjos_storage

val path : Candidate.spec list -> Axes.axis list -> Pattern.t
(** [path labels axes] builds a chain; [length axes = length labels - 1].
    Raises [Invalid_argument] on mismatched lengths. *)

val a : Candidate.spec array -> Axes.axis array -> Pattern.t
(** 3 labels, 2 axes: edges A-B, B-C. *)

val b : Candidate.spec array -> Axes.axis array -> Pattern.t
(** 4 labels, 3 axes: edges A-B, A-C, C-D. *)

val c : Candidate.spec array -> Axes.axis array -> Pattern.t
(** 5 labels, 4 axes: edges A-B, B-C, A-D, D-E. *)

val d : Candidate.spec array -> Axes.axis array -> Pattern.t
(** 6 labels, 5 axes: edges A-B, B-C, A-D, D-E, E-F. *)

val of_tags : (Candidate.spec array -> Axes.axis array -> Pattern.t) ->
  string list -> Axes.axis list -> Pattern.t
(** Convenience: build a shape from plain tag names. *)

val complete_tree : fanout:int -> depth:int -> Candidate.spec -> Axes.axis -> Pattern.t
(** A complete tree pattern with uniform label and axis — the shape used in
    the paper's complexity analyses (§3.2, §3.4). *)

(** {1 Seeded generator for large patterns}

    Shape classes from "A Survey of XML Tree Patterns": deep [//]
    chains, bushy stars, balanced binary branching, and uniform random
    attachment, with wildcard labels, mixed axes and an occasional
    order-by.  Drives the large-pattern optimizer tier's differential
    tests and benchmarks at 15-40 nodes. *)

type gen_shape = Chain | Star | Balanced | Mixed

val gen_shape_name : gen_shape -> string
(** ["chain"], ["star"], ["balanced"], ["mixed"]. *)

val all_gen_shapes : gen_shape list
(** The four classes, in declaration order. *)

val generate : seed:int -> nodes:int -> gen_shape -> Pattern.t
(** [generate ~seed ~nodes shape] builds a valid [nodes]-node pattern of
    the class, deterministically from [(seed, nodes, shape)] — an inline
    splitmix64 stream, bit-stable across platforms and OCaml versions.
    A [Star] pattern's root has at least [nodes / 3] children.  Raises [Invalid_argument] when [nodes < 1] or above
    {!Pattern.max_nodes} (via {!Pattern.create}). *)
