(** Tree-pattern minimization (Amer-Yahia, Cho, Lakshmanan, Srivastava:
    "Minimization of Tree Pattern Queries", SIGMOD 2001) — the rewrite
    optimization the paper's §5 describes as "complementary to, and applied
    before, the cost-based access plan optimization that we consider".

    A branch of the pattern is redundant when a homomorphism maps it into
    the rest of the pattern: every label maps to a label at least as
    restrictive, parent-child edges map to parent-child edges, and
    ancestor-descendant edges map to arbitrary downward paths.  Removing a
    redundant branch changes neither the bindings of the remaining nodes
    nor, in particular, the query's result nodes — but it removes whole
    structural joins from the plan, which no join-order cleverness could.

    Because matches are tuples over pattern nodes, minimization is only
    applied to branches that contain no {e kept} node (the result/order-by
    nodes the caller still needs). *)

val label_subsumes :
  Sjos_storage.Candidate.spec -> Sjos_storage.Candidate.spec -> bool
(** [label_subsumes general specific]: every element matching [specific]
    also matches [general]. *)

val minimize : ?keep:int list -> Pattern.t -> Pattern.t * int array
(** Remove redundant branches until none is left.  [keep] defaults to the
    pattern's order-by node (if any).  Returns the minimized pattern and a
    map from old node indexes to new ones ([-1] for removed nodes).  The
    pattern root and kept nodes always survive. *)
