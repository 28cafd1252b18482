(** Exhaustive enumeration of the plan space, without memoization.

    Intended for tests on small patterns: it walks every sequence of moves
    (all join orders, both Stack-Tree algorithms, every useful output
    re-sort) over every finalized plan.  The minimum over this set is the
    ground-truth optimum that DP and DPP must match.  Cost is
    exponential — keep patterns at or below ~6 nodes. *)

open Sjos_plan

val optimal : Search.ctx -> float * Plan.t
(** The cheapest complete finalized plan. *)
