(** Exhaustive Dynamic Programming (§3.1).

    Level-wise search: all statuses on level [k-1] are expanded before any
    status on level [k] is considered; when the same status is reached along
    several paths only the cheapest is retained.  Explores the entire
    solution space — bushy plans included — and is therefore guaranteed to
    return an optimal plan under the cost model. *)

open Sjos_plan

val run : Search.ctx -> float * Plan.t
(** Returns the optimal finalized cost and plan.  The context's work
    record counts the search. *)
