(** Random valid plan generation, used to quantify the impact of
    optimization ("bad plans", §4.2.1 of the paper).

    Plans are built by repeatedly picking a random remaining edge and a
    random join algorithm; inputs that are not ordered by the join node get
    an explicit sort, so every generated plan is valid — just usually
    expensive. *)

open Sjos_plan

val sample : ?seed:int -> Search.ctx -> int -> (float * Plan.t) list
(** [sample ctx k] — [k] independent random plans (deterministic for a
    given seed; default seed [42]). *)

val worst_of : ?seed:int -> Search.ctx -> int -> float * Plan.t
(** The most expensive of [k] random plans — the paper's "bad plan": not
    necessarily the worst possible, just a plan a naive system might pick.
    Raises [Invalid_argument] for [k < 1]. *)

val best_of : ?seed:int -> Search.ctx -> int -> float * Plan.t
(** The cheapest of [k] random plans (for sanity comparisons). *)
