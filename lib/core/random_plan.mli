(** Random valid plans: one random walk from the start status to a
    complete plan, and the searches built on it.

    A walk repeatedly picks a remaining edge and a join algorithm; inputs
    that are not ordered by the join node get an explicit sort, so every
    walk yields a valid plan — just usually an expensive one.  Sampling
    walks quantifies the impact of optimization ("bad plans", §4.2.1 of
    the paper).

    Iterative Improvement and Simulated Annealing, in the style of
    Steinbrunn/Moerkotte/Kemper (VLDB J. 1997), which the paper's
    related-work section cites as the relational alternative to
    exhaustive enumeration, search the space of walks: a plan is encoded
    as the list of decisions (edge, then algorithm, per step) its walk
    took, and a {e neighbor} re-draws the decision suffix from a random
    position, i.e. keeps a prefix of the join order and replans the rest.
    Cost is the same finalized status cost the exact algorithms use, so
    results compare directly with {!Dp}/{!Dpp}.  Neither is one of the
    paper's five algorithms; they are ablation baselines showing what the
    exact and pruned searches buy. *)

open Sjos_plan

val sample : ?seed:int -> Search.ctx -> int -> (float * Plan.t) list
(** [sample ctx k] — [k] independent random plans (deterministic for a
    given seed; default seed [42]).  Every join step bumps the context's
    [plans_considered]. *)

val worst_of : ?seed:int -> Search.ctx -> int -> float * Plan.t
(** The most expensive of [k] random plans — the paper's "bad plan": not
    necessarily the worst possible, just a plan a naive system might pick.
    Raises [Invalid_argument] for [k < 1]. *)

val best_of : ?seed:int -> Search.ctx -> int -> float * Plan.t
(** The cheapest of [k] random plans (for sanity comparisons). *)

val iterative_improvement : ?seed:int -> Search.ctx -> float * Plan.t
(** Hill-climb from a random plan, moving to strictly cheaper neighbors;
    climb from 5 random starts, each stopping after 30 non-improving
    neighbors, and return the cheapest end point.  Every complete
    candidate plan bumps the context's [plans_considered]. *)

val simulated_annealing : ?seed:int -> Search.ctx -> float * Plan.t
(** Classic annealing: accept a worse neighbor with probability
    [exp (-delta / temperature)]; the temperature starts at 0.1 × the
    start plan's cost and is multiplied by 0.95 on each of 200 steps.
    Returns the best plan ever visited; every candidate bumps
    [plans_considered]. *)
