(** Large-pattern optimizer tier: bottom-up subset DP over connected
    node-masks, after DPconv's layered-subset formulation.

    Where the paper's status search memoizes whole partitions, this tier
    memoizes one entry per [(mask, order)] — the best sub-plan producing
    exactly the nodes of the connected mask, ordered by the given node.
    For tree patterns the two searches find the same optimum: a
    cluster's internal edges, boundary sort targets and cost are all
    independent of how the remaining nodes are partitioned.

    Work is bounded by three devices: cost-bound pruning against a
    greedy O(n²) incumbent plan, a per-layer width cap (only the
    [width] cheapest masks of each popcount layer seed the next), and
    {!Search.check_budget} polled once per expanded mask.  Layers of
    patterns with ≤ 10 nodes never reach the default width, so the tier
    is exact there; beyond it degrades gracefully to the best plan found
    (never worse than the greedy incumbent).

    Enumeration is serial and iteration-order-free, so the work
    counters are deterministic across runs and domain counts. *)

val default_width : int
(** Per-layer mask cap used by {!Optimizer} when auto-tiering (1024). *)

val run : ?width:int -> Search.ctx -> float * Sjos_plan.Plan.t
(** [run ?width ctx] returns the cheapest complete plan found and its
    cost, including the order-by sort.  The plan is always valid for the
    pattern.  Work moves on the context: one [expansions] per
    processed mask, [plans_considered]/[statuses_generated] per memo
    candidate,
    [pruned_bound] per candidate cut by the incumbent bound or the
    layer cap.  Raises {!Sjos_guard.Budget.Exhausted} when the context's
    budget fires, and [Invalid_argument] when [width < 1]. *)
