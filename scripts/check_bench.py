#!/usr/bin/env python3
"""Check the BENCH_<SUITE>.json reports that `bench/main.exe` writes.

Every suite writes one envelope {"suite", "meta", "cells": [{"id",
"work"?, ...}], "gates": {name: bool}}.  A report passes when its cells
are non-empty with unique ids, every `work` object carries non-negative
integer counters and a positive score, and every gate is a bool that
holds.  REQUIRED lists the gates each suite must report, so a suite that
silently drops a gate fails.

Usage: check_bench.py FILE [FILE...]
"""

import json
import sys

REQUIRED = {
    "paper": "every_cell_executed dpp_estimate_equals_dp no_estimate_below_dp "
    "bad_plan_never_beats_dp table2_ordered fp_converges_ld_stays_worse",
    "cache": "warm_prepare_hits_cache cached_tuples_identical",
    "guard": "degraded_matches_identical chaos_sweep_ran "
    "zero_escaped_exceptions zero_lies_only_divergences",
    "par": "identical_outputs counters_exact work_identical_across_domains "
    "sharding_active shard_balanced",
    "io": "identical_outputs_and_work nonzero_output_tuples table2_exact "
    "pool_sweep_monotone lazy_never_worse skip_ahead_saves_misses f_io_grounded",
    "twig": "identical_outputs nonzero_output_tuples deterministic_work "
    "table2_exact holistic_wins_deep_chains auto_agrees",
    "bigopt": "cost_equality_small differential_at_most_10_nodes "
    "has_30_node_cell subsecond_at_30 search_ran_every_cell "
    "deterministic_work dp_infeasible_at_30 table2_exact",
    "serve": "zero_escaped some_admitted sheds_structured burst_accounted "
    "digests_exact enough_chaos counters_exact p99_at_least_p50",
}

# the integer counters of Sjos_obs.Work, plus its derived score
WORK_COUNTERS = """comparisons tuples_emitted items_skipped candidates_scanned
stack_ops io_items sorted_items expansions plans_considered page_touches
statuses_generated pruned_bound pruned_deadend pruned_left_deep score""".split()


def problems(doc, name):
    """Yield one message per broken envelope rule."""
    if not isinstance(doc, dict):
        yield "top level is not an object"
        return
    suite = doc.get("suite")
    if suite not in REQUIRED:
        yield f"unknown suite {suite!r}"
        return
    if name != f"BENCH_{suite.upper()}.json":
        yield f"suite {suite!r} written to {name}"
    if not isinstance(doc.get("meta"), dict):
        yield "meta is not an object"
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        yield "cells is empty or not a list: the bench ran nothing"
        cells = []
    seen = set()
    for cell in cells:
        cid = cell.get("id") if isinstance(cell, dict) else None
        if not isinstance(cid, str):
            yield f"cell without a string id: {cell!r:.80}"
            continue
        if cid in seen:
            yield f"duplicate cell id {cid!r}"
        seen.add(cid)
        if "work" in cell:
            yield from (f"{cid}: {m}" for m in work_problems(cell["work"]))
    gates = doc.get("gates")
    if not isinstance(gates, dict) or not gates:
        yield "gates is empty or not an object"
        return
    for gate in REQUIRED[suite].split():
        if gate not in gates:
            yield f"required gate {gate!r} missing"
    for gate, ok in gates.items():
        if not isinstance(ok, bool):
            yield f"gate {gate!r} is not a bool"
        elif not ok:
            yield f"gate {gate!r} is false"


def work_problems(work):
    if not isinstance(work, dict):
        yield "work is not an object"
        return
    for key in WORK_COUNTERS:
        v = work.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            yield f"work counter {key} is {v!r}, not a non-negative integer"
    cost = work.get("sort_cost")
    if not isinstance(cost, (int, float)) or cost < 0:
        yield f"work sort_cost is {cost!r}"
    if work.get("score") == 0:
        yield "work score is zero: nothing executed"


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            with open(path) as fh:
                found = list(problems(json.load(fh), path.rsplit("/", 1)[-1]))
        except (OSError, json.JSONDecodeError) as exc:
            found = [str(exc)]
        for msg in found:
            print(f"check_bench: {path}: FAIL: {msg}", file=sys.stderr)
        if not found:
            print(f"check_bench: {path}: OK")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
