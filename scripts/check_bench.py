#!/usr/bin/env python3
"""Schema checks for the BENCH_*.json files the bench harnesses write.

Replaces the old `python3 -m json.tool` CI steps: well-formed JSON is
necessary but nowhere near sufficient — a bench that silently ran zero
queries still serializes cleanly.  Each checker asserts the keys CI's
gates read, that the row lists are non-empty, and that counters which
must be positive actually are.

Usage: check_bench.py FILE [FILE...]
The checker is picked from the file's basename; unknown names fail.
"""

import json
import sys


class CheckFailure(Exception):
    pass


def need(obj, key, types):
    if key not in obj:
        raise CheckFailure(f"missing key {key!r}")
    if not isinstance(obj[key], types):
        raise CheckFailure(
            f"key {key!r} has type {type(obj[key]).__name__}, "
            f"wanted {types}"
        )
    return obj[key]


def nonempty(seq, what):
    if len(seq) == 0:
        raise CheckFailure(f"{what} is empty — the bench ran nothing")
    return seq


NUM = (int, float)


def check_bench_1(doc):
    rows = nonempty(doc, "query list")
    if not isinstance(rows, list):
        raise CheckFailure("top level must be a list of per-query rows")
    for row in rows:
        need(row, "query", str)
        need(row, "bad_plan", dict)
        algos = nonempty(need(row, "algorithms", dict), "algorithms")
        for name, cell in algos.items():
            for key in ("plans_considered", "matches"):
                if need(cell, key, NUM) < 0:
                    raise CheckFailure(f"{row['query']}/{name}: {key} < 0")
            for key in (
                "opt_seconds",
                "eval_seconds",
                "est_cost_units",
                "actual_cost_units",
            ):
                need(cell, key, NUM)


def check_bench_cache(doc):
    cells = nonempty(need(doc, "cells", list), "cells")
    for cell in cells:
        need(cell, "query", str)
        need(cell, "algorithm", str)
        need(cell, "cold_opt_seconds", NUM)
        need(cell, "warm_opt_seconds", NUM)
        need(cell, "speedup", NUM)
    need(doc, "plan_cache", dict)


def check_bench_guard(doc):
    need(doc, "baseline", dict)
    need(doc, "degraded", dict)
    need(doc, "degraded_cost_ratio", NUM)
    need(doc, "degraded_matches_identical", bool)
    chaos = need(doc, "chaos", dict)
    if need(chaos, "runs", int) <= 0:
        raise CheckFailure("chaos sweep ran zero queries")
    for key in ("ok", "structured_errors", "escaped_exceptions"):
        need(chaos, key, int)
    need(chaos, "lies_only_divergences", int)
    need(chaos, "error_classes", dict)


def check_work(work, where):
    for key in (
        "comparisons",
        "tuples_emitted",
        "items_skipped",
        "candidates_scanned",
        "stack_ops",
        "io_items",
        "sorted_items",
        "expansions",
        "plans_considered",
        "page_touches",
        "statuses_generated",
        "pruned_bound",
        "pruned_deadend",
        "pruned_left_deep",
        "score",
    ):
        if need(work, key, int) < 0:
            raise CheckFailure(f"{where}: work counter {key} < 0")
    if need(work, "sort_cost", NUM) < 0:
        raise CheckFailure(f"{where}: work sort_cost < 0")
    if work["score"] <= 0:
        raise CheckFailure(f"{where}: work score is zero — nothing executed")


def check_bench_par(doc):
    need(doc, "scale", NUM)
    need(doc, "reps", int)
    need(doc, "cores", int)
    need(doc, "serial_seconds", NUM)
    serial = need(doc, "serial", dict)
    check_work(need(serial, "work", dict), "serial")
    rows = nonempty(need(doc, "per_domain", list), "per_domain")
    for row in rows:
        d = need(row, "domains", int)
        need(row, "seconds", NUM)
        need(row, "speedup", NUM)
        need(row, "identical", bool)
        acct = need(row, "accounting", dict)
        check_work(need(acct, "work", dict), f"domains={d}")
        need(acct, "sharded_joins", int)
        need(acct, "balance", NUM)
    table2 = nonempty(need(doc, "table2_considered", dict), "table2_considered")
    for name, considered in table2.items():
        if not isinstance(considered, int) or considered <= 0:
            raise CheckFailure(f"table2 {name}: bad considered count")
    shape = need(doc, "shape", dict)
    for key in (
        "identical_outputs",
        "counters_exact",
        "work_identical_across_domains",
        "sharding_active",
        "shard_balanced",
        "pass",
    ):
        need(shape, key, bool)
    need(shape, "max_balance", NUM)


def check_bench_io(doc):
    need(doc, "scale", NUM)
    if need(doc, "page_size", int) <= 0:
        raise CheckFailure("page_size must be positive")
    rows = nonempty(need(doc, "queries", list), "queries")
    for row in rows:
        qid = need(row, "id", str)
        need(row, "identical", bool)
        if need(row, "output_tuples", int) <= 0:
            raise CheckFailure(f"{qid}: zero output tuples")
        for key in ("page_touches", "disk_misses"):
            if need(row, key, int) < 0:
                raise CheckFailure(f"{qid}: {key} < 0")
        for key in ("mem_seconds", "disk_seconds"):
            need(row, key, NUM)
    sweep = need(doc, "pool_sweep", dict)
    need(sweep, "query", str)
    points = nonempty(need(sweep, "points", list), "pool sweep points")
    for point in points:
        for key in ("pool_pages", "accesses", "misses", "evictions"):
            if need(point, key, int) < 0:
                raise CheckFailure(f"pool sweep: {key} < 0")
    skips = nonempty(need(doc, "skip_ahead", list), "skip_ahead")
    for row in skips:
        qid = need(row, "id", str)
        lazy = need(row, "lazy_misses", int)
        full = need(row, "full_scan_misses", int)
        if lazy > full:
            raise CheckFailure(f"{qid}: lazy join read more pages than a full scan")
        need(row, "items_skipped", int)
    grounding = need(doc, "grounding", dict)
    need(grounding, "query", str)
    need(grounding, "page_misses", int)
    need(grounding, "io_items", int)
    if need(grounding, "f_io", NUM) < 0:
        raise CheckFailure("grounded f_io is negative")
    if "paper" in doc and isinstance(doc["paper"], dict):
        paper = doc["paper"]
        need(paper, "nodes", int)
        need(paper, "out_of_core", bool)
        if need(paper, "pool_bytes", int) >= need(paper, "total_column_bytes", int):
            raise CheckFailure("paper run: pool not smaller than the column data")
    shape = need(doc, "shape", dict)
    for key in (
        "identical_outputs_and_work",
        "table2_exact",
        "pool_sweep_monotone",
        "lazy_never_worse",
        "skip_ahead_saves_misses",
        "f_io_grounded",
        "pass",
    ):
        need(shape, key, bool)


def check_bench_serve(doc):
    need(doc, "seed", int)
    if need(doc, "requests", int) <= 0:
        raise CheckFailure("server bench ran zero requests")
    if need(doc, "chaos_requests", int) < 500:
        raise CheckFailure("fewer than 500 chaos-tenant requests")
    for key in ("admitted", "shed", "structured_failures", "degraded"):
        if need(doc, key, int) < 0:
            raise CheckFailure(f"{key} < 0")
    if doc["admitted"] <= 0:
        raise CheckFailure("no requests were admitted")
    for key in ("p50_ms", "p99_ms", "throughput_rps", "shed_rate"):
        if need(doc, key, NUM) < 0:
            raise CheckFailure(f"{key} < 0")
    if doc["p99_ms"] < doc["p50_ms"]:
        raise CheckFailure("p99 below p50")
    sat = need(doc, "saturation", dict)
    for key in (
        "pinned",
        "queued_at_peak",
        "burst_requests",
        "burst_shed",
        "burst_completed",
    ):
        if need(sat, key, int) < 0:
            raise CheckFailure(f"saturation.{key} < 0")
    if sat["burst_shed"] + sat["burst_completed"] != sat["burst_requests"]:
        raise CheckFailure("saturation burst requests unaccounted for")
    table2 = nonempty(need(doc, "table2_considered", dict), "table2_considered")
    for name, considered in table2.items():
        if not isinstance(considered, int) or considered <= 0:
            raise CheckFailure(f"table2 {name}: bad considered count")
    shape = need(doc, "shape", dict)
    for key in (
        "zero_escaped",
        "sheds_structured",
        "digests_exact",
        "enough_chaos",
        "counters_exact",
        "pass",
    ):
        need(shape, key, bool)


def check_bench_twig(doc):
    need(doc, "scale", NUM)
    cells = nonempty(need(doc, "cells", list), "cells")
    saw_holistic_expect = False
    for cell in cells:
        cid = need(cell, "id", str)
        need(cell, "dataset", str)
        need(cell, "pattern", str)
        expect = need(cell, "expect", str)
        if expect not in ("holistic", "binary"):
            raise CheckFailure(f"{cid}: expect must be holistic or binary")
        saw_holistic_expect = saw_holistic_expect or expect == "holistic"
        if need(cell, "output_tuples", int) <= 0:
            raise CheckFailure(f"{cid}: zero output tuples")
        for engine in ("binary", "holistic"):
            side = need(cell, engine, dict)
            for key in ("comparisons", "io_items", "score"):
                if need(side, key, int) < 0:
                    raise CheckFailure(f"{cid}/{engine}: {key} < 0")
            if side["score"] != side["comparisons"] + side["io_items"]:
                raise CheckFailure(f"{cid}/{engine}: score is not cmp+io")
            need(side, "est_cost", NUM)
            need(side, "seconds", NUM)
        if need(cell, "auto_picked", str) not in ("holistic", "binary"):
            raise CheckFailure(f"{cid}: bad auto_picked")
        need(cell, "identical", bool)
        need(cell, "deterministic", bool)
        if expect == "holistic":
            if cell["holistic"]["score"] >= cell["binary"]["score"]:
                raise CheckFailure(f"{cid}: holistic did not win cmp+io")
    if not saw_holistic_expect:
        raise CheckFailure("no deep-chain cell expects a holistic win")
    shape = need(doc, "shape", dict)
    for key in (
        "identical_outputs",
        "deterministic_work",
        "table2_exact",
        "holistic_wins_deep_chains",
        "auto_agrees",
        "pass",
    ):
        need(shape, key, bool)


def check_bench_bigopt(doc):
    need(doc, "seed", int)
    if need(doc, "width", int) <= 0:
        raise CheckFailure("beam width must be positive")
    diffs = nonempty(need(doc, "differential", list), "differential")
    for row in diffs:
        shape = need(row, "shape", str)
        n = need(row, "nodes", int)
        if n > 10:
            raise CheckFailure(f"{shape}/{n}: differential cell above 10 nodes")
        need(row, "dp_cost", NUM)
        need(row, "bigdp_cost", NUM)
        if not need(row, "equal", bool):
            raise CheckFailure(f"{shape}/{n}: BigDP cost != DP cost")
    scaling = nonempty(need(doc, "scaling", list), "scaling")
    saw_30 = False
    for row in scaling:
        shape = need(row, "shape", str)
        n = need(row, "nodes", int)
        need(row, "cost", NUM)
        seconds = need(row, "seconds", NUM)
        if need(row, "expanded", int) <= 0:
            raise CheckFailure(f"{shape}/{n}: zero expansions")
        if need(row, "considered", int) <= 0:
            raise CheckFailure(f"{shape}/{n}: zero plans considered")
        if not need(row, "deterministic", bool):
            raise CheckFailure(f"{shape}/{n}: nondeterministic work")
        if n == 30:
            saw_30 = True
            if seconds >= 1.0:
                raise CheckFailure(f"{shape}/{n}: {seconds}s at 30 nodes")
    if not saw_30:
        raise CheckFailure("no 30-node scaling cell")
    ladder = nonempty(need(doc, "dp_ladder", list), "dp_ladder")
    for rung in ladder:
        need(rung, "nodes", int)
        need(rung, "seconds", NUM)
    extrapolated = need(doc, "dp_extrapolated_seconds", NUM)
    if extrapolated <= 60.0:
        raise CheckFailure(
            f"DP extrapolates to only {extrapolated}s at 30 nodes"
        )
    shape = need(doc, "shape", dict)
    for key in (
        "cost_equality_small",
        "subsecond_at_30",
        "deterministic_work",
        "dp_infeasible_at_30",
        "table2_exact",
        "pass",
    ):
        need(shape, key, bool)


CHECKERS = {
    "BENCH_1.json": check_bench_1,
    "BENCH_CACHE.json": check_bench_cache,
    "BENCH_GUARD.json": check_bench_guard,
    "BENCH_PAR.json": check_bench_par,
    "BENCH_IO.json": check_bench_io,
    "BENCH_SERVE.json": check_bench_serve,
    "BENCH_TWIG.json": check_bench_twig,
    "BENCH_BIGOPT.json": check_bench_bigopt,
}


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        name = path.rsplit("/", 1)[-1]
        checker = CHECKERS.get(name)
        if checker is None:
            print(f"check_bench: {path}: no checker for {name}", file=sys.stderr)
            failed = True
            continue
        try:
            with open(path) as fh:
                doc = json.load(fh)
            checker(doc)
            print(f"check_bench: {path}: OK")
        except (OSError, json.JSONDecodeError, CheckFailure) as exc:
            print(f"check_bench: {path}: FAIL: {exc}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
