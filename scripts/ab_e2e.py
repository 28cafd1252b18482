#!/usr/bin/env python3
"""Alternate bench/e2e runs of two built trees and judge the change.

usage: ab_e2e.py PARENT_TREE CHANGE_TREE --workload NAME -n N
                 [--seconds 20] [--seed 1] [--spec BENCHMARK.json]
                 [--out runs.jsonl]

Each tree is a checkout whose `_build/default/bench/e2e/main.exe` is
already built (`dune build @all` in it); a relative tree path is taken
from the directory the script is started in, and a tree without that
executable exits 2 before any run.  Pair i runs the workload once
in each tree with seed `--seed + i`, in a fresh process whose working
directory is that tree; even pairs run the parent first, odd pairs the
change first, so drift on a shared host falls on both sides alike.

For every end-to-end metric in the spec it prints each side's median and
quartiles (Python's default `statistics.quantiles`, the same numbers
bench/e2e's `Stats.quartiles` gives), the pairs the change won, and a
verdict:

  unresolved  the parent's quartile spread, as a share of its median,
              exceeds the metric's bound: these runs cannot tell a
              change inside the bound from noise
  regressed   the change's median is worse by more than the bound
  improved    the change won at least 9 of every 10 pairs and its median
              is better by more than the parent's quartile spread
  unchanged   otherwise

The bounds are read from the spec and never widened.  A run that exits
non-zero, prints no result line or reports `correct: false` fails the
script (exit 1) after the table.  bench/e2e's `compare` judges run sets
the same way; ROADMAP item 6.4 folds this alternation into it as
`compare --pairs N --against <build dir>`, and this script goes then.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "bench", "e2e", "main.exe")


def run_once(tree, workload, seed, seconds):
    proc = subprocess.run(
        [os.path.join(tree, EXE), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def verdict(metric, parent, change):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(mp) if mp else (0.0 if q3 == q1 else float("inf"))
    worse_by = ((mc - mp) if lower else (mp - mc)) / abs(mp) if mp else 0.0
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    if spread > bound:
        v = "unresolved"
    elif worse_by > bound:
        v = "regressed"
    elif worse_by < 0 and abs(mc - mp) > q3 - q1 and wins >= 0.9 * len(parent):
        v = "improved"
    else:
        v = "unchanged"
    return v, wins, spread


def fmt(x):
    return f"{x:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("-n", type=int, required=True, help="number of pairs")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    ap.add_argument("--spec", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    ap.add_argument("--out", help="append one JSON line per run")
    args = ap.parse_args()

    with open(args.spec) as f:
        metrics = json.load(f)["end_to_end"]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for tree in sides.values():
        if not os.path.isfile(os.path.join(tree, EXE)):
            print(f"ab_e2e.py: {os.path.join(tree, EXE)} not found "
                  "(run `dune build @all` in that tree)", file=sys.stderr)
            sys.exit(2)
    values = {s: {m["name"]: [] for m in metrics} for s in sides}
    ok = True
    for i in range(args.n):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            code, result = run_once(sides[side], args.workload, seed, args.seconds)
            good = code == 0 and result is not None and result.get("correct", False)
            ok = ok and good
            got = (result or {}).get("metrics", {})
            for m in metrics:
                values[side][m["name"]].append(
                    got.get(m["name"], {}).get("value", float("nan")))
            print(f"pair {i} {side:6s} seed {seed}: exit {code}, correct "
                  f"{(result or {}).get('correct')}, failed "
                  f"{(result or {}).get('failed')}, "
                  + ", ".join(f"{m['name']} {fmt(values[side][m['name']][-1])}"
                              for m in metrics), flush=True)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"side": side, "pair": i, "seed": seed,
                                        "workload": args.workload, "exit": code,
                                        "result": result}) + "\n")

    print(f"\n{args.workload}, {args.n} pairs of {args.seconds:g} s")
    print(f"{'metric':16s} {'bound':>5s}  {'parent median [q1, q3]':>28s}  "
          f"{'change median [q1, q3]':>28s}  wins  verdict")
    for m in metrics:
        p, c = values["parent"][m["name"]], values["change"][m["name"]]
        v, wins, spread = verdict(m, p, c)
        cells = []
        for xs in (p, c):
            q1, _, q3 = quartiles(xs)
            cells.append(f"{fmt(statistics.median(xs))} [{fmt(q1)}, {fmt(q3)}]")
        print(f"{m['name']:16s} {m['bound']:5.2f}  {cells[0]:>28s}  {cells[1]:>28s}"
              f"  {wins:2d}/{len(p)}  {v} (parent spread {spread:.3f})")
    if not ok:
        print("some run failed, printed no result or was not correct",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
