#!/usr/bin/env python3
"""Interleaved A/B runs of perfbench on two source trees.

Usage (from anywhere):

    python3 tools/perfbench_ab.py --base /path/to/parent --head . \\
        --pairs 10 --seconds 10 --workloads disjoint nested_zipf

Each tree runs its own perfbench/run.py, which builds that tree's engine
into its own .bench_build/. Pair i runs both trees on seed
--first-seed + i, and the tree that runs first alternates from pair to
pair. CPU steal (/proc/stat, in 1/100 s ticks) is sampled around every
run; runs above --steal-ticks are listed apart, never dropped. Each run
also records its CPU seconds (user + sys of run.py and everything it
waited for, from getrusage(RUSAGE_CHILDREN)); a tree's first run includes
its build, so read the per-workload medians, not that run.

For every metric the report gives each side's median and quartiles, the
head/base ratio of the medians, the pairs the head won (ties count for
neither) and a verdict from the base tree's BENCHMARK.json:

  better        at least ten pairs ran, the head won at least nine
                tenths of them and its median beats the base's by
                more than the base's interquartile range;
  unresolved    otherwise, when the base's interquartile range exceeds
                the metric's bound (as a share of the base median);
  worse         otherwise, when the head's median is worse than the
                base's by more than the bound;
  within bound  otherwise.

Per-layer metrics (--trace 1) have no bound and get no verdict.

--aa first copies the base tree, without its .bench_build/, to a fresh
sibling directory, and before each workload's A/B runs the same seeds
base against that copy, with the same verdict rules, and prints that
table first. The two copies differ only in where they live and when
they were built, so the A/A table shows how far apart the A/B's sides
can read with no change to the code. The copy is removed at exit.

--out writes every run's result as JSON. Exits non-zero when a run
fails, is not correct, or has failed operations.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

RUN_TIMEOUT_S = 1200  # the first run of a tree also builds it


def steal_ticks():
    """Cumulative steal time of all CPUs, in USER_HZ ticks (0 if unknown)."""
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields[0] == "cpu" and len(fields) > 8:
                    return int(fields[8])
    except OSError:
        pass
    return 0


def children_cpu_s():
    """User + sys seconds of every waited-for child process so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    steal0 = steal_ticks()
    cpu0 = children_cpu_s()
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    run = {"tree": tree, "workload": workload, "seed": seed,
           "wall_s": round(time.monotonic() - start, 3),
           "cpu_s": round(children_cpu_s() - cpu0, 3),
           "steal_ticks": steal_ticks() - steal0,
           "exit": proc.returncode}
    try:
        run.update(json.loads(proc.stdout.rstrip("\n").split("\n")[-1]))
    except (IndexError, ValueError):
        run["error"] = (proc.stderr or proc.stdout)[-2000:]
    return run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(base, head, higher_better, bound):
    """The report's verdict for one metric (see the module docstring)."""
    wins = sum(1 for b, h in zip(base, head)
               if (h > b if higher_better else h < b))
    b_med, h_med = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    gain = h_med - b_med if higher_better else b_med - h_med
    if (len(base) >= 10 and wins >= math.ceil(0.9 * len(base))
            and gain > q3 - q1):
        return wins, "better"
    if bound is None:
        return wins, ""
    if b_med == 0 or (q3 - q1) / abs(b_med) > bound:
        return wins, "unresolved"
    if -gain / abs(b_med) > bound:
        return wins, "worse"
    return wins, "within bound"


def fmt(v):
    if abs(v) >= 1000:
        return f"{v:.0f}"
    if v == 0 or abs(v) >= 0.01:
        return f"{v:.4g}"
    return f"{v:.3e}"


def report(pairs, spec, steal_limit):
    """Prints one workload's table; returns its per-metric summary."""
    metrics = spec["end_to_end"] + spec.get("per_layer", [])
    rows = []
    summary = {}
    for m in metrics:
        name = m["name"]
        base, head = [], []
        for b, h in pairs:
            if name in b.get("metrics", {}) and name in h.get("metrics", {}):
                base.append(b["metrics"][name]["value"])
                head.append(h["metrics"][name]["value"])
        if not base:
            continue
        higher = m["better"] == "higher"
        wins, v = verdict(base, head, higher, m.get("bound"))
        b_q, h_q = quartiles(base), quartiles(head)
        b_med, h_med = statistics.median(base), statistics.median(head)
        ratio = h_med / b_med if b_med else float("nan")
        summary[name] = {"base": [b_med, *b_q], "head": [h_med, *h_q],
                         "ratio": ratio, "head_wins": wins,
                         "pairs": len(base), "verdict": v}
        rows.append((name,
                     f"{fmt(b_med)} [{fmt(b_q[0])}-{fmt(b_q[1])}]",
                     f"{fmt(h_med)} [{fmt(h_q[0])}-{fmt(h_q[1])}]",
                     f"{ratio:.3f}", f"{wins}/{len(base)}", v))
    header = ("metric", "base median [q1-q3]", "head median [q1-q3]",
              "head/base", "head wins", "verdict")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(6)]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    for side, idx in (("base", 0), ("head", 1)):
        attempted = sum(p[idx].get("attempted", 0) for p in pairs)
        failed = sum(p[idx].get("failed", 0) for p in pairs)
        cpu = statistics.median(p[idx]["cpu_s"] for p in pairs)
        print(f"{side}: {failed} failed of {attempted} attempted operations, "
              f"median {cpu:.1f} CPU s per run")
    flagged = [f"{side} seed {r['seed']} ({r['steal_ticks']} ticks)"
               for p in pairs for side, r in zip(("base", "head"), p)
               if r["steal_ticks"] > steal_limit]
    print(f"runs over {steal_limit} steal ticks: "
          + (", ".join(flagged) if flagged else "none"))
    return summary


def copy_tree(tree):
    """A fresh sibling copy of `tree` without its perfbench build."""
    parent, name = os.path.split(tree)
    dest = tempfile.mkdtemp(prefix=f"{name}-aa-", dir=parent)
    shutil.copytree(tree, dest, dirs_exist_ok=True, symlinks=True,
                    ignore=shutil.ignore_patterns(".bench_build"))
    return dest


def run_round(base, head, workload, title, args, seconds):
    """Interleaved pairs of one workload; returns (pairs, all runs ok)."""
    pairs = []
    ok = True
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = (base, head) if i % 2 == 0 else (head, base)
        runs = {t: run_once(t, workload, seed, seconds, args.trace)
                for t in order}
        pair = (runs[base], runs[head])
        for side, r in zip(("base", "head"), pair):
            print(f"[{workload} {title} pair {i + 1}/{args.pairs} seed "
                  f"{seed}] {side}: exit {r['exit']}, correct "
                  f"{r.get('correct')}, failed {r.get('failed')}, cpu "
                  f"{r['cpu_s']:.1f} s, steal {r['steal_ticks']} ticks",
                  file=sys.stderr, flush=True)
            if (r["exit"] != 0 or not r.get("correct")
                    or r.get("failed", 1) != 0):
                ok = False
        pairs.append(pair)
    return pairs, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="parent source tree")
    parser.add_argument("--head", required=True, help="changed source tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="window per run (default: BENCHMARK.json's)")
    parser.add_argument("--workloads", nargs="+",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steal-ticks", type=int, default=300,
                        help="flag runs that lost more steal than this")
    parser.add_argument("--aa", action="store_true",
                        help="run base against a copy of itself first")
    parser.add_argument("--out", help="write every run's result here")
    args = parser.parse_args()

    base, head = os.path.abspath(args.base), os.path.abspath(args.head)
    with open(os.path.join(base, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    if args.trace == 0:
        spec = dict(spec, per_layer=[])

    copy = copy_tree(base) if args.aa else None
    rounds = ([("A/A", copy)] if copy else []) + [("A/B", head)]
    results = {}
    ok = True
    try:
        for w in workloads:
            results[w] = {}
            for title, other in rounds:
                pairs, round_ok = run_round(base, other, w, title, args,
                                            seconds)
                ok = ok and round_ok
                print(f"\n== {w} {title}: {args.pairs} pairs, {seconds:g} s, "
                      f"seeds {args.first_seed}-"
                      f"{args.first_seed + args.pairs - 1}, trace "
                      f"{args.trace}, base first in odd pairs")
                result = {"summary": report(pairs, spec, args.steal_ticks),
                          "runs": pairs}
                if other == copy:  # the A/A round's head is the copy
                    results[w]["aa"] = result
                else:
                    results[w].update(result)
    finally:
        if copy:
            shutil.rmtree(copy, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"base": base, "head": head, "seconds": seconds,
                       "trace": args.trace, "workloads": results}, f,
                      indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
