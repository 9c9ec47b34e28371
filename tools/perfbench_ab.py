#!/usr/bin/env python3
"""Interleaved A/B runs of perfbench on two source trees.

Usage (from anywhere):

    python3 tools/perfbench_ab.py --base /path/to/parent --head . \\
        --pairs 10 --seconds 10 --workloads disjoint nested_zipf

Both trees are first copied, without their builds (.bench_build/,
build*/) or .git, into one fresh directory next to the base tree, as
base/ and head/: every path run.py passes to the benchmark binary (the
binary itself, --dir and --spans) then has the same length on both
sides, and so does the environment; their size moves the initial stack,
which can bias a run by several percent (Mytkowicz et al., ASPLOS 2009). Each copy's perfbench/run.py
builds that copy's engine into its own .bench_build/. Pair i runs both
trees on seed --first-seed + i, and the tree that runs first alternates
from pair to pair. CPU steal (/proc/stat, in 1/100 s ticks) is sampled
around every run; runs above --steal-ticks are listed apart, never
dropped. Each run also records its CPU seconds (user + sys of run.py and
everything it waited for, from getrusage(RUSAGE_CHILDREN)); a tree's
first run includes its build.

For every metric the report gives each side's median and quartiles, the
head/base ratio of the medians, the median of the per-pair head/base
ratios with a distribution-free 90% interval (order statistics of the
ratios, as in a sign test: with n pairs, the k-th smallest and k-th
largest ratio for the largest k whose coverage is at least 90%; none
below 5 pairs), the pairs the head won (ties count for neither) and a
verdict from the base tree's BENCHMARK.json:

  better        the interval lies wholly on the good side of 1;
  worse         the interval lies wholly past the metric's bound on the
                bad side (a ratio below 1 - bound, or above 1 + bound);
  unresolved    otherwise, when the base's interquartile range exceeds
                the bound (as a share of the base median), or the
                head's median is past the bound;
  within bound  otherwise.

Metrics without a bound (the per-layer ones of --trace 1, and the CPU
row) can only read "better". The CPU row, txn_per_cpu_s, is each run's
window transactions per CPU second (txn_per_s x window / cpu_s); it
leaves out each pair in which a tree built. A claimed gain must also
pass the benchmark's own rule, which the medians, quartiles and win
counts show: the head wins at least nine of ten pairs, and its median
beats the base's by more than the base's interquartile range.

--aa also copies the base tree as copy/ and, before each workload's A/B,
runs the same seeds base against that copy and prints that table first;
the A/B table then shows the A/A interval beside each verdict. The two
copies differ only in when they were built, so the A/A table shows how
far apart the A/B's sides can read with no change to the code. Every
copy is removed at exit.

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
CPU_ROW = {"name": "txn_per_cpu_s", "unit": "1/s", "better": "higher"}
CONFIDENCE = 0.90


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


def run_once(tree, workload, seed, seconds, trace, built):
    """One run.py run; `built` is the set of trees that already built."""
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
           "exit": proc.returncode, "built": tree not in built}
    built.add(tree)
    try:
        run.update(json.loads(proc.stdout.rstrip("\n").split("\n")[-1]))
    except (IndexError, ValueError):
        run["error"] = (proc.stderr or proc.stdout)[-2000:]
    txn = run.get("metrics", {}).get("txn_per_s")
    if txn is not None and run["cpu_s"] > 0 and not run["built"]:
        run["metrics"][CPU_ROW["name"]] = {
            "value": txn["value"] * seconds / run["cpu_s"], "unit": "1/s"}
    return run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def ratio_interval(ratios):
    """Distribution-free interval for the median of the paired ratios.

    The k-th smallest and k-th largest ratio cover the median with
    probability 1 - 2 P(Binomial(n, 1/2) < k); k is the largest rank that
    keeps that at CONFIDENCE or more. None when even the extremes cannot.
    """
    n = len(ratios)
    k = 0
    for r in range(1, n // 2 + 1):
        tail = sum(math.comb(n, i) for i in range(r)) / 2 ** n
        if 1 - 2 * tail >= CONFIDENCE:
            k = r
    if k == 0:
        return None
    s = sorted(ratios)
    return s[k - 1], s[n - k]


def verdict(base, head, higher_better, bound, interval):
    """The report's verdict for one metric (see the module docstring)."""
    if interval is not None:
        lo, hi = interval
        if (lo > 1) if higher_better else (hi < 1):
            return "better"
        if bound is not None and (
                (hi < 1 - bound) if higher_better else (lo > 1 + bound)):
            return "worse"
    if bound is None:
        return ""
    b_med, h_med = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    loss = b_med - h_med if higher_better else h_med - b_med
    if (b_med == 0 or (q3 - q1) / abs(b_med) > bound
            or loss / abs(b_med) > bound):
        return "unresolved"
    return "within bound"


def fmt(v):
    if abs(v) >= 1000:
        return f"{v:.0f}"
    if v == 0 or abs(v) >= 0.01:
        return f"{v:.4g}"
    return f"{v:.3e}"


def fmt_paired(summary):
    """'median [lo-hi]' of a metric's paired ratios."""
    if summary is None:
        return "-"
    interval = summary["paired_interval"]
    span = (f"[{interval[0]:.3f}-{interval[1]:.3f}]" if interval
            else "[no interval]")
    return f"{summary['paired_ratio']:.3f} {span}"


def report(pairs, spec, steal_limit, aa=None):
    """Prints one workload's table; returns its per-metric summary.

    `aa` is the same workload's A/A summary, printed beside each verdict.
    """
    metrics = spec["end_to_end"] + [CPU_ROW] + spec.get("per_layer", [])
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
        wins = sum(1 for b, h in zip(base, head)
                   if (h > b if higher else h < b))
        ratios = [h / b for b, h in zip(base, head) if b]
        interval = ratio_interval(ratios)
        v = verdict(base, head, higher, m.get("bound"), interval)
        b_q, h_q = quartiles(base), quartiles(head)
        b_med, h_med = statistics.median(base), statistics.median(head)
        ratio = h_med / b_med if b_med else float("nan")
        summary[name] = {
            "base": [b_med, *b_q], "head": [h_med, *h_q], "ratio": ratio,
            "paired_ratio": statistics.median(ratios) if ratios
            else float("nan"),
            "paired_interval": list(interval) if interval else None,
            "head_wins": wins, "pairs": len(base), "verdict": v}
        row = [name,
               f"{fmt(b_med)} [{fmt(b_q[0])}-{fmt(b_q[1])}]",
               f"{fmt(h_med)} [{fmt(h_q[0])}-{fmt(h_q[1])}]",
               f"{ratio:.3f}", fmt_paired(summary[name]),
               f"{wins}/{len(base)}", v]
        if aa is not None:
            row.append(fmt_paired(aa.get(name)))
        rows.append(tuple(row))
    header = ("metric", "base median [q1-q3]", "head median [q1-q3]",
              "head/base", "paired ratio [90%]", "head wins", "verdict")
    if aa is not None:
        header += ("A/A paired [90%]",)
    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
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


def copy_tree(tree, dest):
    """Copies `tree` to `dest` without its builds or its .git."""
    def skip(directory, names):
        top = os.path.samefile(directory, tree)
        return [n for n in names
                if n in (".bench_build", ".git")
                or (top and n.startswith("build")
                    and os.path.isdir(os.path.join(directory, n)))]
    shutil.copytree(tree, dest, symlinks=True, ignore=skip)
    return dest


def run_round(base, head, workload, title, args, seconds, built):
    """Interleaved pairs of one workload; returns (pairs, all runs ok)."""
    pairs = []
    ok = True
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = (base, head) if i % 2 == 0 else (head, base)
        runs = {t: run_once(t, workload, seed, seconds, args.trace, built)
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

    # Equal-length names in one directory give both sides equal paths.
    work = tempfile.mkdtemp(prefix="perfbench_ab-",
                            dir=os.path.dirname(base))
    results = {}
    ok = True
    built = set()
    try:
        base_copy = copy_tree(base, os.path.join(work, "base"))
        head_copy = copy_tree(head, os.path.join(work, "head"))
        rounds = [("A/B", head_copy)]
        if args.aa:
            rounds.insert(0, ("A/A", copy_tree(base, os.path.join(work,
                                                                  "copy"))))
        for w in workloads:
            results[w] = {}
            for title, other in rounds:
                pairs, round_ok = run_round(base_copy, other, w, title, args,
                                            seconds, built)
                ok = ok and round_ok
                print(f"\n== {w} {title}: {args.pairs} pairs, {seconds:g} s, "
                      f"seeds {args.first_seed}-"
                      f"{args.first_seed + args.pairs - 1}, trace "
                      f"{args.trace}, base first in odd pairs")
                aa = results[w].get("aa", {}).get("summary")
                result = {"summary": report(pairs, spec, args.steal_ticks,
                                            aa),
                          "runs": pairs}
                if title == "A/A":
                    results[w]["aa"] = result
                else:
                    results[w].update(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"base": base, "head": head, "seconds": seconds,
                       "trace": args.trace, "workloads": results}, f,
                      indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
