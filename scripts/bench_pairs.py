#!/usr/bin/env python3
"""Compare a base commit with the working tree on the benchmark, in
alternating pairs of runs.

    python3 scripts/bench_pairs.py --base HEAD --seeds 101-110 \\
        --workloads local-pagerank --workdir /tmp/pairs

The base commit is exported with `git archive` into `<workdir>/base` (a
plain copy: nothing is registered in the repository). Pair i runs
`python3 icbench/run.py --workload W --seed S --seconds T --trace 0` once in
each checkout with the same seed and BENCHMARK.json's `run_seconds` as T,
the base first in even pairs and the working tree first in odd ones. Every
run's metrics go to
`<workdir>/runs.jsonl`, its standard error (per-fork figures) to
`<workdir>/logs/`. Then, per workload, it prints each run's per-fork
`topk p50` read back from that log, so a pair lost to one slow JVM shows,
then each side's per-fork figures of all runs pooled and sorted, so a
bimodal fork speed shows as two clusters, and, per end-to-end metric of
BENCHMARK.json, each side's median and quartiles, the pairs the working
tree won, and a verdict:

- improved: won at least nine tenths of the pairs (ties count for neither),
  and the medians differ, in the better direction, by more than the base
  runs' interquartile range;
- unresolved: either side's interquartile range, relative to its median,
  is wider than the metric's bound, unless every working-tree run reads
  better than every base run;
- worse: the working tree's median is worse than the base's by more than the
  bound;
- no worse: otherwise.

The verdict rule's and the log parser's tests:
`python3 -m doctest scripts/bench_pairs.py`.
The script reads BENCHMARK.json and writes only under `--workdir`.
"""
import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics.

    >>> quartiles([1, 2, 3, 4, 5])
    (2.0, 3.0, 4.0)
    >>> quartiles([4.0])
    (4.0, 4.0, 4.0)
    """
    s = sorted(xs)

    def at(q):
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def verdict(base, change, better, bound):
    """Verdict for one metric from paired runs (`base[i]` and `change[i]` ran
    with the same seed); `better` is "lower" or "higher", `bound` the
    relative worsening BENCHMARK.json allows. Returns (wins, verdict).

    Nine wins of ten, and a median gap beyond the base's IQR, improve:

    >>> verdict([10, 11, 12, 10, 11, 12, 10, 11, 12, 11],
    ...         [8, 9, 8, 9, 8, 9, 8, 9, 8, 12], "lower", 0.25)
    (9, 'improved')

    Eight of ten is not enough, however far apart the medians:

    >>> verdict([10] * 10, [5] * 8 + [11] * 2, "lower", 0.25)
    (8, 'no worse')

    Ties count for neither side:

    >>> verdict([1.0] * 10, [1.0] * 10, "lower", 0.05)
    (0, 'no worse')

    A spread wider than the bound leaves the metric unresolved, unless every
    working-tree run beats every base run:

    >>> verdict([100, 140, 200, 100, 140, 200, 100, 140, 200, 140],
    ...         [120, 150, 190, 120, 150, 190, 120, 150, 190, 150], "lower", 0.25)
    (3, 'unresolved')
    >>> verdict([1.0, 1.5, 2.0, 1.0, 1.5, 2.0, 1.0, 1.5, 2.0, 1.5],
    ...         [0.5] * 10, "lower", 0.25)
    (10, 'improved')

    Worse beyond the bound, with a tight spread:

    >>> verdict([100.0] * 10, [90.0] * 10, "higher", 0.25)
    (0, 'no worse')
    >>> verdict([100.0] * 10, [70.0] * 10, "higher", 0.25)
    (0, 'worse')
    """
    sign = 1 if better == "lower" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (bmed - cmed)
    if wins >= 0.9 * len(base) and gain > bq3 - bq1:
        return wins, "improved"
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    if spread > bound and not all_better:
        return wins, "unresolved"
    if bmed and -gain / abs(bmed) > bound:
        return wins, "worse"
    return wins, "no worse"


def parse_seeds(text):
    """`101-103,7919` → [101, 102, 103, 7919].

    >>> parse_seeds("101-103,7919")
    [101, 102, 103, 7919]
    """
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def fork_topk_p50(log):
    """The per-fork `topk p50` figures (ms), in fork order, from the standard
    error of one benchmark run.

    >>> fork_topk_p50("[icbench] warm-up reached its pass cap in 1 of 3 forks\\n"
    ...               "[icbench] fork 0: topk p50 0.0112 ms, tail p99 of N=40 (0 beyond) "
    ...               "0.2100 ms; first p50 0.0030 ms; progressive p50 0.0130 ms; 900.0 queries/s\\n"
    ...               "[icbench] fork 1: topk p50 0.0171 ms, tail p99 of N=40 ...\\n")
    [0.0112, 0.0171]
    >>> fork_topk_p50("[icbench] fork 0 exited with 1\\n")
    []
    """
    return [float(x) for x in re.findall(r"^\[icbench\] fork \d+: topk p50 (\S+) ms", log, re.M)]


def pooled_line(side, per_run):
    """One side's per-fork `topk p50` figures of every run of a workload,
    pooled and sorted, so forks that settle in two speed modes show as two
    clusters whatever their runs.

    >>> pooled_line("base", [[0.0171, 0.0112, 0.0113], [0.0110, 0.0169]])
    'base pooled (5 forks): 0.011 0.0112 0.0113 0.0169 0.0171'
    >>> pooled_line("change", [[], []])
    'change pooled (0 forks): '
    """
    forks = sorted(x for run in per_run for x in run)
    return f"{side} pooled ({len(forks)} forks): " + " ".join(f"{x:.4g}" for x in forks)


def run_once(checkout, workload, seed, seconds, log):
    """One benchmark run; its metrics line, or None when the run failed."""
    with open(log, "w") as err:
        proc = subprocess.run(
            ["python3", "icbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, stdout=subprocess.PIPE, stderr=err, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def report(bench, runs, workload, logs):
    """Print the per-fork view and the comparison table of one workload."""
    pairs = {}
    for r in runs:
        if r["workload"] == workload:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
    done = [p for p in sorted(pairs) if all(pairs[p].get(s) for s in ("base", "change"))]
    print(f"\n## {workload}: {len(done)} pairs")
    for side in ("base", "change"):
        res = [pairs[p][side] for p in done]
        failed = sum(r["failed"] for r in res)
        attempted = sum(r["attempted"] for r in res)
        print(f"{side}: correct in {sum(r['correct'] for r in res)} of {len(res)} runs, "
              f"failed {failed} of {attempted}")
    if not done:
        return
    print("Per-fork topk p50 (ms), base | change:")
    pooled = {"base": [], "change": []}
    for p in done:
        seed = next(r["seed"] for r in runs if r["workload"] == workload and r["pair"] == p)
        forks = {side: fork_topk_p50((logs / f"{workload}-{p}-{seed}-{side}.err").read_text())
                 for side in ("base", "change")}
        print(f"  pair {p} seed {seed}: " + " | ".join(
            " ".join(f"{x:.4g}" for x in forks[side]) for side in ("base", "change")))
        for side in pooled:
            pooled[side].append(forks[side])
    for side in pooled:
        print("  " + pooled_line(side, pooled[side]))
    print("| metric | base median [q1, q3] | change median [q1, q3] | wins | verdict |")
    print("|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        name = m["name"]
        if any(name not in pairs[p][s]["metrics"] for p in done for s in ("base", "change")):
            continue
        base = [pairs[p]["base"]["metrics"][name]["value"] for p in done]
        change = [pairs[p]["change"]["metrics"][name]["value"] for p in done]
        wins, v = verdict(base, change, m["better"], m["bound"])
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"| {name} ({m['unit']}) | {fmt(quartiles(base))} | {fmt(quartiles(change))} "
              f"| {wins}/{len(done)} | {v} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare against")
    ap.add_argument("--seeds", default="101-110", help="one pair per seed, e.g. 101-110,7919")
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--workdir", required=True, type=Path)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    store = args.workdir / "runs.jsonl"
    base_dir = args.workdir / "base"
    if not base_dir.exists():
        base_dir.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_dir)], input=archive, check=True)
    (args.workdir / "logs").mkdir(exist_ok=True)
    checkouts = {"base": base_dir, "change": ROOT}
    for pair, seed in enumerate(parse_seeds(args.seeds)):
        for workload in workloads:
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                log = args.workdir / "logs" / f"{workload}-{pair}-{seed}-{side}.err"
                result = run_once(checkouts[side], workload, seed, bench["run_seconds"], log)
                print(f"[pairs] {workload} pair {pair} seed {seed} {side}: "
                      f"{'ok' if result else 'FAILED, see ' + str(log)}", file=sys.stderr)
                with open(store, "a") as f:
                    f.write(json.dumps({"workload": workload, "pair": pair, "seed": seed,
                                        "side": side, "result": result}) + "\n")
    runs = [json.loads(line) for line in open(store)]
    for workload in workloads:
        report(bench, runs, workload, args.workdir / "logs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
