"""Compare two sets of benchmark runs (base = parent commit, new = change).

Report on records already saved by `run.py --save DIR`:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Make the runs first, alternating which side runs first in each pair, then
report (each ROOT is a checkout holding the same perfbench/ files):

    python3 perfbench/compare.py --collect BASE_ROOT NEW_ROOT --out DIR \
        --workloads desk,pilot

`--collect` makes ten untraced and two traced pairs per workload, seeds
100, 101, ..., each run `run_seconds` of BENCHMARK.json long.

Runs are paired by (workload, seed). For each workload and end-to-end
metric the report gives each side's median and quartiles, the share of
pairs the new side wins (ties count for neither), which side ran first,
and a verdict:

- improved: at least ten pairs, new wins at least 9 in 10 of them, and
  its median is better by more than the base runs' own interquartile
  distance;
- worse: new median is worse than the base median by more than the
  metric's bound from BENCHMARK.json;
- unresolved: the base runs spread wider than the bound, and not every
  new run is better than every base run;
- unchanged: otherwise.

Traced records give per-layer deltas of the medians; `.calls` are shown
as exact counts and flagged when they vary between runs of one side.

The exit code is 1 when a workload has records on one side only, when
runs of one side wrote different results CSVs for one seed, or when the
two sides wrote different results CSVs for one seed (RESULTS CHANGED: a
pure speed change must not alter any result).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

MIN_PAIRS = 10  # the fewest pairs a gain may be claimed on
TRACED_PAIRS = 2
SEED_BASE = 100


def load(directory: str) -> list[dict]:
    out = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            out.append(json.load(fh))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _quartile_text(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(base: list[float], new: list[float], wins: int, pairs: int,
            better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    q1, mb, q3 = quartiles(base)
    gain = sign * (statistics.median(new) - mb)
    if pairs >= MIN_PAIRS and wins >= 0.9 * pairs and gain > q3 - q1:
        return "improved"
    if -gain > bound * abs(mb):
        return "worse"
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if q3 - q1 > bound * abs(mb) and not all_better:
        return "unresolved"
    return "unchanged"


def _by_seed(records: list[dict], workload: str, trace: int) -> dict[int, dict]:
    return {r["seed"]: r for r in records if r["workload"] == workload and r["trace"] == trace}


def digest_conflicts(records: list[dict]) -> list[tuple[str, int]]:
    """(workload, seed) pairs whose runs wrote different results CSVs."""
    seen: dict[tuple[str, int], str] = {}
    bad = []
    for r in records:
        key = (r["workload"], r["seed"])
        if seen.setdefault(key, r["results_csv_sha256"]) != r["results_csv_sha256"]:
            bad.append(key)
    return sorted(set(bad))


def report(base: list[dict], new: list[dict], spec: dict) -> list[str]:
    """Print the comparison; return the problems that make it fail."""
    problems = []
    for side, records in (("base", base), ("new", new)):
        for wl, seed in digest_conflicts(records):
            problems.append(f"{side}: runs of {wl} seed {seed} wrote different results CSVs")
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        b0, n0 = _by_seed(base, wl, 0), _by_seed(new, wl, 0)
        b1, n1 = _by_seed(base, wl, 1), _by_seed(new, wl, 1)
        if not (b0 or n0 or b1 or n1):
            continue
        print(f"== {wl}: {len(b0)} base / {len(n0)} new untraced runs, "
              f"{len(b1)} / {len(n1)} traced")
        for kind, b, n in (("untraced", b0, n0), ("traced", b1, n1)):
            if bool(b) != bool(n):
                problems.append(f"{wl}: {kind} runs on the {'base' if b else 'new'} side only")
        seeds = sorted(set(b0) & set(n0))
        if b0 and n0:
            base_first = sum(b0[s]["started_unix"] < n0[s]["started_unix"] for s in seeds)
            print(f"   {len(seeds)} pairs; base ran first in {base_first}")
            if len(seeds) < MIN_PAIRS:
                print(f"   fewer than {MIN_PAIRS} pairs: no gain can be claimed")
            print(f"   {'metric':<16} {'base median [q1, q3]':>32} {'new median [q1, q3]':>32}"
                  f" {'new wins':>9}  verdict")
            for m in spec["end_to_end"]:
                name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
                bv = [r["result"]["metrics"][name]["value"] for r in b0.values()]
                nv = [r["result"]["metrics"][name]["value"] for r in n0.values()]
                wins = sum(sign * n0[s]["result"]["metrics"][name]["value"]
                           > sign * b0[s]["result"]["metrics"][name]["value"] for s in seeds)
                print(f"   {name:<16} {_quartile_text(bv):>32} {_quartile_text(nv):>32}"
                      f" {wins:>3}/{len(seeds):<5}  "
                      + verdict(bv, nv, wins, len(seeds), m["better"], m["bound"]))
            for q in ("pvd_nmse_db_median", "pvd_source_mse_median", "lmmse_nmse_db_median",
                      "failed_frac"):
                bq = [r["report"][q]["value"] for r in b0.values() if r["report"][q]["value"] is not None]
                nq = [r["report"][q]["value"] for r in n0.values() if r["report"][q]["value"] is not None]
                if bq and nq:
                    print(f"   {q:<24} base {statistics.median(bq):.6g}  new {statistics.median(nq):.6g}")
        for b, n in ((b0, n0), (b1, n1)):
            for s in sorted(set(b) & set(n)):
                if b[s]["results_csv_sha256"] != n[s]["results_csv_sha256"]:
                    problems.append(f"RESULTS CHANGED: {wl} seed {s} trace {b[s]['trace']} "
                                    "wrote a different results CSV")
        if b1 and n1:
            _layer_report(b1, n1)
    for p in problems:
        print(f"!! {p}")
    return problems


def _layer_report(b1: dict, n1: dict) -> None:
    names = sorted(next(iter(b1.values()))["result"]["metrics"])
    print(f"   {'per-layer metric (per trial)':<50} {'base':>12} {'new':>12} {'delta':>12}")
    for name in names:
        bv = [r["result"]["metrics"][name]["value"] for r in b1.values()]
        nv = [r["result"]["metrics"][name]["value"] for r in n1.values()
              if name in r["result"]["metrics"]]
        if not nv or (not any(bv) and not any(nv)):
            continue
        if name.endswith((".calls", ".failed")):
            exact = "" if len(set(bv)) == 1 and len(set(nv)) == 1 else "  (varies between runs)"
            print(f"   {name:<50} {bv[0]:>12.10g} {nv[0]:>12.10g} {nv[0] - bv[0]:>+12.10g}{exact}")
        else:
            mb, mn = statistics.median(bv), statistics.median(nv)
            pct = f"{(mn - mb) / mb:+.1%}" if mb else ""
            print(f"   {name:<50} {mb:>12.4f} {mn:>12.4f} {mn - mb:>+12.4f} {pct}")


def _tree_digest(root: str) -> str:
    h = hashlib.sha256()
    bench = os.path.join(root, "perfbench")
    for path in sorted(glob.glob(os.path.join(bench, "*"))):
        if os.path.isfile(path):
            h.update(os.path.basename(path).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    with open(os.path.join(root, "BENCHMARK.json"), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def collect(roots: tuple[str, str], out: str, names: list[str], spec: dict) -> None:
    """Alternate base and new runs; pair i uses seed SEED_BASE + i."""
    roots = {"base": roots[0], "new": roots[1]}
    if _tree_digest(roots["base"]) != _tree_digest(roots["new"]):
        sys.exit("compare: the two checkouts hold different benchmark code")
    for wl in names:
        for trace, pairs in ((0, MIN_PAIRS), (1, TRACED_PAIRS)):
            for i in range(pairs):
                order = ("base", "new") if i % 2 == 0 else ("new", "base")
                for side in order:
                    cmd = [sys.executable, "perfbench/run.py", "--workload", wl,
                           "--seed", str(SEED_BASE + i), "--seconds", str(spec["run_seconds"]),
                           "--trace", str(trace), "--save", os.path.join(out, side)]
                    print(f"[{side}] {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
                    done = subprocess.run(cmd, cwd=roots[side], stdout=subprocess.DEVNULL)
                    if done.returncode != 0:
                        print(f"[{side}] exit {done.returncode}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dirs", nargs="*", metavar="DIR", help="BASE_DIR NEW_DIR of saved records")
    ap.add_argument("--collect", nargs=2, metavar=("BASE_ROOT", "NEW_ROOT"))
    ap.add_argument("--out", help="with --collect: directory for the records (base/, new/)")
    ap.add_argument("--workloads", help="with --collect: comma-separated subset (default: all)")
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.collect:
        if not args.out:
            ap.error("--collect needs --out")
        # The runs start in each checkout, so the record paths must not be relative.
        out = os.path.abspath(args.out)
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
        collect(tuple(os.path.abspath(r) for r in args.collect), out, names, spec)
        dirs = [os.path.join(out, "base"), os.path.join(out, "new")]
    elif len(args.dirs) == 2:
        dirs = args.dirs
    else:
        ap.error("give BASE_DIR NEW_DIR, or --collect BASE_ROOT NEW_ROOT --out DIR")
    base, new = load(dirs[0]), load(dirs[1])
    if not base or not new:
        sys.exit(f"compare: no records in {dirs[0] if not base else dirs[1]}")
    return 1 if report(base, new, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
