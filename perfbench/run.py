"""Benchmark of the pvdmimo Monte Carlo harness (see perfbench/README.md).

Run from the checkout root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One run parses the workload config once, makes one short untimed
warm-up call of `run_experiment`, then repeats identical rounds until
`--seconds` is used up. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced rounds and reports
per-layer numbers per trial plus the tracing overhead. Every round's
output is checked; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every check passed, 2 when the program under test is missing.
"""

from __future__ import annotations

import os

# The plain single-threaded baseline: BLAS threads are pinned to 1 in this
# process's environment before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 9
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 2
P90_MIN_SAMPLES = 100

# A fresh interpreter pays this before trial 1; it prints the monotonic
# clock (system-wide on Linux) when the config is parsed.
_SETUP_PROBE = (
    "import json, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import pvdmimo\n"
    "from pvdmimo.harness import ExperimentConfig\n"
    "ExperimentConfig.from_dict(json.loads(sys.argv[2]))\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> list[str]:
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = []
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level, kind, size = (_read(os.path.join(base, idx, f)).strip()
                             for f in ("level", "type", "size"))
        if size:
            out.append(f"L{level} {kind} {size}")
    return out


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    libs = {ln.split()[-1] for ln in _read("/proc/self/maps").splitlines()
            if "openblas" in ln.lower() and ln.split()[-1].startswith("/")}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def manifest(args, cfg) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "git_sha": _git_sha(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ[v] for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": cfg.raw,
    }


# ---------------------------------------------------------------------------
# Rounds and their checks
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def run_round(harness, cfg, csv_path):
    """One timed run_experiment call; returns (wall s, records, CSV sha256).

    The call goes through the module so that a wrapper the tracer installed
    there is the one that runs.
    """
    t0 = time.perf_counter()
    records = harness.run_experiment(cfg, out=csv_path)
    wall = time.perf_counter() - t0
    with open(csv_path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    return wall, records, sha


def check_round(cfg, records) -> tuple[list[str], int]:
    """Problems with one round's records, and its count of error rows."""
    methods = cfg.methods
    cells = len(cfg.raw["snr_db"]) * cfg.raw["trials"]
    problems = []
    if len(records) != cells * len(methods):
        problems.append(f"{len(records)} rows, expected {cells} cells x {len(methods)} methods")
    if [r.method for r in records] != methods * (len(records) // len(methods)):
        problems.append("rows are not in (cell, method) order")
    errors = [r for r in records if r.error]
    for r in records:
        if r.error:
            continue
        needed = [r.nmse_db, r.snr_db, r.cbr]
        if r.method in ("pvd", "lmmse"):
            needed.append(r.source_mse)
        if r.method == "pvd":
            needed.append(r.residual)
        if not all(math.isfinite(v) for v in needed):
            problems.append(f"non-finite result in {r.method} row of trial {r.trial}")
            break
    q = quality(records)
    if "lmmse" in methods and "oracle_lmmse" in methods and \
            not q["oracle_nmse_db_median"] <= q["lmmse_nmse_db_median"] < 0:
        problems.append("pilot LMMSE NMSE is not between the oracle bound and 0 dB")
    return problems, len(errors)


def quality(records) -> dict:
    def med(method, field):
        vals = [getattr(r, field) for r in records if r.method == method and not r.error]
        return _median(vals)

    return {
        "pvd_nmse_db_median": med("pvd", "nmse_db"),
        "pvd_source_mse_median": med("pvd", "source_mse"),
        "lmmse_nmse_db_median": med("lmmse", "nmse_db"),
        "oracle_nmse_db_median": med("oracle_lmmse", "nmse_db"),
    }


def setup_probe(cfg_user: dict) -> float:
    """Seconds from spawning a fresh interpreter to a parsed config."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", _SETUP_PROBE, SRC, json.dumps(cfg_user)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1]) - t0


# ---------------------------------------------------------------------------
# Untraced and traced measurement
# ---------------------------------------------------------------------------

class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, args, cfg, harness, csv_path):
        self.args, self.cfg, self.harness, self.csv_path = args, cfg, harness, csv_path
        self.cells = len(cfg.raw["snr_db"]) * cfg.raw["trials"]
        self.problems: list[str] = []
        self.rows = self.errors = 0
        self.shas: list[str] = []
        self.records = None

    def round(self):
        wall, records, sha = run_round(self.harness, self.cfg, self.csv_path)
        problems, errors = check_round(self.cfg, records)
        self.problems += [p for p in problems if p not in self.problems]
        self.rows += len(records)
        self.errors += errors
        self.shas.append(sha)
        if self.records is None:
            self.records = records
        return wall

    def warm_up(self):
        """Untimed, unchecked short call (one cell, one inner iteration per
        reverse step) so lazy imports and first-call set-up finish before
        timing starts."""
        raw = self.cfg.raw
        self.harness.run_experiment(dict(raw, trials=1, snr_db=raw["snr_db"][:1],
                                         pvd=dict(raw["pvd"], J_in=1)))

    def finish_checks(self):
        if len(set(self.shas)) != 1:
            self.problems.append(f"results CSV differs between identical rounds: {sorted(set(self.shas))}")
        if self.errors:
            self.problems.append(f"{self.errors} of {self.rows} rows are error-flagged")


def measure_untraced(run: Run, decode_clock, cfg_user: dict) -> dict:
    """Rounds until --seconds is used up, with the set-up probes spread
    evenly between them so that both see the same phases of host speed."""
    seconds = run.args.seconds
    walls: list[float] = []
    setup: list[float] = []
    setup_probe(cfg_user)  # only warms file caches
    decode_clock.install()
    try:
        t_start = time.perf_counter()
        while True:
            walls.append(run.round())
            elapsed = time.perf_counter() - t_start
            done = len(walls) >= MIN_ROUNDS and elapsed + _median(walls) > seconds
            due = SETUP_PROBES if done else int(SETUP_PROBES * elapsed / seconds)
            while len(setup) < min(due, SETUP_PROBES):
                setup.append(setup_probe(cfg_user))
            if done:
                break
    finally:
        decode_clock.uninstall()
    return {"walls": walls, "decode_ms": decode_clock.samples_ms, "setup_s": setup}


def measure_traced(run: Run, tracer) -> dict:
    seconds = run.args.seconds
    untraced: list[float] = []
    traced: list[tuple[float, int, int]] = []
    t_start = time.perf_counter()
    while True:
        if len(untraced) > len(traced):
            lo = len(tracer)
            tracer.install()
            try:
                wall = run.round()
            finally:
                tracer.uninstall()
            traced.append((wall, lo, len(tracer)))
        else:
            untraced.append(run.round())
        elapsed = time.perf_counter() - t_start
        last = traced[-1][0] if traced else untraced[-1]
        if len(traced) >= MIN_TRACED_ROUNDS and elapsed + last > seconds:
            break
    per_round = [tracer.layer_totals(lo, hi) for _, lo, hi in traced]
    calls = [{n: v["calls"] for n, v in totals.items()} for totals in per_round]
    if any(c != calls[0] for c in calls[1:]):
        run.problems.append("per-layer call counts differ between identical traced rounds")
    return {"untraced_walls": untraced, "traced_walls": [w for w, _, _ in traced],
            "per_round": per_round, "spans": len(tracer)}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run: Run, meas: dict, decoder: str) -> tuple[dict, list]:
    walls, dec, setup = meas["walls"], meas["decode_ms"], meas["setup_s"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "trials_per_s": _metric(_median([run.cells / w for w in walls]), "trials/s"),
        "decode_ms_p50": _metric(_median(dec), "ms"),
        "setup_s": _metric(_median(setup), "s"),
        "peak_rss_mb": _metric(rss_mb, "MiB"),
    }
    counts = {
        "trials_per_s": f"n={len(walls)} rounds of {run.cells} trials",
        "decode_ms_p50": f"n={len(dec)} decodes ({decoder})",
        "setup_s": f"n={len(setup)} fresh interpreters",
        "peak_rss_mb": "n=1 process",
    }
    lines = [(n, m["value"], m["unit"], counts[n]) for n, m in metrics.items()]
    if not dec:
        run.problems.append(f"no decode was timed ({decoder})")
    elif len(dec) >= P90_MIN_SAMPLES:
        lines.append(("decode_ms_p90", statistics.quantiles(dec, n=10)[8], "ms",
                      f"n={len(dec)} decodes"))
    else:
        lines.append(("decode_ms_p90", None, "ms",
                      f"not reported: n={len(dec)} < {P90_MIN_SAMPLES} decodes"))
    return metrics, lines


def quality_lines(run: Run) -> list:
    q = quality(run.records)
    pvd_rows = sum(r.method == "pvd" for r in run.records)
    lm_rows = sum(r.method == "lmmse" for r in run.records)
    lines = []
    for name, unit, rows in (("pvd_nmse_db_median", "dB", pvd_rows),
                             ("pvd_source_mse_median", "-", pvd_rows),
                             ("lmmse_nmse_db_median", "dB", lm_rows)):
        val = q[name] if rows else None
        lines.append((name, val, unit, f"n={rows} rows" if rows else "method not enabled"))
    lines.append(("failed_frac", run.errors / run.rows, "ratio",
                  f"{run.errors} error rows of {run.rows} attempted"))
    return lines


def per_layer(run: Run, meas: dict, tracer) -> tuple[dict, list]:
    rounds = meas["per_round"]
    trials = run.cells * len(rounds)
    total = {n: {k: sum(r[n][k] for r in rounds) for k in ("calls", "ms", "self_ms")}
             for n in tracer.names}
    metrics = {}
    for n in tracer.names:
        kinds = {"metrics": ("calls", "ms"),
                 "harness.run_experiment": ("ms", "self_ms")}.get(n, ("calls", "ms", "self_ms"))
        for k in kinds:
            metrics[f"{n}.{k}"] = _metric(total[n][k] / trials, "count" if k == "calls" else "ms")
    metrics["pvd.run.failed"] = _metric(
        tracer.failed[tracer.names.index("pvd.run")] / trials, "count")
    overhead = (_median(meas["traced_walls"]) - _median(meas["untraced_walls"])) / run.cells
    metrics["trace.overhead_ms"] = _metric(overhead * 1e3, "ms")
    wall_ms = _median(meas["untraced_walls"]) / run.cells * 1e3
    lines = [(n, m["value"], m["unit"], "per trial") for n, m in metrics.items()]
    lines.append(("trace.overhead_share", overhead * 1e3 / wall_ms, "ratio",
                  f"traced {len(rounds)} vs untraced {len(meas['untraced_walls'])} rounds"))
    lines.append(("trace.spans", meas["spans"] / trials, "count", "per trial"))
    return metrics, lines


def _print_lines(workload: str, lines) -> None:
    for name, value, unit, note in lines:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload:<10} {name:<45} {shown:>12} {unit:<9} {note}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", metavar="DIR",
                    help="also write the full run record as JSON into DIR (read by compare.py); "
                         "a traced run writes its spans next to it (.npz)")
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Run every workload, each in its own process."""
    worst = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.save:
            cmd += ["--save", args.save]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "pvdmimo", "__init__.py")):
        print(f"perfbench: no pvdmimo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pvdmimo
    from pvdmimo import harness
    from spans import DecodeClock, Tracer

    if not os.path.abspath(pvdmimo.__file__).startswith(SRC + os.sep):
        print(f"perfbench: pvdmimo imported from {pvdmimo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    started = time.time()
    cfg_user = workloads.config(args.workload, args.seed, ROOT)
    cfg = harness.ExperimentConfig.from_dict(cfg_user)
    man = manifest(args, cfg)
    print("manifest " + json.dumps(man, sort_keys=True), flush=True)

    tracer = None
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = Run(args, cfg, harness, os.path.join(tmp, "results.csv"))
        if args.trace == 0:
            if "pvd" in cfg.methods:
                decoder, clock = "pvd.run", DecodeClock("pvdmimo.pvd:run", "pvdmimo.pvd:run")
            else:
                decoder = "baselines.lmmse_channel..two_stage_decode"
                clock = DecodeClock("pvdmimo.baselines:lmmse_channel",
                                    "pvdmimo.baselines:two_stage_decode")
            run.warm_up()
            meas = measure_untraced(run, clock, cfg_user)
            metrics, lines = end_to_end(run, meas, decoder)
            lines += quality_lines(run)
            detail = {"round_walls_s": meas["walls"], "setup_s": meas["setup_s"],
                      "decode_samples": len(meas["decode_ms"])}
        else:
            tracer = Tracer()
            run.warm_up()
            meas = measure_traced(run, tracer)
            metrics, lines = per_layer(run, meas, tracer)
            lines += quality_lines(run)
            detail = {k: meas[k] for k in ("untraced_walls", "traced_walls", "spans")}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.finish_checks()

    _print_lines(args.workload, lines)
    print(f"{args.workload:<10} results_csv_sha256 {run.shas[0]} ({len(run.shas)} rounds)")
    for p in run.problems:
        print(f"{args.workload:<10} CHECK FAILED: {p}")
    result = {"correct": not run.problems, "attempted": run.rows, "failed": run.errors,
              "metrics": metrics}
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "started_unix": started, "manifest": man, "result": result,
                  "report": {n: {"value": v, "unit": u, "note": note} for n, v, u, note in lines},
                  "results_csv_sha256": run.shas[0], "problems": run.problems, "detail": detail}
        stem = os.path.join(args.save, f"{args.workload}-s{args.seed}-t{args.trace}-"
                                       f"{int(started * 1e3)}-{os.getpid()}")
        if tracer is not None:
            tracer.save(stem + "-spans.npz")
            record["spans_file"] = os.path.basename(stem) + "-spans.npz"
        with open(stem + ".json", "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
