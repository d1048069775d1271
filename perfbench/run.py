"""The benchmark: run one CLI workload in fresh interpreters, check and time it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One run generates the workload's inputs from ``--seed``, checks that
``mobility_esda.cli`` imports, makes one untimed warm-up run on a 3x3
grid, then runs the workload's command through ``mobility_esda.cli.main``
in a fresh process per sample until ``--seconds`` are spent (at least
three samples). Each sample times its import of ``mobility_esda.cli``
apart from the call, so ``setup_s`` is the median import time over the
same samples as ``wall_s``, spread over the whole run; ``wall_rel`` is
the median of each sample's ``wall_s`` over the calibration its worker
timed just before the import (``worker.calibrate``). Every sample's
outputs are checked against independent oracles and must hash the same
as the first sample's. With ``--trace 1`` the samples alternate between
untraced and traced, and the per-layer figures come from the traced ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name and unit, with sample counts and percentiles. ``--all`` runs
every workload with and without tracing and rewrites ``BENCHMARK.json``
from ``spec.py``.

The program is imported from ``src/`` next to this directory, so the
benchmark measures the checkout it sits in; without it the run exits 2
before printing a result. Scratch files go to ``.perfbench-work/`` in the
checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from itertools import count, cycle, repeat
from pathlib import Path

import numpy as np

import check
import gen
import spans
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MIN_SAMPLES = 3
WARMUP_GRID = 3
DEADLINE_S = 170  # every run ends within 180 s
BLAS_THREADS = "1"  # one BLAS thread: the machine is shared, and the CLI is single-threaded


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of the checkout when it is a git work tree of its own, else ``unknown``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


class Sampler:
    """Runs worker processes under one deadline and reads back their results."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.ids = count()

    def run(self, argv: list[str] | None, trace: bool = False) -> dict:
        sample_id = next(self.ids)
        result_path = self.work / f"sample-{sample_id}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(result_path)]
        cmd += ["--trace", str(sample_id)] if trace else []
        cmd += ["--", *argv] if argv is not None else []
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(self.deadline - start, 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"error": "timed out", "elapsed_s": time.monotonic() - start}
        elapsed = time.monotonic() - start
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
        result_path.unlink(missing_ok=True)
        result["elapsed_s"] = elapsed
        result["stderr"] = proc.stderr[-2000:]
        if "module" in result and not Path(result["module"]).resolve().is_relative_to(SRC):
            result["error"] = f"imported {result['module']}, not the program under {SRC}"
        return result


def failures(result: dict, workload: spec.Workload, ref: check.Reference, out_dir: Path) -> list[str]:
    if "error" in result:
        return [result["error"]]
    if result["exit_code"] != 0:
        return [f"exit code {result['exit_code']}: {result['stderr'].strip()}"]
    if workload.command == "moran":
        return check.check_moran(out_dir, ref, workload.categories, workload.permutations)
    return check.check_indicator(out_dir, ref, workload.deseasonalize)


def high_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p50..p99.9 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (100.0 - q) / 100.0 >= 10:
            return f"p{q:g}", float(np.percentile(values, q))
    return None


def layer_metrics(result: dict, workload: spec.Workload, input_rows: int) -> dict[str, float]:
    """Per-layer figures of one traced sample."""
    trace = [spans.Span(result["span_names"][s[0]], *s[1:]) for s in result["spans"]]
    per_name = spans.summarize(trace)
    wall = result["wall_s"]

    def get(name: str, key: str) -> float:
        return per_name.get(name, {}).get(key, 0)

    out = {}
    for module in spec.MODULES:
        own = sum(v["self_s"] for k, v in per_name.items() if k.startswith(module + "."))
        out[f"{module}.self_s"] = own
        out[f"{module}.share"] = own / wall
    for name in spec.SELF_TIMED:
        out[f"{name}.self_s"] = get(name, "self_s")
    out["ingest.rows"] = get("ingest.parse_cmr_csv", "calls") * input_rows
    out["timeseries.stl_decompose.calls"] = get("timeseries.stl_decompose", "calls")
    out["weights.queen_adjacency.candidate_pairs"] = (
        get("weights.queen_adjacency", "calls") * workload.regions * (workload.regions - 1) // 2
    )
    out["moran.lisa_permutation.draws"] = (
        get("moran.lisa_permutation", "calls") * workload.permutations * workload.queen_degree_sum()
    )
    for name in spans.COUNTERS:
        out[f"{name}.bytes"] = result["counts"].get(name, 0)
    out["cli.atomic_write.files"] = get("cli.atomic_write", "calls")
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(v["self_s"] for v in per_name.values())
    return out


def measure(workload: spec.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and the report lines."""
    if not (SRC / "mobility_esda" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        (work / "input").mkdir(parents=True)
        (work / "warmup").mkdir()
        return _measure(workload, seed, seconds, trace, Sampler(work, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(workload: spec.Workload, seed: int, seconds: float, trace: bool, sampler: Sampler) -> dict:
    work = sampler.work
    csv_path, geo_path = gen.write_inputs(work / "input", workload.rows, workload.cols, spec.DAYS, seed)
    ref = check.reference(csv_path, workload.rows, workload.cols)
    input_rows = (workload.regions + 1) * spec.DAYS  # sub-regions plus the national row

    probe = sampler.run(None)
    if "error" in probe:
        raise BenchError(f"cannot import the program: {probe['error']}")

    attempted = failed = 0
    problems: list[str] = []

    def attempt(wl, ref_, csv_, geo_, traced):
        nonlocal attempted, failed
        out_dir = work / f"out-{attempted}"
        result = sampler.run(wl.argv(csv_, geo_, str(out_dir)), traced)
        found = failures(result, wl, ref_, out_dir)
        if not found:
            result["digest"], result["output_bytes"] = check.digest(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        attempted += 1
        if found:
            failed += 1
            problems.extend(f"{wl.name} sample {attempted}: {f}" for f in found)
        return result, not found

    tiny = dataclasses.replace(workload, rows=WARMUP_GRID, cols=WARMUP_GRID)
    tiny_csv, tiny_geo = gen.write_inputs(work / "warmup", tiny.rows, tiny.cols, spec.DAYS, seed)
    attempt(tiny, check.reference(tiny_csv, tiny.rows, tiny.cols), tiny_csv, tiny_geo, False)

    plain, traced, durations = [], [], []
    first_digest = None
    modes = cycle([False, True]) if trace else repeat(False)
    minimum = 2 if trace else MIN_SAMPLES
    start = time.monotonic()
    while True:
        with_trace = next(modes)
        result, ok = attempt(workload, ref, csv_path, geo_path, with_trace)
        durations.append(result["elapsed_s"])
        if ok:
            first_digest = first_digest or result["digest"]
            if result["digest"] != first_digest:
                failed += 1
                problems.append(f"{workload.name} sample {attempted}: out-dir digest differs from the first sample")
            else:
                (traced if with_trace else plain).append(result)
        now, typical = time.monotonic(), statistics.median(durations)
        if now + typical > sampler.deadline:
            break
        if len(durations) >= minimum and now - start + typical > seconds:
            break

    metrics, lines = {}, []
    walls = [r["wall_s"] for r in plain]
    raw = {
        "wall_s": statistics.median(walls),
        "region_days_per_s": workload.regions * spec.DAYS / statistics.median(walls),
        "calib_s": statistics.median(r["calib_s"] for r in plain),
    } if plain else {}
    if plain and not trace:
        rel = [r["wall_s"] / r["calib_s"] for r in plain]
        setup = [r["import_s"] for r in plain]
        metrics = {
            "wall_rel": statistics.median(rel),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "output_bytes": plain[0]["output_bytes"],
        }
        for name, values in (("wall_rel", rel), ("wall_s", walls), ("setup_s", setup)):
            unit = spec.UNITS[name]
            high = high_percentile(values)
            tail = f"{high[0]} {high[1]:.6g} {unit}" if high else "no percentile has 10 samples beyond it"
            lines.append(f"  {name}: median {statistics.median(values):.6g} {unit}, {tail}; {len(values)} samples")
        lines.extend(f"  {name} = {value:.6g} {spec.UNITS[name]}" for name, value in raw.items())
        lines.append("  wall_s samples in run order: " + " ".join(f"{w:.4f}" for w in walls))
    elif plain and traced:
        per_sample = [layer_metrics(r, workload, input_rows) for r in traced]
        metrics = {name: statistics.median(s[name] for s in per_sample) for name in per_sample[0]}
        metrics.update(raw)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - raw["wall_s"]
        shares = sum(metrics[f"{m}.share"] for m in spec.MODULES)
        lines.append(f"  traced samples: {len(traced)}, untraced samples: {len(plain)}")
        lines.append(
            f"  module shares sum to {shares:.6f} of the traced wall; tracing costs "
            f"{metrics['trace.overhead_s']:.4g} s of {metrics['trace.wall_s']:.4g} s"
        )
    lines.append(f"  error_rate: {failed / attempted:.6g} ({failed} of {attempted} runs failed)")
    lines.extend(f"  problem: {p}" for p in problems[:20])
    return {
        "result": {
            "correct": failed == 0 and bool(metrics),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": spec.UNITS[name]} for name, value in metrics.items()},
        },
        "lines": lines,
    }


def report(workload: spec.Workload, seed: int, trace: bool, run: dict) -> None:
    print(f"{workload.name} seed {seed} trace {int(trace)}: {workload.regions} regions x {spec.DAYS} days")
    for line in run["lines"]:
        print(line)
    for metric, entry in sorted(run["result"]["metrics"].items()):
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    try:
        if not args.all:
            workload = spec.WORKLOADS[args.workload]
            run = measure(workload, args.seed, args.seconds, bool(args.trace))
            print("environment", json.dumps(environment()))
            report(workload, args.seed, bool(args.trace), run)
            print(json.dumps(run["result"]))
            return 0 if run["result"]["correct"] else 1

        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        print("environment", json.dumps(environment()))
        for name, workload in spec.WORKLOADS.items():
            for trace in (False, True):
                run = measure(workload, args.seed, args.seconds, trace)
                report(workload, args.seed, trace, run)
                result = run["result"]
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for metric, entry in result["metrics"].items():
                    combined["metrics"][f"{name}.{metric}"] = entry
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        print(json.dumps(combined))
        return 0 if combined["correct"] else 1
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
