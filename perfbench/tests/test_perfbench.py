"""Tests of the benchmark itself: generator, tracer, output checks, manifest.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
from spans import Span  # noqa: E402

import mobility_esda.cli as cli  # noqa: E402


@pytest.fixture
def tiny(tmp_path):
    """Inputs, reference and a moran workload on a 3x3 grid."""
    csv_path, geo_path = gen.write_inputs(tmp_path, 3, 3, spec.DAYS, seed=5)
    workload = dataclasses.replace(
        spec.WORKLOADS["moran-paper"], rows=3, cols=3, permutations=19
    )
    return workload, csv_path, geo_path, check.reference(csv_path, 3, 3)


# ------------------------------------------------------------- generator

def test_generator_is_deterministic_per_seed():
    assert gen.mobility_csv(3, 4, spec.DAYS, seed=9) == gen.mobility_csv(3, 4, spec.DAYS, seed=9)
    assert gen.mobility_csv(3, 4, spec.DAYS, seed=9) != gen.mobility_csv(3, 4, spec.DAYS, seed=10)
    assert gen.grid_geojson(3, 4) == gen.grid_geojson(3, 4)


def test_generator_layout():
    lines = gen.mobility_csv(10, 10, spec.DAYS, seed=3).splitlines()
    assert lines[0] == ",".join(gen.HEADER)
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == (100 + 1) * spec.DAYS  # sub-regions plus the national row
    assert rows[0][8] == "2020-02-15" and rows[-1][8] == "2020-05-16"
    cells = [c for row in rows for c in row[9:]]
    assert 0.005 < cells.count("") / len(cells) < 0.02
    assert min(float(c) for c in cells if c) >= -100
    assert len(gen.grid_geojson(10, 10)["features"]) == 100


def test_generated_field_is_spatially_autocorrelated(tmp_path):
    csv_path, _ = gen.write_inputs(tmp_path, 5, 5, spec.DAYS, seed=1)
    ref = check.reference(csv_path, 5, 5)
    for cat in spec.CATEGORIES:
        assert check.moran_oracle(ref.window_mean[cat], ref.neighbors) > 0.3


# ---------------------------------------------------------------- tracer

def test_self_time_subtracts_nested_children():
    trace = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 7.0, 0, 0),
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    summary = spans.summarize(trace + [Span("b", 8.0, 9.0, 0, 0)])
    assert summary["b"] == pytest.approx({"self_s": 3.0, "calls": 2})
    assert summary["root"]["self_s"] == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once():
    trace = [Span("p", 0.0, 10.0, -1, 0), Span("c", 1.0, 4.0, 0, 0), Span("d", 3.0, 12.0, 0, 0)]
    assert spans.self_times(trace)[0] == pytest.approx(1.0)


def _function_references():
    refs = {}
    for short, mod in spans.package_modules().items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj):
                refs[(short, attr)] = obj
    refs.update({("cli.COMMANDS", k): v for k, v in cli.COMMANDS.items()})
    return refs


def test_traced_run_records_spans_and_restores_every_function(tiny, tmp_path):
    workload, csv_path, geo_path, _ = tiny
    before = _function_references()
    tracer = spans.Tracer()
    assert tracer.install() > 0
    assert cli.COMMANDS["moran"].__traced__ is before[("cli.COMMANDS", "moran")]
    assert cli.circulation_indicator.__traced__ is before[("indicator", "circulation_indicator")]
    try:
        assert cli.main(workload.argv(csv_path, geo_path, str(tmp_path / "out"))) == 0
    finally:
        tracer.uninstall()
    assert _function_references() == before
    trace = tracer.finished_spans()
    roots = [s for s in trace if s.parent == -1]
    assert [s.name for s in roots] == ["cli.main"]
    names = {s.name for s in trace}
    assert {"cli.cmd_moran", "moran.lisa_permutation", "weights.queen_adjacency"} <= names
    total = sum(spans.self_times(trace))
    assert total == pytest.approx(roots[0].end - roots[0].start)
    assert tracer.counts["cli.atomic_write"] > 0


# ---------------------------------------------------------------- checks

def test_moran_check_passes_and_catches_a_perturbed_index(tiny, tmp_path):
    workload, csv_path, geo_path, ref = tiny
    out = tmp_path / "out"
    assert cli.main(workload.argv(csv_path, geo_path, str(out))) == 0
    assert check.check_moran(out, ref, spec.CATEGORIES, workload.permutations) == []

    doc_path = out / "parks" / "global.json"
    doc = json.loads(doc_path.read_text())
    doc["I"] += 1e-6
    doc_path.write_text(json.dumps(doc))
    assert any("parks: I" in f for f in check.check_moran(out, ref, spec.CATEGORIES, 19))

    del doc["pseudo_p"]
    doc_path.write_text(json.dumps(doc))
    assert any("malformed" in f for f in check.check_moran(out, ref, ["parks"], 19))

    lisa = out / "residential" / "lisa.csv"
    lisa.write_text("\n".join(lisa.read_text().splitlines()[:-1]) + "\n")
    found = check.check_moran(out, ref, ["residential"], 19)
    assert any("rows" in f for f in found)


def test_moran_check_rejects_p_below_the_floor(tiny, tmp_path):
    workload, csv_path, geo_path, ref = tiny
    out = tmp_path / "out"
    assert cli.main(workload.argv(csv_path, geo_path, str(out))) == 0
    doc_path = out / "workplaces" / "global.json"
    doc = json.loads(doc_path.read_text())
    doc["pseudo_p"] = 1 / (workload.permutations + 2)
    doc_path.write_text(json.dumps(doc))
    assert any("pseudo-p" in f for f in check.check_moran(out, ref, ["workplaces"], 19))


def test_indicator_check_passes_and_catches_corruption(tmp_path):
    csv_path, geo_path = gen.write_inputs(tmp_path, 3, 3, spec.DAYS, seed=2)
    ref = check.reference(csv_path, 3, 3)
    workload = dataclasses.replace(spec.WORKLOADS["indicator-paper"], rows=3, cols=3)
    out = tmp_path / "out"
    assert cli.main(workload.argv(csv_path, geo_path, str(out))) == 0
    assert check.check_indicator(out, ref, deseasonalized=True) == []

    path = out / "circulation.csv"
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[3] = repr(float(fields[3]) + 1e-7)
    path.write_text("\n".join(lines[:5] + [",".join(fields)] + lines[6:]) + "\n")
    assert any("closed form" in f for f in check.check_indicator(out, ref, True))

    fields[3], fields[4] = lines[5].split(",")[3], "nan"
    path.write_text("\n".join(lines[:5] + [",".join(fields)] + lines[6:]) + "\n")
    assert any("non-finite" in f for f in check.check_indicator(out, ref, True))


def test_digest_sees_any_byte(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.txt").write_text("1")
    first = check.digest(tmp_path)
    assert first == (check.digest(tmp_path)[0], 1)
    (tmp_path / "a" / "x.txt").write_text("2")
    assert check.digest(tmp_path)[0] != first[0]


# ------------------------------------------------------------- the runner

def test_measure_checks_every_sample(tiny):
    workload = dataclasses.replace(tiny[0], permutations=9)
    untraced = run.measure(workload, seed=3, seconds=0.1, trace=False)["result"]
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] == 1 + run.MIN_SAMPLES  # warm-up plus the minimum
    assert set(untraced["metrics"]) == {name for name, *_ in spec.END_TO_END}

    traced = run.measure(workload, seed=3, seconds=0.1, trace=True)["result"]
    assert traced["correct"]
    assert set(traced["metrics"]) == {name for name, *_ in spec.PER_LAYER}
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert metrics["moran.lisa_permutation.draws"] == 6 * 9 * workload.queen_degree_sum()
    assert metrics["cli.atomic_write.files"] == 3 + 7 * 6  # weights, manifest, 7 per category
    shares = sum(metrics[f"{m}.share"] for m in spec.MODULES)
    assert shares + metrics["trace.unattributed_s"] / metrics["trace.wall_s"] == pytest.approx(1.0)
    assert not run.WORK.exists()


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moran-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -------------------------------------------------------------- manifest

def test_benchmark_json_is_generated_from_spec():
    # regenerate with: cd perfbench && python3 -c "import json, spec;
    #   print(json.dumps(spec.manifest(), indent=2))" > ../BENCHMARK.json
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.manifest()


def test_manifest_meets_the_contract():
    m = spec.manifest()
    assert list(m) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert 1 <= m["run_seconds"] <= 60 and 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16 and 1 <= len(m["per_layer"]) <= 128
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in m[key]]
    assert len(names) == len(set(names)) and all(name.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"])
    for entry in m["end_to_end"] + m["per_layer"]:
        assert unit.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(0 < e["bound"] <= 0.25 for e in m["end_to_end"])
    setup = next(e for e in m["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in m["end_to_end"])
    assert len(json.dumps(m)) <= 64 * 1024
