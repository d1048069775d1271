import contextlib
import csv
import datetime as dt
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from xml.etree import ElementTree
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mobility_esda import cli, render
from mobility_esda.cli import atomic_write, main
from mobility_esda.errors import DataError
from mobility_esda.indicator import RadarConfig, circulation_indicator
from mobility_esda.ingest import impute_missing, parse_cmr_csv
from mobility_esda.timeseries import stl_decompose

from conftest import grid_geojson, synthetic_country_csv


def hash_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def sy(tmp_path):
    csv_path = tmp_path / "sy.csv"
    csv_path.write_text(synthetic_country_csv(4, 4, 21))
    geo_path = tmp_path / "sy.geojson"
    geo_path.write_text(json.dumps(grid_geojson(4, 4), indent=1))
    return csv_path, geo_path


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_follows_umask(umask, mode, tmp_path):
    old = os.umask(umask)
    try:
        atomic_write(tmp_path / "out.txt", b"x")
    finally:
        os.umask(old)
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == mode


@pytest.mark.parametrize("name, data, error", [("out", b"x", IsADirectoryError)])
def test_atomic_write_leaves_no_temp_file_on_error(name, data, error, tmp_path):
    # renaming onto a directory fails late
    (tmp_path / "out").mkdir()
    with pytest.raises(error):
        atomic_write(tmp_path / name, data)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("source", ["argv title", "config title", "geometry id"])
def test_text_that_is_not_utf8_writes_nothing(source, sy, tmp_path, monkeypatch, capsys):
    """A lone surrogate, from an argv byte that is not UTF-8 or a JSON escape,
    has no UTF-8 form: one schema error naming the file, exit 2, no out dir."""
    _, geo_path = sy
    (tmp_path / "vals.csv").write_text("region_id,value\ncell0_0,1\n")
    render = ["render", "--geometry", str(geo_path), "--values", str(tmp_path / "vals.csv")]
    if source == "argv title":
        argv, name = [*render, "--title", os.fsdecode(b"caf\xe9")], "choropleth.svg"
    elif source == "config title":
        (tmp_path / "run.json").write_text('{"title": "\\udce9"}')
        argv, name = ["--config", str(tmp_path / "run.json"), *render], "choropleth.svg"
    else:
        doc = grid_geojson(2, 2)
        doc["features"][0]["properties"]["region_id"] = "\udce9"
        (tmp_path / "odd.geojson").write_text(json.dumps(doc))  # the id as the escape \udce9
        argv, name = ["weights", "--geometry", str(tmp_path / "odd.geojson")], "weights.txt"
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["mobility-esda", *argv, "--out-dir", str(out)])
    assert main() == 2
    assert capsys.readouterr().err == f"schema error: {name}: '\\udce9' is not UTF-8 text\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["config title", "sub-region"])
def test_characters_xml_forbids_are_written_as_escapes(source, sy, tmp_path):
    """A control character in SVG text, a render title from a JSON config or a
    sub-region named in the overlay's legend, is written as its \\uhhhh text:
    every SVG of the out dir parses."""
    csv_path, geo_path = sy
    if source == "config title":
        (tmp_path / "vals.csv").write_text("region_id,value\ncell0_0,1\ncell1_1,2\n")
        (tmp_path / "run.json").write_text('{"title": "a\\u0001b"}')
        argv = ["--config", str(tmp_path / "run.json"), "render", "--geometry", str(geo_path),
                "--values", str(tmp_path / "vals.csv")]
        name, text = "choropleth.svg", "a\\u0001b"
    else:
        # two sub-regions, fewer than the overlay has colours, so each is named in its legend
        lines = csv_path.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        kept = sorted({r[1] for r in rows})[:2]
        renamed = {kept[0]: "a\x01b", kept[1]: kept[1]}
        (tmp_path / "two.csv").write_text("\n".join(
            [lines[0], *(",".join([r[0], renamed[r[1]], *r[2:]]) for r in rows if r[1] in renamed)]) + "\n")
        argv = ["indicator", "--input", str(tmp_path / "two.csv"), "--country", "SY", "--subnational",
                "--from", "2020-03-01", "--to", "2020-03-21"]
        name, text = "indicator-overlay.svg", "SY/a\\u0001b"
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 0
    for svg in out.glob("*.svg"):
        ElementTree.parse(svg)
    assert text in {t.text for t in ElementTree.parse(out / name).iter("{http://www.w3.org/2000/svg}text")}


RUNS_WITHOUT_NUMPY_MA = {
    # 9 series, more than the overlay has colours: the median-and-band path runs;
    # --robust takes the median absolute residual of each series
    "indicator": (3, ["indicator", "--input", "sy.csv", "--country", "SY", "--subnational",
                      "--deseasonalize", "--robust", "--from", "2020-03-01", "--to", "2020-03-21"]),
    # 400 regions: np.isin would take its sort path, which calls np.unique
    "moran": (20, ["moran", "--input", "sy.csv", "--geometry", "sy.geojson", "--country", "SY",
                   "--from", "2020-03-01", "--to", "2020-03-21", "--permutations", "9",
                   "--categories", "residential"]),
    "weights": (20, ["weights", "--geometry", "sy.geojson", "--row-standardize"]),
    "render": (20, ["render", "--geometry", "sy.geojson", "--values", "vals.csv"]),
    "ingest": (20, ["ingest", "--input", "sy.csv", "--country", "SY"]),
}


@pytest.mark.parametrize("command", RUNS_WITHOUT_NUMPY_MA)
def test_run_does_not_import_numpy_ma(command, tmp_path):
    """No stage needs numpy.ma, whose import is a large share of a short run.
    Each run gets its own interpreter, as pytest or hypothesis may have
    imported numpy.ma into this one."""
    size, argv = RUNS_WITHOUT_NUMPY_MA[command]
    (tmp_path / "sy.csv").write_text(synthetic_country_csv(size, size, 21))
    (tmp_path / "sy.geojson").write_text(json.dumps(grid_geojson(size, size)))
    (tmp_path / "vals.csv").write_text("region_id,value\ncell0_0,1.5\ncell1_1,-3\n")
    code = (
        "import sys; from mobility_esda.cli import main; assert main(sys.argv[1:]) == 0; "
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code, *argv, "--out-dir", "out"],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_outputs_are_utf8_whatever_the_locale(tmp_path):
    """An accented sub-region is written in UTF-8 under the C locale too, the
    same bytes as in UTF-8 mode, file names included, and is found by name;
    an accented title is drawn as given."""
    header = synthetic_country_csv(1, 1, 1).splitlines()[0]
    rows = [f"BR,São Paulo,2020-03-0{d},1,2,3,4,5,6" for d in (1, 2, 3)]
    (tmp_path / "br.csv").write_bytes(("\n".join([header, *rows]) + "\n").encode("utf-8"))
    (tmp_path / "map.geojson").write_text(json.dumps(grid_geojson(1, 1)))
    (tmp_path / "vals.csv").write_text("region_id,value\ncell0_0,1\n")
    indicator = ["indicator", "--input", "br.csv", "--from", "2020-03-01", "--to", "2020-03-03"]
    runs = {"ingest": ["ingest", "--input", "br.csv"],
            "subnational": [*indicator, "--country", "BR", "--subnational"],
            "region": [*indicator, "--region", "BR/São Paulo"],
            "render": ["render", "--geometry", "map.geojson", "--values", "vals.csv", "--title", "São Paulo"]}
    modes = {"c": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}, "utf8": {"PYTHONUTF8": "1"}}
    for name, mode in modes.items():
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **mode}
        for run_name, argv in runs.items():
            run = subprocess.run([sys.executable, "-m", "mobility_esda.cli", *argv, "--out-dir", f"{name}/{run_name}"],
                                 cwd=tmp_path, env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
    assert hash_tree(tmp_path / "c") == hash_tree(tmp_path / "utf8")
    assert "São Paulo".encode() in (tmp_path / "c" / "ingest" / "mobility-normalized.csv").read_bytes()
    for run_name in ("subnational", "region"):
        assert "radar-BR_São Paulo.svg".encode() in os.listdir(os.fsencode(tmp_path / "c" / run_name))


# the pinned 3x3 seed-1 commands, on the inputs of perfbench/gen.py, a LISA run on a tied copy of
# them, a moran run whose seed is four 32-bit words, the benchmark's moran-municipal run on the 20x20
# seed-1 inputs, and the pinned weights runs on the 3x3 grid and on a 20x20 one
PINNED_RUNS = {
    "moran": ["moran", "--input", "mobility.csv", "--geometry", "regions.geojson", "--country", "SY",
              "--permutations", "99", "--seed", "1"],
    "indicator": ["indicator", "--input", "mobility.csv", "--country", "SY", "--subnational", "--deseasonalize"],
    "robust": ["indicator", "--input", "mobility.csv", "--country", "SY", "--subnational", "--deseasonalize",
               "--robust", "--trend-only"],
    "robust-seasonal": ["indicator", "--input", "mobility.csv", "--country", "SY", "--subnational",
                        "--deseasonalize", "--robust"],
    "render": ["render", "--geometry", "regions.geojson", "--values", "values.csv", "--title", "a <b> & c"],
    "tied": ["moran", "--input", "tied/mobility.csv", "--geometry", "tied/regions.geojson", "--country", "SY",
             "--permutations", "99", "--seed", "1", "--categories", "residential"],
    # 2**100 + 7: with the region index, a LISA stream's entropy runs past SeedSequence's pool of 4 words
    "seed-words": ["moran", "--input", "mobility.csv", "--geometry", "regions.geojson", "--country", "SY",
                   "--permutations", "99", "--categories", "residential", "--seed", str(2**100 + 7)],
    "municipal": ["moran", "--input", "municipal/mobility.csv", "--geometry", "municipal/regions.geojson",
                  "--country", "SY", "--contiguity", "queen", "--permutations", "99", "--seed", "42",
                  "--categories", "residential"],
    "weights": ["weights", "--geometry", "regions.geojson", "--row-standardize"],
    "weights20": ["weights", "--geometry", "grid20.geojson"],
    "ingest": ["ingest", "--input", "mobility.csv", "--country", "SY"],
}

# the sha256 of the pinned files, as the default run writes them; the only copy of each pin
PINNED_DIGESTS = {
    "moran/residential/lisa.csv": "a464a1db3d70a421bc6073b642c8432ecaf27c4d85926660274fbcf5b988b9c8",
    "moran/residential/global.json": "d1c9f13363a761d006faaeaacb5dd7271ec95d50b5d571fd6d7617fc74f03a7d",
    "moran/residential/mean-variation.svg": "0662ed292a26de584da1a76d0b1ece979033c1ec51b811059bb197066832b25d",
    "moran/residential/scatter.svg": "e12f91158bfa52cb0560ead2f8c2a9347d503e7823161117cd87d624b1b1f021",
    "moran/residential/lisa-clusters.svg": "ff70dadcd3fa8a469a7f19088dff7275df78707734a67ec10020709f4c0468ac",
    "moran/residential/lisa-significance.svg": "214a8d881aea0454d9b3dd86f237e0559834d824f597e36d7e8db0c28ce59e5e",
    "moran/residential/mean-variation.geojson": "09d5c1ee6523c7f512d43acf9c5140fdd7cc5daa6c208e72fc1b72a6708f2e20",
    "moran/weights.json": "5490e6a9a53a55d10442fec124369299e5dfa81933221bc091ae87443e177989",
    "moran/weights.txt": "6735dfada04fb6fbf6be2159902d6f8c7c410d7c323fb841077793169a139683",
    "indicator/circulation.csv": "ad6ad25ebb40333bfbe0beb01d3335dcce05eafb1df3542963396cd2e3dae04e",
    "indicator/radar-SY_cell1_1.svg": "8484ccbed0c54c3120b78ff3c1ba869bc89f7747c1783e962ff48c8691d101a3",
    "indicator/indicator-overlay.svg": "5a8680d1483912a9e07f524cc6ae81e26ead49f23554114a8cce7585007aa869",
    "robust/circulation.csv": "9616aa4af4143ccebcfe3a221ffd171e4acbe53bb05fa50ef4d1ea795029fa6d",
    "robust-seasonal/circulation.csv": "3e3986edbfb82d2e20475cff84dbc5dcbcf919c8639b9e9d87b24f599f227da4",
    "render/choropleth.svg": "6bef428212395e47ae6f7be1a00d2c0f1744d7adca4920428b973705b15be0b9",
    # cell2_1's p is 1
    "tied/residential/lisa.csv": "29cd2bcad1fa635d9793481428dee20536e9d9a32cf3baa5d349df8d47aea1e3",
    "seed-words/residential/lisa.csv": "87d947c6b855d7e07078e4e55645e5ea9a71e52b725ea1f4ab276706ec7437d4",
    "seed-words/residential/global.json": "4207cc15fcf47adca0b35c9f005aa3182381682b13d6abae4ab1f42d76e51c5b",
    # 400 regions: a LISA block holds many regions of one degree
    "municipal/residential/lisa.csv": "c9c71513e31920df6e6a16613db6f953ce3699738ecd7ff1e4e8a05b44ee7bf4",
    "municipal/residential/global.json": "dccff31e49babd594f0ec4a35a56c3c1b39add3524837ce9b71774e617dc67db",
    "weights/weights.json": "5490e6a9a53a55d10442fec124369299e5dfa81933221bc091ae87443e177989",
    "weights/weights.txt": "6735dfada04fb6fbf6be2159902d6f8c7c410d7c323fb841077793169a139683",
    "weights20/weights.json": "7742b29a0237c177d5e169fdf8a7cfc68b30719adb3b946d1523a90cfa8a52e0",
    "weights20/weights.txt": "fdf746ab8a628b0de148c6297794583ae282d7ca52c06dd5173f5fb85c4ac5be",
    # 6 to 11 cells imputed in each category
    "ingest/imputation-report.json": "2460b9fd7fd3e0ecc0ed044bc108db2aceec7aecafd0a070b72b36cf1c3373f7",
}


def write_tied_inputs(gen, directory: Path) -> None:
    """The 3x3 seed-1 inputs with every day and category of the regions, in
    row-major order, set to 0, 2, 1, 2, 1, 0, 2, 0, 0: cell2_1's I_i then
    equals its reference -z_i**2 / 8 but for rounding, whose sign can
    hang on the BLAS kernel."""
    directory.mkdir()
    gen.write_inputs(directory, 3, 3, 92, seed=1)
    values = dict(zip([gen.region_name(*divmod(i, 3)) for i in range(9)], "021210200"))
    rows = [line.split(",") for line in (directory / "mobility.csv").read_text().splitlines()]
    (directory / "mobility.csv").write_text(
        "".join(",".join(r[:9] + [values[r[2]]] * 6 if r[2] in values else r) + "\n" for r in rows)
    )


# numpy's AVX-512 paths off, as on a CPU without them
AVX512_OFF = {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}


def kernel_environments() -> dict[str, dict[str, str]]:
    """Environments in which numpy runs other BLAS kernels or SIMD paths than
    this CPU's defaults; each kernel is one this CPU can run."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return {}
    try:
        with open("/proc/cpuinfo") as fh:
            flags = {f for line in fh if line.startswith("flags") for f in line.split(":", 1)[1].split()}
    except OSError:
        flags = set()
    envs = {"Prescott": {"OPENBLAS_CORETYPE": "Prescott"}}  # every x86-64 CPU runs it
    if "avx2" in flags:
        envs["Haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    if "avx512f" in flags:
        envs["SkylakeX"] = {"OPENBLAS_CORETYPE": "SkylakeX"}
    # a numpy that refuses to turn its AVX-512 paths off is not asked to
    probe = subprocess.run([sys.executable, "-W", "error", "-c", "import numpy"],
                           env={**os.environ, **AVX512_OFF}, capture_output=True)
    if probe.returncode == 0:
        envs["avx512-off"] = AVX512_OFF
    return envs


def test_pinned_outputs_do_not_depend_on_blas_kernel_or_simd(gen, tmp_path):
    """The pinned runs write the pinned bytes on every platform, and the same
    bytes whichever OpenBLAS kernel or numpy SIMD targets compute them, where
    the CPU offers a choice, so the pins do not hang on the CPU; in one run a
    region's local index ties its reference."""
    envs = kernel_environments()
    gen.write_inputs(tmp_path, 3, 3, 92, seed=1)
    write_tied_inputs(gen, tmp_path / "tied")
    (tmp_path / "municipal").mkdir()
    gen.write_inputs(tmp_path / "municipal", 20, 20, 92, seed=1)
    (tmp_path / "values.csv").write_text("region_id,value\ncell0_0,1.5\ncell1_1,\ncell2_2,-3\nghost,2\n")
    (tmp_path / "grid20.geojson").write_text(json.dumps(gen.grid_geojson(20, 20)))
    code = ("import json, sys; from mobility_esda.cli import main; "
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    for name, extra in {"default": {}, **envs}.items():
        runs = [[*argv, "--out-dir", f"{name}/{run}"] for run, argv in PINNED_RUNS.items()]
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", *AVX512_OFF)}
        env.update(PYTHONPATH=str(Path(cli.__file__).parents[1]), **extra)
        run = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                             cwd=tmp_path, env=env, capture_output=True, text=True)
        assert run.returncode == 0, (name, run.stderr)
    default = hash_tree(tmp_path / "default")
    assert len(default) > 20
    assert {name: default.get(name) for name in PINNED_DIGESTS} == PINNED_DIGESTS
    for name in envs:
        assert hash_tree(tmp_path / name) == default, name


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_crlf_input_writes_the_outputs_of_lf(quoted, gen, tmp_path, monkeypatch):
    """The pinned ingest and moran runs on the 3x3 seed-1 rows with CRLF line
    ends, every sub-region quoted (read by csv.reader) or none (split as
    bytes), write the out dirs of the LF file but for the manifest's input
    sha256."""
    gen.write_inputs(tmp_path, 3, 3, 92, seed=1)
    header, *rows = (tmp_path / "mobility.csv").read_text().splitlines()
    if quoted:
        rows = [",".join([*cells[:2], f'"{cells[2]}"', *cells[3:]]) for cells in (row.split(",") for row in rows)]
    (tmp_path / "crlf.csv").write_bytes("".join(f"{line}\r\n" for line in [header, *rows]).encode())
    monkeypatch.chdir(tmp_path)
    trees = []
    for name in ("mobility.csv", "crlf.csv"):
        for run in ("ingest", "moran"):
            argv = [name if arg == "mobility.csv" else arg for arg in PINNED_RUNS[run]]
            assert main([*argv, "--out-dir", f"{name}-out/{run}"]) == 0
        trees.append({k: v for k, v in hash_tree(tmp_path / f"{name}-out").items()
                      if not k.endswith("run-manifest.json")})
    assert len(trees[0]) == 2 + 2 + 6 * 7 and trees[1] == trees[0]


class TestIngestCmd:
    def test_valid_fixture(self, sy, tmp_path):
        csv_path, _ = sy
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(csv_path), "--out-dir", str(out)]) == 0
        assert (out / "mobility-normalized.csv").exists()
        assert (out / "imputation-report.json").exists()
        assert (out / "run-manifest.json").exists()

    def test_column_map_reads_renamed_headers(self, sy, tmp_path):
        csv_path, _ = sy
        renamed = tmp_path / "renamed.csv"
        header, rest = csv_path.read_text().split("\n", 1)
        header = header.replace("sub_region_1", "state").replace("parks_percent_change_from_baseline", "parks")
        renamed.write_text(f"{header}\n{rest}")
        plain, mapped = tmp_path / "plain", tmp_path / "mapped"
        assert main(["ingest", "--input", str(csv_path), "--out-dir", str(plain)]) == 0
        argv = ["ingest", "--input", str(renamed), "--column-map", "sub_region=state", "parks=parks"]
        assert main(argv + ["--out-dir", str(mapped)]) == 0
        for name in ("mobility-normalized.csv", "imputation-report.json"):
            assert (mapped / name).read_bytes() == (plain / name).read_bytes()
        config = json.loads((mapped / "run-manifest.json").read_text())["config"]
        assert config["column_map"] == {"sub_region": "state", "parks": "parks"}

    def test_lenient_skips_are_in_the_manifest(self, sy, tmp_path):
        csv_path, _ = sy
        text = csv_path.read_text() + "SY,cell0_0,2020-04-01,-150,0,0,0,0,0\n"
        (tmp_path / "bad.csv").write_text(text)
        out, clean = tmp_path / "out", tmp_path / "clean"
        argv = ["ingest", "--lenient", "--input"]
        assert main(argv + [str(tmp_path / "bad.csv"), "--out-dir", str(out)]) == 0
        issues = json.loads((out / "run-manifest.json").read_text())["issues"]
        assert len(issues) == 1 and "-150" in issues[0]
        assert main(argv + [str(csv_path), "--out-dir", str(clean)]) == 0
        assert json.loads((clean / "run-manifest.json").read_text())["issues"] == []

    def test_missing_column_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("country_region_code,date\nBR,2020-03-01\n")
        assert main(["ingest", "--input", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert "percent_change_from_baseline" in capsys.readouterr().err

    def test_fully_missing_category_exit_3(self, tmp_path):
        rows = [
            "country_region_code,sub_region_1,date,"
            "retail_and_recreation_percent_change_from_baseline,"
            "grocery_and_pharmacy_percent_change_from_baseline,"
            "parks_percent_change_from_baseline,"
            "transit_stations_percent_change_from_baseline,"
            "workplaces_percent_change_from_baseline,"
            "residential_percent_change_from_baseline",
            "BR,,2020-03-01,1,2,,4,5,6",
            "BR,,2020-03-02,1,2,,4,5,6",
        ]
        bad = tmp_path / "gap.csv"
        bad.write_text("\n".join(rows) + "\n")
        assert main(["ingest", "--input", str(bad), "--out-dir", str(tmp_path / "o")]) == 3


class TestIndicatorCmd:
    def test_all_zero_gives_ones(self, tmp_path):
        header = (
            "country_region_code,sub_region_1,date,"
            "retail_and_recreation_percent_change_from_baseline,"
            "grocery_and_pharmacy_percent_change_from_baseline,"
            "parks_percent_change_from_baseline,"
            "transit_stations_percent_change_from_baseline,"
            "workplaces_percent_change_from_baseline,"
            "residential_percent_change_from_baseline"
        )
        rows = [header] + [f"SY,,2020-03-{d:02d},0,0,0,0,0,0" for d in range(1, 15)]
        path = tmp_path / "zeros.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = main(
            [
                "indicator",
                "--input", str(path),
                "--country", "SY",
                "--from", "2020-03-01",
                "--to", "2020-03-14",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        with open(out / "circulation.csv", newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert len(recs) == 14
        assert all(float(r["indicator"]) == pytest.approx(1.0) for r in recs)

    def test_minus_50_gives_quarter(self, tmp_path):
        header = (
            "country_region_code,sub_region_1,date,"
            "retail_and_recreation_percent_change_from_baseline,"
            "grocery_and_pharmacy_percent_change_from_baseline,"
            "parks_percent_change_from_baseline,"
            "transit_stations_percent_change_from_baseline,"
            "workplaces_percent_change_from_baseline,"
            "residential_percent_change_from_baseline"
        )
        rows = [header] + [f"SY,,2020-03-{d:02d},-50,-50,-50,-50,-50,-50" for d in range(1, 15)]
        path = tmp_path / "half.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        main(
            [
                "indicator",
                "--input", str(path),
                "--country", "SY",
                "--from", "2020-03-01",
                "--to", "2020-03-14",
                "--out-dir", str(out),
            ]
        )
        with open(out / "circulation.csv", newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert all(float(r["indicator"]) == pytest.approx(0.25) for r in recs)

    def test_multi_region_overlay_and_radars(self, sy, tmp_path):
        csv_path, _ = sy
        out = tmp_path / "out"
        code = main(
            [
                "indicator",
                "--input", str(csv_path),
                "--country", "SY",
                "--subnational",
                "--from", "2020-03-01",
                "--to", "2020-03-21",
                "--deseasonalize",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert (out / "indicator-overlay.svg").exists()
        assert len(list(out.glob("radar-*.svg"))) == 16

    def indicator_args(self, csv_path, out, extra=()):
        return ["indicator", "--input", str(csv_path), "--from", "2020-03-01", "--to", "2020-03-21",
                "--out-dir", str(out), *extra]

    def test_region_named_twice_kept_once(self, sy, tmp_path):
        csv_path, _ = sy
        out = tmp_path / "out"
        extra = ["--region", "SY/cell0_0", "--country", "SY", "--subnational"]
        assert main(self.indicator_args(csv_path, out, extra)) == 0
        with open(out / "circulation.csv", newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert sum(r["region_id"] == "SY/cell0_0" for r in recs) == 21
        assert recs[0]["region_id"] == "SY/cell0_0"  # first-seen order
        assert len(recs) == 16 * 21
        regions = json.loads((out / "run-manifest.json").read_text())["config"]["regions"]
        assert regions == sorted(set(regions)) and len(regions) == 16

    @pytest.mark.parametrize("robust", [False, True])
    def test_trend_only_writes_the_trend(self, robust, sy, tmp_path):
        csv_path, _ = sy
        out = tmp_path / "out"
        extra = ["--region", "SY/cell1_2", "--deseasonalize", "--trend-only"] + ["--robust"] * robust
        assert main(self.indicator_args(csv_path, out, extra)) == 0
        with open(out / "circulation.csv", newline="") as fh:
            recs = list(csv.DictReader(fh))
        with open(csv_path, "rb") as fh:
            table, _ = impute_missing(parse_cmr_csv(fh))
        window = (dt.date(2020, 3, 1), dt.date(2020, 3, 21))
        series = circulation_indicator(table, ["SY/cell1_2"], RadarConfig(), window)
        dec = stl_decompose(series.indicators[0], period=7, seasonal_window=7, outer_iters=1 if robust else 0)
        got = [float(r["indicator_deseasonalized"]) for r in recs]
        assert got == [float(f"{v:.15g}") for v in dec.trend]

    def test_window_not_covered_exit_3(self, sy, tmp_path):
        csv_path, _ = sy
        code = main(
            [
                "indicator",
                "--input", str(csv_path),
                "--country", "SY",
                "--subnational",
                "--from", "2020-02-15",
                "--to", "2020-05-16",
                "--out-dir", str(tmp_path / "o"),
            ]
        )
        assert code == 3

    def test_percent_in_region_name_written_as_is(self, tmp_path):
        header = synthetic_country_csv(1, 1, 1).splitlines()[0]
        rows = [header] + [
            f"SY,{sub},2020-03-{d:02d},{-5 * k},{d},{-d},0,{k},{2 * d}"
            for k, sub in enumerate(["50% zone", "a%%d", "%s %d"])
            for d in range(1, 15)
        ]
        (tmp_path / "pct.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        extra = ["--country", "SY", "--subnational", "--to", "2020-03-14"]
        assert main(self.indicator_args(tmp_path / "pct.csv", out, extra)) == 0
        with open(tmp_path / "pct.csv", "rb") as fh:
            table, _ = impute_missing(parse_cmr_csv(fh))
        window = (dt.date(2020, 3, 1), dt.date(2020, 3, 14))
        expected = ["region_id,date,area,indicator"]
        for rid in ["SY/%s %d", "SY/50% zone", "SY/a%%d"]:
            s = circulation_indicator(table, [rid], RadarConfig(), window)
            expected += [
                f"{rid},{date.isoformat()},{area:.15g},{ind:.15g}"
                for date, area, ind in zip(s.dates, s.areas[0], s.indicators[0])
            ]
        assert (out / "circulation.csv").read_text().splitlines() == expected

    def test_comma_in_region_name_quoted(self, tmp_path):
        # each sub-region as the input CSV quotes it, and as circulation.csv must write its id
        quoted = {"Foo, Bar": '"Foo, Bar"', 'say "hi"': '"say ""hi"""', "plain": "plain"}
        header = synthetic_country_csv(1, 1, 1).splitlines()[0]
        rows = [header] + [
            f"SY,{cell},2020-03-{d:02d},{-5 * k},{d},{-d},0,{k},{2 * d}"
            for k, cell in enumerate(quoted.values())
            for d in range(1, 15)
        ]
        (tmp_path / "comma.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        extra = ["--country", "SY", "--subnational", "--to", "2020-03-14"]
        assert main(self.indicator_args(tmp_path / "comma.csv", out, extra)) == 0
        with open(out / "circulation.csv", newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert len(recs) == 3 * 14 and all(None not in r for r in recs)
        assert [r["region_id"] for r in recs[::14]] == ["SY/Foo, Bar", "SY/plain", 'SY/say "hi"']
        lines = (out / "circulation.csv").read_text().splitlines()
        assert [line.partition(",2020-03-01,")[0] for line in lines[1::14]] == [
            '"SY/Foo, Bar"', "SY/plain", '"SY/say ""hi"""'
        ]

    def test_other_country_not_parsed(self, sy, tmp_path):
        # a row of another country that strict parsing refuses does not stop a one-country run
        csv_path, _ = sy
        text = csv_path.read_text() + "ZZ,,2020-03-01,-101,0,0,0,0,0\n"
        (tmp_path / "two.csv").write_text(text)
        out = tmp_path / "out"
        extra = ["--region", "SY/cell0_0", "--region", "SY/cell1_1"]
        assert main(self.indicator_args(tmp_path / "two.csv", out, extra)) == 0
        assert (out / "circulation.csv").read_bytes().count(b"\n") == 1 + 2 * 21


class TestMoranCmd:
    def moran_args(self, csv_path, geo_path, out, extra=()):
        return [
            "moran",
            "--input", str(csv_path),
            "--geometry", str(geo_path),
            "--country", "SY",
            "--from", "2020-03-01",
            "--to", "2020-03-21",
            "--permutations", "99",
            "--seed", "11",
            "--out-dir", str(out),
            *extra,
        ]

    def test_full_run_outputs(self, sy, tmp_path):
        csv_path, geo_path = sy
        out = tmp_path / "out"
        assert main(self.moran_args(csv_path, geo_path, out)) == 0
        for cat in ("retail_recreation", "residential"):
            d = out / cat
            for name in (
                "global.json",
                "scatter.svg",
                "lisa.csv",
                "lisa-clusters.svg",
                "lisa-significance.svg",
                "mean-variation.svg",
                "mean-variation.geojson",
            ):
                assert (d / name).exists(), f"{cat}/{name}"
        result = json.loads((out / "residential" / "global.json").read_text())
        assert 0 < result["pseudo_p"] <= 1
        # the west-east gradient in the fixture is strongly autocorrelated
        assert result["I"] > 0.3

    def test_checkerboard_country(self, tmp_path):
        # alternating high/low cells: I = -1, floor p, all outliers
        header = (
            "country_region_code,sub_region_1,date,"
            "retail_and_recreation_percent_change_from_baseline,"
            "grocery_and_pharmacy_percent_change_from_baseline,"
            "parks_percent_change_from_baseline,"
            "transit_stations_percent_change_from_baseline,"
            "workplaces_percent_change_from_baseline,"
            "residential_percent_change_from_baseline"
        )
        rows = [header]
        for r in range(2):
            for c in range(2):
                v = -20 if (r + c) % 2 == 0 else -80
                for d in range(1, 8):
                    rows.append(f"SY,cell{r}_{c},2020-03-{d:02d}," + ",".join([str(v)] * 6))
        csv_path = tmp_path / "cb.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        geo_path = tmp_path / "cb.geojson"
        geo_path.write_text(json.dumps(grid_geojson(2, 2)))
        out = tmp_path / "out"
        code = main(
            self.moran_args(csv_path, geo_path, out, extra=["--contiguity", "rook",
                                                            "--permutations", "999",
                                                            "--to", "2020-03-07",
                                                            "--categories", "parks"])
        )
        assert code == 0
        result = json.loads((out / "parks" / "global.json").read_text())
        assert result["I"] == pytest.approx(-1.0, abs=1e-12)
        with open(out / "parks" / "lisa.csv", newline="") as fh:
            recs = list(csv.DictReader(fh))
        # with only 4 regions no conditional p can beat alpha (min is ~1/3)
        assert all(r["quadrant"] == "ns" for r in recs)
        assert all(float(r["local_i"]) == pytest.approx(-1.0) for r in recs)

    def test_constant_field_exit_3(self, tmp_path, capsys):
        header = (
            "country_region_code,sub_region_1,date,"
            "retail_and_recreation_percent_change_from_baseline,"
            "grocery_and_pharmacy_percent_change_from_baseline,"
            "parks_percent_change_from_baseline,"
            "transit_stations_percent_change_from_baseline,"
            "workplaces_percent_change_from_baseline,"
            "residential_percent_change_from_baseline"
        )
        rows = [header]
        for r in range(2):
            for c in range(2):
                for d in range(1, 8):
                    rows.append(f"SY,cell{r}_{c},2020-03-{d:02d},-50,-50,-50,-50,-50,-50")
        csv_path = tmp_path / "flat.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        geo_path = tmp_path / "flat.geojson"
        geo_path.write_text(json.dumps(grid_geojson(2, 2)))
        code = main(
            self.moran_args(csv_path, geo_path, tmp_path / "o", extra=["--to", "2020-03-07"])
        )
        assert code == 3
        assert "identical" in capsys.readouterr().err

    def test_constant_third_category_writes_nothing(self, tmp_path, capsys):
        # parks is flat across regions; the categories before it vary
        rows = [HEADER]
        for r in range(2):
            for c in range(2):
                v = -10 * (1 + r + 2 * c)
                for d in range(1, 8):
                    rows.append(f"SY,cell{r}_{c},2020-03-{d:02d},{v},{v + d},-50,{v},{v},{-v}")
        csv_path = tmp_path / "flat-parks.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        geo_path = tmp_path / "grid.geojson"
        geo_path.write_text(json.dumps(grid_geojson(2, 2)))
        out = tmp_path / "o"
        code = main(self.moran_args(csv_path, geo_path, out, extra=["--to", "2020-03-07"]))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: parks: identical mean variation")
        # every category is standardized before anything is written
        assert not out.exists()

    def test_categories_share_draws(self, sy, tmp_path):
        # a category's outputs in a six-category run equal a run on it alone
        csv_path, geo_path = sy
        together = tmp_path / "all"
        assert main(self.moran_args(csv_path, geo_path, together)) == 0
        for cat in ("retail_recreation", "grocery_pharmacy", "parks",
                    "transit_stations", "workplaces", "residential"):
            alone = tmp_path / cat
            assert main(self.moran_args(csv_path, geo_path, alone, extra=["--categories", cat])) == 0
            assert hash_tree(together / cat) == hash_tree(alone / cat), cat

    def test_alpha_above_finest_tier(self, sy, tmp_path):
        csv_path, geo_path = sy
        out = tmp_path / "out"
        assert main(self.moran_args(csv_path, geo_path, out, extra=["--alpha", "0.5"])) == 0
        with open(out / "residential" / "lisa.csv", newline="") as fh:
            recs = list(csv.DictReader(fh))
        between = [r for r in recs if 0.05 < float(r["pseudo_p"]) <= 0.5]
        assert between, "fixture gives no p in (0.05, 0.5]"
        assert all(r["quadrant"] != "ns" and r["tier"] == "" for r in between)

    def test_id_mismatch_exit_4(self, sy, tmp_path, capsys):
        csv_path, _ = sy
        geo_path = tmp_path / "wrong.geojson"
        geo_path.write_text(json.dumps(grid_geojson(3, 3)))
        code = main(self.moran_args(csv_path, geo_path, tmp_path / "o"))
        assert code == 4
        err = capsys.readouterr().err
        assert "id mismatch" in err and "in mobility only" in err

    def test_same_seed_byte_identical(self, sy, tmp_path):
        csv_path, geo_path = sy
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        args = ["--categories", "parks", "workplaces"]
        assert main(self.moran_args(csv_path, geo_path, out1, extra=args)) == 0
        assert main(self.moran_args(csv_path, geo_path, out2, extra=args)) == 0
        assert hash_tree(out1) == hash_tree(out2)

    def test_geometry_projected_once_per_run(self, sy, tmp_path, monkeypatch):
        csv_path, geo_path = sy
        calls = []
        map_paths = render.map_paths
        monkeypatch.setattr(render, "map_paths", lambda *a, **k: calls.append(1) or map_paths(*a, **k))
        extra = ["--categories", "parks", "workplaces", "residential"]
        assert main(self.moran_args(csv_path, geo_path, tmp_path / "o", extra=extra)) == 0
        assert len(calls) == 1
        assert len(list((tmp_path / "o").glob("*/lisa-clusters.svg"))) == 3

    def test_each_lisa_map_names_itself(self, sy, tmp_path):
        csv_path, geo_path = sy
        cats = ["parks", "residential"]
        assert main(self.moran_args(csv_path, geo_path, tmp_path / "o", extra=["--categories", *cats])) == 0
        for cat in cats:
            titles = [
                re.findall(r'<text [^>]*font-size="14">([^<]*)</text>', (tmp_path / "o" / cat / name).read_text())
                for name in ("lisa-clusters.svg", "lisa-significance.svg")
            ]
            assert titles == [[f"LISA clusters: {cat}"], [f"LISA significance: {cat}"]]


class TestWeightsCmd:
    def test_export_formats(self, sy, tmp_path):
        _, geo_path = sy
        out = tmp_path / "w"
        assert main(["weights", "--geometry", str(geo_path), "--out-dir", str(out)]) == 0
        text = (out / "weights.txt").read_text()
        assert text.startswith("cell0_0\t")
        payload = json.loads((out / "weights.json").read_text())
        assert len(payload["regions"]) == 16

    def test_row_standardized_with_island_links(self, tmp_path):
        # cell0_0 moved 10 to the left of the 3x3 grid is an island; the other
        # two cells of its column have the nearest centroids
        doc = grid_geojson(3, 3)
        geometry = doc["features"][0]["geometry"]
        geometry["coordinates"] = [[[x - 10, y] for x, y in ring] for ring in geometry["coordinates"]]
        geo_path = tmp_path / "apart.geojson"
        geo_path.write_text(json.dumps(doc))
        out = tmp_path / "w"
        argv = ["weights", "--geometry", str(geo_path), "--row-standardize", "--island-knn", "2"]
        assert main(argv + ["--out-dir", str(out)]) == 0
        payload = json.loads((out / "weights.json").read_text())
        assert payload["mode"] == "row_standardized"
        regions = {r["id"]: r for r in payload["regions"]}
        assert regions["cell0_0"]["neighbors"] == ["cell1_0", "cell2_0"]
        assert all(sum(r["weights"]) == pytest.approx(1.0) for r in regions.values())
        text = (out / "weights.txt").read_text()
        assert text.startswith("cell0_0\tcell1_0\tcell2_0\n")


class TestRenderCmd:
    def test_choropleth_from_values(self, sy, tmp_path):
        _, geo_path = sy
        values = tmp_path / "vals.csv"
        lines = ["region_id,value"] + [f"cell{r}_{c},{r + c}" for r in range(4) for c in range(4)]
        values.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = main(
            ["render", "--geometry", str(geo_path), "--values", str(values), "--out-dir", str(out)]
        )
        assert code == 0
        assert (out / "choropleth.svg").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["moran", "--input", "{dir}/sy.csv", "--geometry", "{dir}/sy.geojson", "--country", "SY",
         "--from", "2020-03-01", "--to", "2020-03-21", "--permutations", "9"],
        ["ingest", "--input", "{dir}/sy.csv", "--country", "SY"],
        ["render", "--geometry", "{dir}/sy.geojson", "--values", "{dir}/vals.csv"],
        ["indicator", "--input", "{dir}/sy.csv", "--country", "SY", "--subnational", "--deseasonalize",
         "--from", "2020-03-01", "--to", "2020-03-21"],
    ],
    ids=["moran", "ingest", "render", "indicator"],
)
def test_out_dir_does_not_depend_on_input_paths(argv, tmp_path):
    trees = []
    for where in (tmp_path / "a", tmp_path / "b" / "much" / "deeper"):
        where.mkdir(parents=True)
        (where / "sy.csv").write_text(synthetic_country_csv(4, 4, 21))
        (where / "sy.geojson").write_text(json.dumps(grid_geojson(4, 4), indent=1))
        (where / "vals.csv").write_text("region_id,value\ncell0_0,1\ncell1_1,2\n")
        out = where / "out"
        assert main([arg.format(dir=where) for arg in argv] + ["--out-dir", str(out)]) == 0
        trees.append(hash_tree(out))
    assert trees[0] == trees[1]
    # each input is recorded by name and content
    config = json.loads((out / "run-manifest.json").read_text())["config"]
    for key in {"input", "geometry", "values"} & set(config):
        path = Path(argv[argv.index(f"--{key}") + 1].format(dir=where))
        data = path.read_bytes()
        assert config[key] == {
            "name": path.name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)
        }


class TestConfigAndSeed:
    def test_config_file_fills_defaults(self, sy, tmp_path):
        csv_path, geo_path = sy
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "input": str(csv_path),
                    "geometry": str(geo_path),
                    "country": "SY",
                    "date_from": "2020-03-01",
                    "date_to": "2020-03-21",
                    "permutations": 49,
                    "seed": 3,
                    "categories": ["parks"],
                }
            )
        )
        out = tmp_path / "o"
        code = main(["--config", str(cfg), "moran", "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["config"]["permutations"] == 49
        assert manifest["config"]["seed"] == 3

    def test_toml_config_equals_flags(self, sy, tmp_path):
        csv_path, geo_path = sy
        flags = ["moran", "--input", str(csv_path), "--geometry", str(geo_path), "--country", "SY",
                 "--from", "2020-03-01", "--to", "2020-03-21", "--contiguity", "rook",
                 "--permutations", "19", "--alpha", "0.1", "--island-knn", "0",
                 "--categories", "parks", "residential", "--seed", "5"]
        assert main(flags + ["--out-dir", str(tmp_path / "flags")]) == 0
        cfg = tmp_path / "run.toml"
        cfg.write_text(
            f"input = '{csv_path}'\ngeometry = '{geo_path}'\ncountry = 'SY'\n"
            "date_from = 2020-03-01\ndate-to = '2020-03-21'\ncontiguity = 'rook'\n"
            "permutations = 19\nalpha = 0.1\nisland_knn = '0'\n"
            "categories = ['parks', 'residential']\nseed = '5'\n"
        )
        assert main(["--config", str(cfg), "moran", "--out-dir", str(tmp_path / "toml")]) == 0
        assert hash_tree(tmp_path / "toml") == hash_tree(tmp_path / "flags")

    def test_config_flags_and_lists(self, sy, tmp_path):
        csv_path, _ = sy
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"lenient": True, "country": "SY", "column_map": [f"parks={PARKS}"]}))
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "ingest", "--input", str(csv_path), "--out-dir", str(out)]) == 0
        config = json.loads((out / "run-manifest.json").read_text())["config"]
        assert config["lenient"] is True
        assert config["column_map"] == {"parks": PARKS}

    def test_seed_env_fallback(self, sy, tmp_path, monkeypatch):
        csv_path, geo_path = sy
        monkeypatch.setenv("ESDA_MOBILITY_SEED", "77")
        out = tmp_path / "o"
        code = main(
            [
                "moran",
                "--input", str(csv_path),
                "--geometry", str(geo_path),
                "--country", "SY",
                "--from", "2020-03-01",
                "--to", "2020-03-21",
                "--permutations", "19",
                "--categories", "parks",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "run-manifest.json").read_text())
        assert manifest["config"]["seed"] == 77

    def test_config_key_typo_rejected(self, sy, tmp_path, capsys):
        csv_path, geo_path = sy
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"permutatons": 5}))
        code = main(
            [
                "--config", str(cfg),
                "moran",
                "--input", str(csv_path),
                "--geometry", str(geo_path),
                "--country", "SY",
                "--out-dir", str(tmp_path / "o"),
            ]
        )
        assert code == 3
        assert "permutatons" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


PARKS = "parks_percent_change_from_baseline"
HEADER = (
    "country_region_code,sub_region_1,date,"
    "retail_and_recreation_percent_change_from_baseline,"
    "grocery_and_pharmacy_percent_change_from_baseline,"
    "parks_percent_change_from_baseline,"
    "transit_stations_percent_change_from_baseline,"
    "workplaces_percent_change_from_baseline,"
    "residential_percent_change_from_baseline"
)


# values CSVs that render refuses
BAD_VALUES = {
    "nan value": "region_id,value\ncell0_0,1\ncell1_1,nan\n",
    "-inf value": "region_id,value\ncell0_0,1\ncell1_1,-inf\n",
    "inf value": "region_id,value\ncell0_0,1\ncell1_1,inf\n",
    "overflowing value": "region_id,value\ncell0_0,1\ncell1_1,1e400\n",
    "non-numeric value": "region_id,value\ncell0_0,1\ncell1_1,high\n",
    "no numeric values": "region_id,value\ncell0_0,\ncell1_1,\n",
    "values without value column": "region_id,score\ncell0_0,1\n",
    "values header without needed columns": "a,b\n",
    "empty values file": "",
    "overflowing spread": "region_id,value\ncell0_0,1.7e308\ncell1_1,-1.7e308\ncell2_2,0\n",
    # one cell longer than the csv module reads
    "oversized values header": f"region_id,value,{'x' * (csv.field_size_limit() + 1)}\ncell0_0,1\n",
    "oversized values cell": f"region_id,value\ncell0_0,1\ncell1_1,{'1' * (csv.field_size_limit() + 1)}\n",
}

# parsed JSON that is no FeatureCollection of feature objects
BAD_GEOMETRY_DOCS = {
    "geometry array": [1],
    "features not a list": {"type": "FeatureCollection", "features": 5},
    "feature not an object": {"type": "FeatureCollection", "features": [5]},
    "properties not an object": {"type": "FeatureCollection", "features": [{
        "type": "Feature", "properties": ["cell1_1"],
        "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]},
    }]},
}

# positions that are no pair of JSON numbers
BAD_POSITIONS = {
    "non-numeric position": [1, "y"],
    "numeric string position": ["1", "0"],
    "boolean position": [True, False],
}

# contiguity options that weights refuses
BAD_WEIGHTS_OPTIONS = {
    "snap tol 0": ["--snap-tol", "0"],
    "snap tol nan": ["--snap-tol", "nan"],
    "negative snap tol": ["--snap-tol=-1e-7"],  # argparse reads "-1e-7" alone as an option
    "negative island knn": ["--island-knn", "-1"],
    "snap tol 1e-320": ["--snap-tol", "1e-320"],  # coordinates / snap_tol overflows
}

# pairs of sub-regions whose radar file names indicator refuses
BAD_RADAR_NAMES = {
    "radar name collision": ("a/b", "a_b"),  # both would be drawn to radar-SY_a_b.svg
    "radar name with NUL": ("aa", "a\0b"),
    # after a region whose radar could be written
    "radar name over 255 bytes": ("aa", "a" * 300),
}

# config values that the option's flag would refuse, and the command given them
BAD_CONFIG = {
    "config permutations 5.5": ({"permutations": 5.5}, "moran"),
    "config permutations true": ({"permutations": True}, "moran"),
    "config alpha list": ({"alpha": [0.1]}, "moran"),
    "config contiguity bishop": ({"contiguity": "bishop"}, "moran"),
    "config island_knn 1.5": ({"island_knn": 1.5}, "moran"),
    "config categories string": ({"categories": "parks"}, "moran"),
    "config categories empty": ({"categories": []}, "moran"),
    "config axis_order short": ({"axis_order": ["parks"]}, "indicator"),
    "config flag string": ({"row_standardize": "no"}, "weights"),
}


def failing_run(kind, sy, tmp, monkeypatch):
    """argv of a run that fails in the given way."""
    csv_path, geo_path = map(str, sy)
    moran = ["moran", "--input", csv_path, "--geometry", geo_path, "--country", "SY",
             "--from", "2020-03-01", "--to", "2020-03-21", "--permutations", "9"]
    if kind in BAD_WEIGHTS_OPTIONS:
        return ["weights", "--geometry", geo_path, *BAD_WEIGHTS_OPTIONS[kind]]
    if kind in BAD_VALUES:
        (tmp / "vals.csv").write_text(BAD_VALUES[kind])
        return ["render", "--geometry", geo_path, "--values", str(tmp / "vals.csv")]
    if kind in BAD_CONFIG:
        config, command = BAD_CONFIG[kind]  # a flag would win over the config: give none
        (tmp / "run.json").write_text(json.dumps(config))
        argv = {"moran": moran[1:-2], "weights": ["--geometry", geo_path],
                "indicator": ["--input", csv_path, "--country", "SY"]}[command]
        return ["--config", str(tmp / "run.json"), command] + argv
    if kind == "bad column map":
        return ["ingest", "--input", csv_path, "--column-map", "sub_region"]
    if kind == "schema":
        (tmp / "bad.csv").write_text("country_region_code,date\nBR,2020-03-01\n")
        return ["ingest", "--input", str(tmp / "bad.csv")]
    if kind == "undecodable":
        (tmp / "bad.csv").write_bytes(b"\xff\xfe\x00\x01")
        return ["ingest", "--input", str(tmp / "bad.csv")]
    if kind == "geometry not json":
        (tmp / "bad.geojson").write_text("{")
        return ["weights", "--geometry", str(tmp / "bad.geojson")]
    if kind == "geometry nested too deep":
        (tmp / "deep.geojson").write_text("[" * 200000)
        return ["weights", "--geometry", str(tmp / "deep.geojson")]
    if kind in ("config nested too deep", "toml config nested too deep"):
        path, text = (("run.json", "[" * 200000) if kind == "config nested too deep"
                      else ("run.toml", "x = " + "[" * 200000))
        (tmp / path).write_text(text)
        return ["--config", str(tmp / path), "weights", "--geometry", geo_path]
    if kind in BAD_GEOMETRY_DOCS:
        (tmp / "bad.geojson").write_text(json.dumps(BAD_GEOMETRY_DOCS[kind]))
        return ["weights", "--geometry", str(tmp / "bad.geojson")]
    if kind == "huge coordinates":
        # the 4x4 grid scaled by 1e302: coordinates / snap_tol overflows at the default
        doc = grid_geojson(4, 4)
        for feature in doc["features"]:
            feature["geometry"]["coordinates"] = [
                [[x * 1e302, y * 1e302] for x, y in ring] for ring in feature["geometry"]["coordinates"]
            ]
        (tmp / "huge.geojson").write_text(json.dumps(doc))
        return ["weights", "--geometry", str(tmp / "huge.geojson")]
    if kind in ("feature without geometry", "null geometry"):
        doc = grid_geojson(1, 2)
        if kind == "null geometry":
            doc["features"][1]["geometry"] = None
        else:
            del doc["features"][1]["geometry"]
        (tmp / "holey.geojson").write_text(json.dumps(doc))
        return ["weights", "--geometry", str(tmp / "holey.geojson")]
    if kind in ("empty map", "polygon without rings", "polygon without coordinates",
                *BAD_POSITIONS):
        doc = grid_geojson(1, 1)
        geom = doc["features"][0]["geometry"]
        if kind == "empty map":
            doc["features"] = []
        elif kind == "polygon without rings":
            geom["coordinates"] = []
        elif kind == "polygon without coordinates":
            del geom["coordinates"]
        else:
            geom["coordinates"][0][1] = BAD_POSITIONS[kind]
        (tmp / "map.geojson").write_text(json.dumps(doc))
        (tmp / "vals.csv").write_text("region_id,value\ncell0_0,1\n")
        return ["render", "--geometry", str(tmp / "map.geojson"), "--values", str(tmp / "vals.csv")]
    if kind == "duplicate values id":
        (tmp / "vals.csv").write_text("region_id,value\ncell0_0,1\ncell1_1,2\ncell0_0,5\n")
        return ["render", "--geometry", geo_path, "--values", str(tmp / "vals.csv")]
    if kind == "no two regions touch":
        # the 4x4 grid with each cell moved to (2c, -2r): a gap between any two
        doc = grid_geojson(4, 4)
        for feature in doc["features"]:
            r, c = map(int, feature["properties"]["region_id"][4:].split("_"))
            feature["geometry"]["coordinates"] = [
                [[x + c, y - r] for x, y in ring] for ring in feature["geometry"]["coordinates"]
            ]
        (tmp / "apart.geojson").write_text(json.dumps(doc))
        return ["moran", "--input", csv_path, "--geometry", str(tmp / "apart.geojson"),
                "--country", "SY", "--from", "2020-03-01", "--to", "2020-03-21"]
    if kind == "data":
        (tmp / "gap.csv").write_text(f"{HEADER}\nBR,,2020-03-01,1,2,,4,5,6\n")
        return ["ingest", "--input", str(tmp / "gap.csv")]
    if kind == "non-finite":
        (tmp / "nan.csv").write_text(f"{HEADER}\nBR,,2020-03-01,1,2,nan,4,5,6\n")
        return ["ingest", "--input", str(tmp / "nan.csv")]
    if kind == "unknown country":
        return ["ingest", "--input", csv_path, "--country", "XX"]
    if kind == "region of absent country":
        return ["indicator", "--input", csv_path, "--region", "XX/a"]
    if kind == "bad date":
        return ["indicator", "--input", csv_path, "--country", "SY", "--from", "03/01/2020"]
    if kind in ("window gap", "moran window gap"):
        # one day of the last region missing inside the window
        lines = [line for line in Path(csv_path).read_text().splitlines()
                 if not line.startswith("SY,cell3_3,2020-03-05,")]
        (tmp / "gap.csv").write_text("\n".join(lines) + "\n")
        if kind == "moran window gap":
            return moran[:2] + [str(tmp / "gap.csv")] + moran[3:]
        return ["indicator", "--input", str(tmp / "gap.csv"), "--country", "SY", "--subnational",
                "--from", "2020-03-01", "--to", "2020-03-21"]
    if kind == "reversed window":
        return ["indicator", "--input", csv_path, "--country", "SY", "--subnational",
                "--from", "2020-03-21", "--to", "2020-03-01"]
    if kind == "moran reversed window":
        return moran + ["--from", "2020-03-21", "--to", "2020-03-01"]
    if kind in ("overflowing categories", "moran overflowing categories"):
        # two adjacent radar axes of one row at 1e200: their product overflows
        text = Path(csv_path).read_text()
        row = next(line for line in text.splitlines() if line.startswith("SY,cell0_0,2020-03-05,"))
        cells = row.split(",")
        cells[3:5] = ["1e200", "1e200"]
        (tmp / "huge.csv").write_text(text.replace(row, ",".join(cells)))
        if kind == "moran overflowing categories":
            return moran[:2] + [str(tmp / "huge.csv")] + moran[3:] + ["--categories", "retail_recreation"]
        return ["indicator", "--input", str(tmp / "huge.csv"), "--country", "SY", "--subnational",
                "--from", "2020-03-01", "--to", "2020-03-21"]
    if kind in ("moran national rows only", "subnational of national rows only"):
        # SY rows at the national level only: no sub-region to select, and with
        # no feature on the map, none to gather
        header = Path(csv_path).read_text().partition("\n")[0]
        rows = [f"SY,,2020-03-{d:02d},1,2,3,4,5,6" for d in range(1, 22)]
        (tmp / "national.csv").write_text("\n".join([header, *rows]) + "\n")
        if kind == "subnational of national rows only":
            return ["indicator", "--input", str(tmp / "national.csv"), "--country", "SY", "--subnational",
                    "--from", "2020-03-01", "--to", "2020-03-21"]
        (tmp / "none.geojson").write_text(json.dumps({"type": "FeatureCollection", "features": []}))
        return ["moran", "--input", str(tmp / "national.csv"), "--geometry", str(tmp / "none.geojson"),
                "--country", "SY", "--from", "2020-03-01", "--to", "2020-03-21"]
    if kind in ("center nan", "center -inf", "center -1e160"):
        return ["indicator", "--input", csv_path, "--country", "SY", "--subnational",
                "--from", "2020-03-01", "--to", "2020-03-21", f"--center={kind.split()[1]}"]
    if kind in ("robust without deseasonalize", "trend only without deseasonalize"):
        return ["indicator", "--input", csv_path, "--country", "SY", "--subnational",
                "--from", "2020-03-01", "--to", "2020-03-21",
                "--robust" if kind.startswith("robust") else "--trend-only"]
    if kind == "seasonal window 1":
        return ["indicator", "--input", csv_path, "--country", "SY", "--subnational",
                "--from", "2020-03-01", "--to", "2020-03-21",
                "--deseasonalize", "--seasonal-window", "1"]
    if kind == "negative seed":
        return moran + ["--seed", "-1"]
    if kind == "impossible permutations":
        # draws that exceed the address space: numpy refuses them without allocating
        return moran + ["--permutations", "1000000000000000"]
    if kind == "negative config seed":
        (tmp / "run.json").write_text(json.dumps({"seed": -3}))
        return ["--config", str(tmp / "run.json")] + moran
    if kind in ("bad seed env", "negative seed env"):
        monkeypatch.setenv("ESDA_MOBILITY_SEED", "abc" if kind == "bad seed env" else "-2")
        return moran
    if kind == "weights seed":
        return ["weights", "--geometry", geo_path, "--seed", "1"]
    if kind == "weights config seed":
        (tmp / "run.json").write_text(json.dumps({"seed": 1}))
        return ["--config", str(tmp / "run.json"), "weights", "--geometry", geo_path]
    if kind == "alpha 1.5":
        return moran + ["--alpha", "1.5"]
    if kind == "unknown category":
        return moran + ["--categories", "cinemas"]
    if kind == "no categories":
        return moran + ["--categories"]
    if kind in BAD_RADAR_NAMES:
        header = Path(csv_path).read_text().partition("\n")[0]
        rows = [f"SY,{cell},2020-03-{d:02d},1,2,3,4,5,6"
                for cell in BAD_RADAR_NAMES[kind] for d in range(1, 22)]
        (tmp / "names.csv").write_text("\n".join([header, *rows]) + "\n")
        return ["indicator", "--input", str(tmp / "names.csv"), "--country", "SY", "--subnational",
                "--from", "2020-03-01", "--to", "2020-03-21"]
    if kind == "missing input":
        return ["ingest", "--input", str(tmp / "absent.csv")]
    if kind == "missing geometry":
        return moran[:3] + ["--geometry", str(tmp / "absent.geojson"), "--country", "SY"]
    if kind in ("undecodable values", "undecodable values line 3"):
        data = b"\xff\xferegion_id,value\n" if kind == "undecodable values" else (
            b"region_id,value\ncell0_0,1\ncell1_1,\xff2\n")
        (tmp / "vals.csv").write_bytes(data)
        return ["render", "--geometry", geo_path, "--values", str(tmp / "vals.csv")]
    if kind == "missing values":
        return ["render", "--geometry", geo_path, "--values", str(tmp / "absent.csv")]
    if kind == "missing config":
        return ["--config", str(tmp / "absent.json"), "ingest", "--input", csv_path]
    if kind == "bad config":
        (tmp / "run.json").write_text("{permutations: 5")
        return ["--config", str(tmp / "run.json"), "ingest", "--input", csv_path]
    if kind == "required option":
        return ["moran", "--input", csv_path, "--country", "SY"]
    if kind == "id mismatch":
        (tmp / "wrong.geojson").write_text(json.dumps(grid_geojson(3, 3)))
        return ["moran", "--input", csv_path, "--geometry", str(tmp / "wrong.geojson"),
                "--country", "SY", "--from", "2020-03-01", "--to", "2020-03-21"]
    raise AssertionError(kind)


@pytest.mark.parametrize(
    "kind, code",
    [
        ("schema", 2),
        ("undecodable", 2),
        ("geometry not json", 2),
        ("geometry nested too deep", 2),
        ("undecodable values", 2),
        ("undecodable values line 3", 2),
        ("values without value column", 2),
        ("values header without needed columns", 2),
        ("empty values file", 2),
        ("oversized values header", 2),
        ("oversized values cell", 2),
        ("weights seed", 2),
        ("no categories", 2),
        ("data", 3),
        ("non-finite", 3),
        ("unknown country", 3),
        ("region of absent country", 3),
        ("bad date", 3),
        ("seasonal window 1", 3),
        ("robust without deseasonalize", 3),
        ("trend only without deseasonalize", 3),
        ("center nan", 3),
        ("center -inf", 3),
        ("center -1e160", 3),
        ("overflowing categories", 3),
        ("moran overflowing categories", 3),
        ("moran national rows only", 3),
        ("subnational of national rows only", 3),
        ("window gap", 3),
        ("moran window gap", 3),
        ("reversed window", 3),
        ("moran reversed window", 3),
        *((kind, 3) for kind in BAD_RADAR_NAMES),
        ("alpha 1.5", 3),
        ("impossible permutations", 3),
        ("geometry array", 3),
        ("features not a list", 3),
        ("feature not an object", 3),
        ("properties not an object", 3),
        ("unknown category", 3),
        ("negative seed", 3),
        ("negative config seed", 3),
        ("bad seed env", 3),
        ("negative seed env", 3),
        ("weights config seed", 3),
        ("missing input", 3),
        ("missing geometry", 3),
        ("feature without geometry", 3),
        ("null geometry", 3),
        ("empty map", 3),
        ("polygon without rings", 3),
        ("polygon without coordinates", 3),
        *((kind, 3) for kind in BAD_POSITIONS),
        ("missing values", 3),
        ("duplicate values id", 3),
        ("nan value", 3),
        ("-inf value", 3),
        ("inf value", 3),
        ("overflowing value", 3),
        ("non-numeric value", 3),
        ("no numeric values", 3),
        ("overflowing spread", 3),
        ("bad column map", 3),
        ("config permutations 5.5", 3),
        ("config permutations true", 3),
        ("config alpha list", 3),
        ("config contiguity bishop", 3),
        ("config island_knn 1.5", 3),
        ("config categories string", 3),
        ("config categories empty", 3),
        ("config axis_order short", 3),
        ("config flag string", 3),
        *((kind, 3) for kind in BAD_WEIGHTS_OPTIONS),
        ("huge coordinates", 3),
        ("no two regions touch", 3),
        ("missing config", 3),
        ("bad config", 3),
        ("config nested too deep", 3),
        ("toml config nested too deep", 3),
        ("required option", 3),
        ("id mismatch", 4),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would be a second stderr line
def test_failure_exit_codes(kind, code, sy, tmp_path, capsys, monkeypatch):
    argv = failing_run(kind, sy, tmp_path, monkeypatch)
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    first, *rest = err.splitlines()
    assert first.startswith(("schema error: ", "error: ", "id mismatch: "))
    assert kind == "id mismatch" or not rest
    assert FAILURE_MESSAGES.get(kind, "") in first


def test_no_links_writes_nothing(sy, tmp_path, monkeypatch):
    argv = failing_run("no two regions touch", sy, tmp_path, monkeypatch) + ["--permutations", "9"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()
    assert main(argv + ["--island-knn", "1", "--out-dir", str(tmp_path / "knn")]) == 0


def test_late_failure_writes_nothing(sy, tmp_path, monkeypatch):
    # the second category's GeoJSON fails after the first category's outputs are made
    csv_path, geo_path = sy
    join = cli.rd.join_geojson
    calls = []

    def failing_join(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise DataError("join failed")
        return join(*args, **kwargs)

    monkeypatch.setattr(cli.rd, "join_geojson", failing_join)
    out = tmp_path / "out"
    argv = ["moran", "--input", str(csv_path), "--geometry", str(geo_path), "--country", "SY",
            "--from", "2020-03-01", "--to", "2020-03-21", "--permutations", "9",
            "--categories", "parks", "residential", "--out-dir", str(out)]
    assert main(argv) == 3
    assert len(calls) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "kind",
    ["window gap", "moran window gap", "reversed window", "moran reversed window",
     *BAD_RADAR_NAMES, "robust without deseasonalize", "trend only without deseasonalize",
     "center nan", "center -inf", "alpha 1.5", "no categories", "config categories empty", "center -1e160", "overflowing categories",
     "moran overflowing categories", "huge coordinates", "overflowing spread",
     "geometry nested too deep", "config nested too deep", "toml config nested too deep",
     "oversized values header", "oversized values cell", "impossible permutations",
     "undecodable values line 3", "subnational of national rows only",
     *BAD_GEOMETRY_DOCS, *BAD_WEIGHTS_OPTIONS, *BAD_POSITIONS],
)
def test_failure_writes_nothing(kind, sy, tmp_path, monkeypatch):
    argv = failing_run(kind, sy, tmp_path, monkeypatch)
    schema = ("no categories", "geometry nested too deep", "undecodable values line 3")
    code = 2 if kind in schema or "oversized" in kind else 3
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == code
    assert not (tmp_path / "out").exists()


# the error line names where a bad seed came from, or what the map lacks
FAILURE_MESSAGES = {
    "window gap": "error: region 'SY/cell3_3' covers 20 of 21 days in 2020-03-01..2020-03-21",
    "moran window gap": "error: region 'SY/cell3_3' covers 20 of 21 days in 2020-03-01..2020-03-21",
    "reversed window": "error: --from 2020-03-21 is later than --to 2020-03-01",
    "moran reversed window": "error: --from 2020-03-21 is later than --to 2020-03-01",
    "snap tol 0": "error: snap_tol must be finite and > 0, got 0.0",
    "snap tol nan": "error: snap_tol must be finite and > 0, got nan",
    "negative snap tol": "error: snap_tol must be finite and > 0, got -1e-07",
    "negative island knn": "error: k must be >= 1, got -1",
    "snap tol 1e-320": "error: snap_tol 1e-320 is too small for coordinates as large as 4.0",
    "huge coordinates": "error: snap_tol 1e-07 is too small for coordinates as large as 4e+302",
    "radar name collision": "error: regions 'SY/a/b' and 'SY/a_b' would both be drawn to radar-SY_a_b.svg",
    "radar name with NUL": "error: region 'SY/a\\x00b' cannot name a radar file: it holds NUL or is over 255 bytes",
    "radar name over 255 bytes": f"error: region 'SY/{'a' * 300}' cannot name a radar file",
    "no categories": "schema error: mobility-esda moran: argument --categories: expected at least one",
    "robust without deseasonalize": "error: --robust and --trend-only need --deseasonalize",
    "trend only without deseasonalize": "error: --robust and --trend-only need --deseasonalize",
    "center nan": "error: center must be finite and <= -100, got nan",
    "center -inf": "error: center must be finite and <= -100, got -inf",
    "center -1e160": "error: SY/cell0_0 2020-03-01: radar area overflows at center -1e+160",
    "overflowing categories": "error: SY/cell0_0 2020-03-05: radar area overflows at center -100.0",
    "moran overflowing categories": "error: retail_recreation: values too large: their spread overflows",
    "moran national rows only": "error: no regions to gather",
    "subnational of national rows only":
        "error: country 'SY' has no sub-regions; drop --subnational to use its national rows",
    "alpha 1.5": "error: alpha must be in (0, 1), got 1.5",
    "region of absent country": "error: unknown country 'XX'; available: ['SY']",
    "geometry array": "error: expected FeatureCollection, got 'list'",
    "features not a list": "error: features must be a list of feature objects",
    "feature not an object": "error: features must be a list of feature objects",
    "properties not an object": "error: feature properties must be an object, got 'list'",
    "negative seed": "error: --seed (or config seed) must be a non-negative integer, got -1",
    "negative config seed": "error: --seed (or config seed) must be a non-negative integer, got -3",
    "bad seed env": "error: $ESDA_MOBILITY_SEED must be a non-negative integer, got 'abc'",
    "negative seed env": "error: $ESDA_MOBILITY_SEED must be a non-negative integer, got -2",
    "empty map": "error: no geometry to draw",
    "polygon without rings": "error: cell0_0: geometry has no rings",
    "polygon without coordinates": "error: cell0_0: Polygon has no coordinates",
    **{kind: "error: cell0_0: malformed coordinates" for kind in BAD_POSITIONS},
    "duplicate values id": "error: values CSV: region id 'cell0_0' appears more than once",
    "no two regions touch": "error: no two regions touch; link them with --island-knn",
    "nan value": "error: values CSV: non-finite value 'nan' for region 'cell1_1'",
    "-inf value": "error: values CSV: non-finite value '-inf' for region 'cell1_1'",
    "inf value": "error: values CSV: non-finite value 'inf' for region 'cell1_1'",
    "overflowing value": "error: values CSV: non-finite value '1e400' for region 'cell1_1'",
    "non-numeric value": "error: values CSV: non-numeric value 'high'",
    "no numeric values": "error: values CSV contains no numeric values",
    "values without value column": "schema error: values CSV needs region_id and value columns",
    "values header without needed columns": "schema error: values CSV needs region_id and value columns",
    "empty values file": "schema error: values CSV needs region_id and value columns",
    "oversized values header": "schema error: values CSV: line 1: malformed CSV: field larger than field limit",
    "oversized values cell": "schema error: values CSV: line 3: malformed CSV: field larger than field limit",
    "undecodable values line 3":
        "schema error: values CSV: line 3: input is not UTF-8 text: byte 0xff: invalid start byte",
    "impossible permutations": "error: out of memory: Unable to allocate",
    "overflowing spread": "error: values too large: their spread overflows",
    "bad column map": "error: bad --column-map entry 'sub_region' (want key=value)",
    "config permutations 5.5": "error: config permutations: 5.5 is not a valid --permutations value",
    "config permutations true": "error: config permutations: True is not a valid --permutations value",
    "config alpha list": "error: config alpha: [0.1] is not a valid --alpha value",
    "config contiguity bishop": "error: config contiguity: 'bishop' is not a valid --contiguity value",
    "config island_knn 1.5": "error: config island_knn: 1.5 is not a valid --island-knn value",
    "config categories string": "error: config categories: 'parks' is not a valid --categories value",
    "config categories empty": "error: config categories: [] is not a valid --categories value",
    "config axis_order short": "error: config axis_order: ['parks'] is not a valid --axis-order value",
    "config flag string": "error: config row_standardize: 'no' is not a valid --row-standardize value",
    "geometry nested too deep": "deep.geojson: JSON nested too deeply",
    "config nested too deep": "run.json: nested too deeply",
    "toml config nested too deep": "run.toml: nested too deeply",
}


SY_CSV_LINES = synthetic_country_csv(4, 4, 21).splitlines()  # the sy fixture's rows


@given(
    start=st.dates(dt.date(2020, 2, 25), dt.date(2020, 3, 26)),
    stop=st.dates(dt.date(2020, 2, 25), dt.date(2020, 3, 26)),
    drop=st.none() | st.integers(1, len(SY_CSV_LINES) - 1),
)
@example(start=dt.date(2020, 3, 1), stop=dt.date(2020, 3, 21), drop=None)  # both run
@example(start=dt.date(2020, 3, 1), stop=dt.date(2020, 3, 21), drop=5)  # a day gone in the window
@settings(max_examples=40, deadline=None)
def test_moran_and_indicator_share_the_window_rule(start, stop, drop):
    """Over any window, with or without one row gone, moran and indicator
    accept or refuse the same input; a refusal is one line and writes nothing."""
    window = ["--from", start.isoformat(), "--to", stop.isoformat()]
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, geo_path = Path(tmp, "sy.csv"), Path(tmp, "sy.geojson")
        csv_path.write_text("\n".join(line for i, line in enumerate(SY_CSV_LINES) if i != drop) + "\n")
        geo_path.write_text(json.dumps(grid_geojson(4, 4)))
        runs = {
            "moran": ["moran", "--input", str(csv_path), "--geometry", str(geo_path),
                      "--country", "SY", "--permutations", "9"],
            "indicator": ["indicator", "--input", str(csv_path), "--country", "SY", "--subnational"],
        }
        codes = []
        for name, argv in runs.items():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                codes.append(main(argv + window + ["--out-dir", str(Path(tmp, name))]))
            assert "Traceback" not in err.getvalue()
            assert codes[-1] in (0, 3)
            assert (codes[-1] == 0) == Path(tmp, name).exists()
            assert len(err.getvalue().splitlines()) == (codes[-1] != 0)
    assert codes[0] == codes[1]
