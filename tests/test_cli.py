import contextlib
import csv
import datetime as dt
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
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
        atomic_write(tmp_path / "out.txt", "x")
    finally:
        os.umask(old)
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == mode


@pytest.mark.parametrize(
    "name, data, error", [("out", "x", IsADirectoryError), ("out.txt", "\udcff", UnicodeError)]
)
def test_atomic_write_leaves_no_temp_file_on_error(name, data, error, tmp_path):
    # renaming onto a directory fails late; a lone surrogate fails while writing
    (tmp_path / "out").mkdir()
    with pytest.raises(error):
        atomic_write(tmp_path / name, data)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


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
        series = circulation_indicator(table, "SY/cell1_2", RadarConfig(), window)
        dec = stl_decompose(series.indicators, period=7, seasonal_window=7, outer_iters=1 if robust else 0)
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
            s = circulation_indicator(table, rid, RadarConfig(), window)
            expected += [
                f"{rid},{date.isoformat()},{area:.15g},{ind:.15g}"
                for date, area, ind in zip(s.dates, s.areas, s.indicators)
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
    ],
    ids=["moran", "ingest", "render"],
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
}

# parsed JSON that is no FeatureCollection of feature objects
BAD_GEOMETRY_DOCS = {
    "geometry array": [1],
    "features not a list": {"type": "FeatureCollection", "features": 5},
    "feature not an object": {"type": "FeatureCollection", "features": [5]},
}

# contiguity options that weights refuses
BAD_WEIGHTS_OPTIONS = {
    "snap tol 0": ["--snap-tol", "0"],
    "snap tol nan": ["--snap-tol", "nan"],
    "negative snap tol": ["--snap-tol=-1e-7"],  # argparse reads "-1e-7" alone as an option
    "negative island knn": ["--island-knn", "-1"],
    "snap tol 1e-320": ["--snap-tol", "1e-320"],  # coordinates / snap_tol overflows
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
                "non-numeric position"):
        doc = grid_geojson(1, 1)
        geom = doc["features"][0]["geometry"]
        if kind == "empty map":
            doc["features"] = []
        elif kind == "polygon without rings":
            geom["coordinates"] = []
        elif kind == "polygon without coordinates":
            del geom["coordinates"]
        else:
            geom["coordinates"][0][1] = [1, "y"]
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
    if kind == "moran national rows only":
        # no sub-region in the data and no feature on the map: nothing to gather
        header = Path(csv_path).read_text().partition("\n")[0]
        rows = [f"SY,,2020-03-{d:02d},1,2,3,4,5,6" for d in range(1, 22)]
        (tmp / "national.csv").write_text("\n".join([header, *rows]) + "\n")
        (tmp / "none.geojson").write_text(json.dumps({"type": "FeatureCollection", "features": []}))
        return ["moran", "--input", str(tmp / "national.csv"), "--geometry", str(tmp / "none.geojson"),
                "--country", "SY", "--from", "2020-03-01", "--to", "2020-03-21"]
    if kind in ("center nan", "center -inf", "center -1e160"):
        return ["indicator", "--input", csv_path, "--country", "SY", "--subnational",
                "--from", "2020-03-01", "--to", "2020-03-21", f"--center={kind.split()[1]}"]
    if kind == "seasonal window 1":
        return ["indicator", "--input", csv_path, "--country", "SY", "--subnational",
                "--from", "2020-03-01", "--to", "2020-03-21",
                "--deseasonalize", "--seasonal-window", "1"]
    if kind == "negative seed":
        return moran + ["--seed", "-1"]
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
    if kind == "radar name collision":
        # both sub-regions would be drawn to radar-SY_a_b.svg
        header = Path(csv_path).read_text().partition("\n")[0]
        rows = [f"SY,{cell},2020-03-{d:02d},1,2,3,4,5,6" for cell in ("a/b", "a_b") for d in range(1, 22)]
        (tmp / "slash.csv").write_text("\n".join([header, *rows]) + "\n")
        return ["indicator", "--input", str(tmp / "slash.csv"), "--country", "SY", "--subnational",
                "--from", "2020-03-01", "--to", "2020-03-21"]
    if kind == "missing input":
        return ["ingest", "--input", str(tmp / "absent.csv")]
    if kind == "missing geometry":
        return moran[:3] + ["--geometry", str(tmp / "absent.geojson"), "--country", "SY"]
    if kind == "undecodable values":
        (tmp / "vals.csv").write_bytes(b"\xff\xferegion_id,value\n")
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
        ("undecodable values", 2),
        ("values without value column", 2),
        ("weights seed", 2),
        ("no categories", 2),
        ("data", 3),
        ("non-finite", 3),
        ("unknown country", 3),
        ("region of absent country", 3),
        ("bad date", 3),
        ("seasonal window 1", 3),
        ("center nan", 3),
        ("center -inf", 3),
        ("center -1e160", 3),
        ("overflowing categories", 3),
        ("moran overflowing categories", 3),
        ("moran national rows only", 3),
        ("window gap", 3),
        ("moran window gap", 3),
        ("reversed window", 3),
        ("moran reversed window", 3),
        ("radar name collision", 3),
        ("alpha 1.5", 3),
        ("geometry array", 3),
        ("features not a list", 3),
        ("feature not an object", 3),
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
        ("non-numeric position", 3),
        ("missing values", 3),
        ("duplicate values id", 3),
        ("nan value", 3),
        ("-inf value", 3),
        ("inf value", 3),
        ("overflowing value", 3),
        ("non-numeric value", 3),
        ("no numeric values", 3),
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
     "radar name collision", "center nan", "center -inf", "alpha 1.5", "no categories",
     "config categories empty", "center -1e160", "overflowing categories",
     "moran overflowing categories", "huge coordinates",
     *BAD_GEOMETRY_DOCS, *BAD_WEIGHTS_OPTIONS],
)
def test_failure_writes_nothing(kind, sy, tmp_path, monkeypatch):
    argv = failing_run(kind, sy, tmp_path, monkeypatch)
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == (2 if kind == "no categories" else 3)
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
    "no categories": "schema error: mobility-esda moran: argument --categories: expected at least one",
    "center nan": "error: center must be finite and <= -100, got nan",
    "center -inf": "error: center must be finite and <= -100, got -inf",
    "center -1e160": "error: SY/cell0_0 2020-03-01: radar area overflows at center -1e+160",
    "overflowing categories": "error: SY/cell0_0 2020-03-05: radar area overflows at center -100.0",
    "moran overflowing categories": "error: retail_recreation: values too large: their spread overflows",
    "moran national rows only": "error: no regions to gather",
    "alpha 1.5": "error: alpha must be in (0, 1), got 1.5",
    "region of absent country": "error: unknown country 'XX'; available: ['SY']",
    "geometry array": "error: expected FeatureCollection, got 'list'",
    "features not a list": "error: features must be a list of feature objects",
    "feature not an object": "error: features must be a list of feature objects",
    "negative seed": "error: --seed (or config seed) must be a non-negative integer, got -1",
    "negative config seed": "error: --seed (or config seed) must be a non-negative integer, got -3",
    "bad seed env": "error: $ESDA_MOBILITY_SEED must be a non-negative integer, got 'abc'",
    "negative seed env": "error: $ESDA_MOBILITY_SEED must be a non-negative integer, got -2",
    "empty map": "error: no geometry to draw",
    "polygon without rings": "error: cell0_0: geometry has no rings",
    "polygon without coordinates": "error: cell0_0: Polygon has no coordinates",
    "non-numeric position": "error: cell0_0: malformed coordinates",
    "duplicate values id": "error: values CSV: region id 'cell0_0' appears more than once",
    "no two regions touch": "error: no two regions touch; link them with --island-knn",
    "nan value": "error: values CSV: non-finite value 'nan' for region 'cell1_1'",
    "-inf value": "error: values CSV: non-finite value '-inf' for region 'cell1_1'",
    "inf value": "error: values CSV: non-finite value 'inf' for region 'cell1_1'",
    "overflowing value": "error: values CSV: non-finite value '1e400' for region 'cell1_1'",
    "non-numeric value": "error: values CSV: non-numeric value 'high'",
    "no numeric values": "error: values CSV contains no numeric values",
    "values without value column": "schema error: values CSV needs region_id and value columns",
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
