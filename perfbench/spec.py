"""Workloads and metrics of the benchmark; ``BENCHMARK.json`` is generated from here.

Every workload is one CLI command on generated files covering the 92 days
of the default analysis window. The paper-scale pair is Brazil's 27
federal units; the municipal workload scales the region count instead.
Each workload is chosen so that one cost dominates and another is absent:

- ``moran-paper``: conditional-randomization LISA (Anselin 1995) dominates;
  the seasonal decomposition never runs.
- ``indicator-paper``: the per-point LOESS fits of STL (Cleveland et al.
  1990) dominate; contiguity and Moran never run.
- ``moran-municipal``: ingest and the pairwise contiguity build at 400
  regions; LISA runs with many regions and few draws, the opposite of
  ``moran-paper``, and STL never runs.

On a shared 2-vCPU virtual machine the CPU speed drifts by a fifth or
more over minutes, so medians of raw wall time spread past the bounds
below at any run length; ``wall_rel`` divides each sample by a
calibration timed just before it. Three workloads of 40 s each fit the
time all runs may take. A fourth, ``indicator-municipal`` (400 regions,
no STL), is left out: at about 6 s a sample it got too few samples in a
run to be steady.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import CATEGORIES, COUNTRY
from spans import COUNTERS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40
DAYS = 92
SEED = 42  # the CLI's permutation seed; the workload seed only shapes the inputs


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    command: str  # "moran" or "indicator"
    why: str
    permutations: int = 0
    categories: tuple[str, ...] = CATEGORIES
    deseasonalize: bool = False

    @property
    def regions(self) -> int:
        return self.rows * self.cols

    def argv(self, csv_path: str, geo_path: str, out_dir: str) -> list[str]:
        if self.command == "moran":
            return [
                "moran", "--input", csv_path, "--geometry", geo_path, "--country", COUNTRY,
                "--contiguity", "queen", "--permutations", str(self.permutations),
                "--seed", str(SEED), "--categories", *self.categories, "--out-dir", out_dir,
            ]
        return [
            "indicator", "--input", csv_path, "--country", COUNTRY, "--subnational",
            *(["--deseasonalize"] if self.deseasonalize else []), "--out-dir", out_dir,
        ]

    def queen_degree_sum(self) -> int:
        """Sum of queen-contiguity neighbour counts over the grid."""
        r, c = self.rows, self.cols
        return 2 * (r * (c - 1) + c * (r - 1) + 2 * (r - 1) * (c - 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "moran-paper", 3, 9, "moran", permutations=999,
            why="27 regions (3x9) x 92 d; moran queen R=999 seed 42, six categories. "
                "LISA permutations take most of the wall time; STL never runs",
        ),
        Workload(
            "indicator-paper", 3, 9, "indicator", deseasonalize=True,
            why="27 regions (3x9) x 92 d; indicator SY --subnational --deseasonalize. "
                "STL takes most of the wall time; contiguity and Moran never run",
        ),
        Workload(
            "moran-municipal", 20, 20, "moran", permutations=99, categories=("residential",),
            why="400 regions (20x20) x 92 d; moran queen R=99 seed 42, residential only. "
                "Ingest and pairwise contiguity dominate; LISA has many regions, few draws",
        ),
    )
}

# name, unit, better, bound (share of the parent's median it may worsen by)
# wall_rel is the call's wall time over the calibration time measured in the
# same process just before (see worker.calibrate): on one machine it is
# proportional to wall_s, and it cancels most of the drift of a shared
# machine's speed, which moves medians of wall_s by a fifth between runs
END_TO_END = (
    ("wall_rel", "ratio", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("output_bytes", "bytes", "lower", 0.05),
)

MODULES = ("ingest", "indicator", "timeseries", "geometry", "weights", "moran", "render", "cli")
SELF_TIMED = (
    "ingest.parse_cmr_csv",
    "ingest.impute_missing",
    "ingest.subnational",
    "indicator.circulation_indicator",
    "timeseries.stl_decompose",
    "geometry.load_geojson",
    "weights.queen_adjacency",
    "weights.row_standardize",
    "weights.to_text",
    "weights.to_json",
    "moran.moran_permutation",
    "moran.lisa_permutation",
    *(name for name in COUNTERS if name.startswith("render.")),
    "cli.cmd_indicator",
    "cli.cmd_moran",
    "cli.atomic_write",
)
# work counts: calls, rows and draws follow from the inputs, bytes are
# measured at the layer boundary
COUNTS = (
    "ingest.rows",
    "timeseries.stl_decompose.calls",
    "weights.queen_adjacency.candidate_pairs",
    "moran.lisa_permutation.draws",
    *(f"{name}.bytes" for name in COUNTERS),
    "cli.atomic_write.files",
)
TRACE = ("trace.wall_s", "trace.overhead_s", "trace.unattributed_s")
# medians over the untraced samples, without the division by calib_s
RAW = (("wall_s", "s", "lower"), ("region_days_per_s", "1/s", "higher"), ("calib_s", "s", "lower"))

PER_LAYER = (
    *RAW,
    *((f"{m}.self_s", "s", "lower") for m in MODULES),
    *((f"{m}.share", "fraction", "lower") for m in MODULES),
    *((f"{name}.self_s", "s", "lower") for name in SELF_TIMED),
    *((name, "bytes" if name.endswith(".bytes") else "count", "lower") for name in COUNTS),
    *((name, "s", "lower") for name in TRACE),
)
UNITS = {name: unit for name, unit, *_ in (*END_TO_END, *PER_LAYER)}


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
