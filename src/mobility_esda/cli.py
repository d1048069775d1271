"""Command-line pipeline: ingest, indicator, moran, weights, render.

Runs are config-driven and reproducible, all randomness flowing from one
seed. Every subcommand returns its files, run-manifest.json last; :func:`main`
writes them atomically (temp + rename) once every stage has succeeded.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import ingest as ing
from . import moran as mr
from . import render as rd
from . import weights as wt
from .errors import (
    DataError,
    IdMismatchError,
    MobilityError,
    ParameterError,
    SchemaError,
    ZeroVarianceError,
)
from .geometry import load_geojson
from .indicator import RadarConfig, circulation_indicator
from .ingest import CATEGORIES
from .timeseries import stl_decompose

DEFAULT_ANALYSIS_WINDOW = (dt.date(2020, 2, 15), dt.date(2020, 5, 16))
SEED_ENV_VAR = "ESDA_MOBILITY_SEED"

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DATA = 3
EXIT_ID_MISMATCH = 4

REQUIRED = object()  # default of an option that the command line or config must give
# options that name files; the text of every other option is read as UTF-8
PATH_OPTIONS = ("config", "input", "geometry", "values", "out_dir")


def atomic_write(path: Path, data: bytes) -> None:
    # the pid sets the name apart from other live writers, the random part from a
    # file that a killed run left behind; the kernel applies the umask to 0o666
    tmp = path.parent / f".tmp-{os.getpid()}-{os.urandom(4).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _file_record(path: str) -> dict:
    """An input file by its base name, sha256 and size, not by where it lies."""
    with open(path, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
        size = fh.tell()
    return {"name": Path(path).name, "sha256": digest, "bytes": size}


def manifest(args, omit=(), issues=None, **resolved) -> str:
    """Echo the command's resolved options, ``resolved`` replacing raw ones, and any ``issues``.

    out_dir is intentionally excluded, and input files are recorded by
    name and content, so identical runs from and into different
    directories produce byte-identical trees. Dates are written in ISO form.
    """
    skip = {"command", "config", "out_dir", "seed", "date_from", "date_to", *omit}
    config = {k: v for k, v in vars(args).items() if k not in skip} | resolved
    for key in ("input", "geometry", "values"):
        if key in config:
            config[key] = _file_record(config[key])
    doc = {"command": args.command, "version": __version__, "config": config}
    if issues is not None:
        doc["issues"] = issues
    return json.dumps(doc, indent=2, sort_keys=True, default=dt.date.isoformat) + "\n"


def _utf8(text: str) -> str:
    """An argv value as the UTF-8 text its bytes hold, whatever the locale; a
    byte that is not UTF-8 stays escaped, as argv decoding left it."""
    return os.fsencode(text).decode("utf-8", "surrogateescape")


def _decode_argv(args) -> None:
    """Read every value of the process's command line that is not a path (a
    region, a category, a title ...) as UTF-8, as the input files are."""
    for dest, value in vars(args).items():
        if isinstance(value, str) and dest not in PATH_OPTIONS:
            setattr(args, dest, _utf8(value))
        elif isinstance(value, list):
            setattr(args, dest, [_utf8(item) for item in value])


def _parse_date(s: str) -> dt.date:
    try:
        return dt.date.fromisoformat(s)
    except ValueError:
        raise ParameterError(f"invalid date {s!r} (want YYYY-MM-DD)") from None


def _window(args) -> tuple[dt.date, dt.date]:
    """The inclusive ``--from`` .. ``--to`` window, which must not run backwards."""
    window = (_parse_date(args.date_from), _parse_date(args.date_to))
    if window[0] > window[1]:
        raise ParameterError(f"--from {window[0]} is later than --to {window[1]}")
    return window


def _parse_column_map(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        k, _, v = pair.partition("=")
        if not v:
            raise ParameterError(f"bad --column-map entry {pair!r} (want key=value)")
        out[k] = v
    return out


def _load_config_file(path: str) -> dict:
    text = Path(path).read_bytes()
    try:
        if path.endswith(".toml"):
            import tomllib

            config = tomllib.loads(text.decode("utf-8"))
        else:
            config = json.loads(text)
    except ValueError as exc:
        raise ParameterError(f"config file {path}: {exc}") from None
    except RecursionError:
        raise ParameterError(f"config file {path}: nested too deeply") from None
    if not isinstance(config, dict):
        raise ParameterError(f"config file {path}: expected a table of option values")
    return config


def _read_json(path: str):
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except ValueError as exc:
        raise SchemaError(f"{path} is not JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None


def _resolve_seed(args) -> int:
    """``--seed`` (or the config's ``seed``), else $ESDA_MOBILITY_SEED, else 0."""
    seed, source = args.seed, "--seed (or config seed)"
    if seed is None:
        seed, source = os.environ.get(SEED_ENV_VAR, "0"), f"${SEED_ENV_VAR}"
        try:
            seed = int(seed)
        except ValueError:
            pass  # rejected below with the text as given
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ParameterError(f"{source} must be a non-negative integer, got {seed!r}")
    return seed


class _Parser(argparse.ArgumentParser):
    """A usage error is a schema error: one line on stderr and exit 2."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, tuple]]]:
    """The argument parser, and per subcommand each option's (default,
    ``Action``, whether it takes a list).

    Every option parses to None when absent; :func:`resolve_options` fills
    it from the config file, else from its default, so explicit flags win.
    """
    parser = _Parser(
        prog="mobility-esda",
        description="Mobility-report ingestion, circulation indicator, and spatial autocorrelation analysis.",
    )
    parser.add_argument("--config", help="TOML/JSON config file; CLI flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults: dict[str, dict[str, tuple]] = {}

    def command(name: str, help: str):
        p = sub.add_parser(name, help=help)
        own = defaults[name] = {}

        def option(*flags, default=None, required=False, **kw):
            action = p.add_argument(*flags, default=None, **kw)
            many = kw.get("action") == "append" or action.nargs not in (None, 0)
            own[action.dest] = (REQUIRED if required else default, action, many)

        option("--out-dir", default="out", help="output directory")
        return option

    def contiguity(option):
        """The flags :func:`_contiguity_weights` reads, shared by ``moran`` and ``weights``."""
        option("--contiguity", choices=["queen", "rook"], default="queen")
        option("--snap-tol", type=float, default=1e-7)
        option("--island-knn", type=int, default=0,
               help="attach islands to their k nearest centroids (0 = leave islands)")

    option = command("ingest", "parse, validate and impute a mobility CSV")
    option("--input", required=True, help="mobility CSV path")
    option("--country", help="restrict to one country code")
    option("--column-map", nargs="*", default=[], metavar="KEY=HEADER")
    option("--lenient", action="store_true", default=False, help="skip bad rows instead of aborting")

    option = command("indicator", "daily circulation indicator per region")
    option("--input", required=True)
    option("--country", help="country code; with --subnational expands to all sub-regions")
    option("--region", action="append", default=[], help="explicit region id (repeatable)")
    option("--subnational", action="store_true", default=False)
    option("--from", dest="date_from", default=DEFAULT_ANALYSIS_WINDOW[0].isoformat())
    option("--to", dest="date_to", default=DEFAULT_ANALYSIS_WINDOW[1].isoformat())
    option("--center", type=float, default=-100.0, help="radar chart center value C")
    option("--axis-order", nargs=6, default=list(CATEGORIES), metavar="CAT")
    option("--deseasonalize", action="store_true", default=False)
    option("--period", type=int, default=7)
    option("--seasonal-window", type=int, default=7)
    option("--robust", action="store_true", default=False,
           help="robustness iterations in the decomposition")
    option("--trend-only", action="store_true", default=False,
           help="plot the smooth trend instead of trend+residual")

    option = command("moran", "global and local Moran analysis per category")
    option("--input", required=True)
    option("--geometry", required=True, help="GeoJSON FeatureCollection")
    option("--country", required=True)
    option("--id-property", default="region_id", help="feature property holding the sub-region name")
    option("--from", dest="date_from", default=DEFAULT_ANALYSIS_WINDOW[0].isoformat())
    option("--to", dest="date_to", default=DEFAULT_ANALYSIS_WINDOW[1].isoformat())
    contiguity(option)
    option("--permutations", type=int, default=999)
    option("--alpha", type=float, default=0.05)
    option("--categories", nargs="+", default=list(CATEGORIES))
    option("--seed", type=int, help=f"RNG seed (fallback: ${SEED_ENV_VAR}, then 0)")

    option = command("weights", "build and export contiguity weights")
    option("--geometry", required=True)
    option("--id-property", default="region_id")
    contiguity(option)
    option("--row-standardize", action="store_true", default=False)

    option = command("render", "choropleth of a per-region values CSV")
    option("--geometry", required=True)
    option("--id-property", default="region_id")
    option("--values", required=True, help="CSV with region_id,value columns")
    option("--title", default="")
    return parser, defaults


def _config_value(key: str, value, action: argparse.Action, many: bool):
    """A config value checked as the option's flag would be: a flag takes
    true or false, a list option a list (of ``nargs`` items if that is a
    number, of at least one if it is ``+``), and every other value, or
    list item, is a string, number or date read as the flag's text through
    the option's type and choices."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
    elif many:
        counts = ("*", "+", None) if value else ("*", None)
        if isinstance(value, list) and action.nargs in (*counts, len(value)):
            return [_config_value(key, item, action, many=False) for item in value]
    elif isinstance(value, (str, int, float, dt.date)) and not isinstance(value, bool):
        try:
            parsed = (action.type or str)(str(value))
        except ValueError:
            pass
        else:
            if action.choices is None or parsed in action.choices:
                return parsed
    raise ParameterError(f"config {key}: {value!r} is not a valid {action.option_strings[0]} value")


def resolve_options(args, defaults: dict[str, tuple], config: dict) -> None:
    """Fill each option the command line left unset from ``config``, else its default."""
    config = {k.replace("-", "_"): v for k, v in config.items()}
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ParameterError(f"config keys not defined for {args.command}: {unknown}")
    for dest, (default, action, many) in defaults.items():
        if getattr(args, dest) is not None:
            continue
        if dest in config:
            setattr(args, dest, _config_value(dest, config[dest], action, many))
        elif default is REQUIRED:
            raise ParameterError(f"--{dest.replace('_', '-')} is required")
        else:
            setattr(args, dest, default)


def cmd_ingest(args) -> dict[str, str]:
    column_map = _parse_column_map(args.column_map)
    with open(args.input, "rb") as fh:
        table = ing.parse_cmr_csv(
            fh,
            column_map=column_map or None,
            strict=not args.lenient,
            country=args.country or None,
        )
    table, report = ing.impute_missing(table)
    return {
        "mobility-normalized.csv": ing.write_csv(table),
        "imputation-report.json": report.to_json(),
        "run-manifest.json": manifest(args, issues=table.issues, column_map=column_map),
    }


def _select_regions(table, args) -> list[str]:
    regions = list(args.region)
    if args.country:
        if args.subnational:
            subregions = ing.subregion_ids(table, args.country)
            if not subregions:
                raise DataError(
                    f"country {args.country!r} has no sub-regions; drop --subnational to use its national rows"
                )
            regions += subregions
        else:
            regions.append(ing.region_key(args.country))
    if not regions:
        raise ParameterError("select regions with --region or --country")
    return list(dict.fromkeys(regions))  # each region once, in first-seen order


def cmd_indicator(args) -> dict[str, str]:
    if (args.robust or args.trend_only) and not args.deseasonalize:
        raise ParameterError("--robust and --trend-only need --deseasonalize")
    window = _window(args)
    # imputation is per country: parsing only the one selected country changes no value
    countries = {key.partition("/")[0] for key in [*args.region, args.country] if key}
    only = countries.pop() if len(countries) == 1 else None
    with open(args.input, "rb") as fh:
        table = ing.parse_cmr_csv(fh, country=only)
    table, _ = ing.impute_missing(table)
    config = RadarConfig(center=args.center, axis_order=tuple(args.axis_order))
    regions = _select_regions(table, args)
    panel = circulation_indicator(table, regions, config, window)
    radars: dict[str, str] = {}  # radar file name -> region id, in region order
    for rid in regions:
        name = f"radar-{rid.replace('/', '_').strip('_') or 'national'}.svg"
        if "\0" in name or len(name.encode()) > 255:  # no file system holds such a name
            raise DataError(f"region {rid!r} cannot name a radar file: it holds NUL or is over 255 bytes")
        if radars.setdefault(name, rid) != rid:
            raise DataError(f"regions {radars[name]!r} and {rid!r} would both be drawn to {name}")
    header = "region_id,date,area,indicator"
    columns = [panel.areas, panel.indicators]
    if args.deseasonalize:
        fit = stl_decompose(panel.indicators, args.period, args.seasonal_window,
                            outer_iters=1 if args.robust else 0)
        columns.append(fit.trend if args.trend_only else panel.indicators - fit.seasonal)
        header += ",indicator_deseasonalized"
    # one row per region and day, region-major as each (regions, days) column ravels
    ids = [field for field in map(ing.csv_field, regions) for _ in panel.dates]
    dates = [date.isoformat() for date in panel.dates] * len(regions)
    row = "%s,%s" + ",%.15g" * len(columns)  # %.15g writes what format(v, ".15g") does
    rows = [row % cells for cells in zip(ids, dates, *(column.ravel().tolist() for column in columns))]
    files = {name: rd.render_radar(means, config) for name, means in zip(radars, panel.window_means)}
    files["circulation.csv"] = "\n".join([header, *rows]) + "\n"
    # the overlay draws the last column: the deseasonalized indicator if there is one
    overlay = rd.render_series(regions, columns[-1], "Circulation indicator")
    files["indicator-overlay.svg"] = overlay
    files["run-manifest.json"] = manifest(
        args,
        omit=("country", "region", "subnational"),
        regions=sorted(regions),
        window=window,
    )
    return files


def _reconcile_ids(geom_ids: list[str], data_ids: list[str]) -> None:
    missing_geo = sorted(set(data_ids) - set(geom_ids))
    missing_dat = sorted(set(geom_ids) - set(data_ids))
    if missing_geo or missing_dat:
        lines = ["geometry/mobility region ids do not match:"]
        for rid in missing_geo:
            lines.append(f"  in mobility only: {rid}")
        for rid in missing_dat:
            lines.append(f"  in geometry only: {rid}")
        raise IdMismatchError("\n".join(lines))


def _contiguity_weights(
    args, geoms, row_standardize: bool, links_required: bool = False
) -> wt.SpatialWeights:
    """``--contiguity`` weights, islands linked per ``--island-knn``; with
    ``links_required``, an error unless some two regions link."""
    build = wt.queen_adjacency if args.contiguity == "queen" else wt.rook_adjacency
    W = build(geoms, snap_tol=args.snap_tol)
    if args.island_knn != 0:
        W = wt.connect_islands_knn(W, geoms, args.island_knn)
    if links_required and W.s0 == 0:
        raise DataError("no two regions touch; link them with --island-knn K (K nearest centroids)")
    return wt.row_standardize(W) if row_standardize else W


def _weights_files(W: wt.SpatialWeights) -> dict[str, str]:
    return {"weights.txt": wt.to_text(W), "weights.json": wt.to_json(W)}


def cmd_moran(args) -> dict[str, str]:
    seed = _resolve_seed(args)
    window = _window(args)
    with open(args.input, "rb") as fh:
        table = ing.parse_cmr_csv(fh, country=args.country)
    table, _ = ing.impute_missing(table)
    geojson_doc = _read_json(args.geometry)
    geoms = load_geojson(geojson_doc, id_property=args.id_property)

    # geometry ids carry the sub-region name; align against mobility keys
    geom_region_ids = [ing.region_key(args.country, g.region_id) for g in geoms]
    _reconcile_ids(geom_region_ids, ing.subregion_ids(table, args.country))
    means = table.panel(geom_region_ids, window)[2]  # the means only: the block is freed here
    del table  # released before contiguity and the draws, so their peak memory does not hold it
    fields = {}
    for category in args.categories:
        try:
            fields[category] = mr.ValueField(means[:, ing.category_index(category)])
        except ZeroVarianceError:
            raise ZeroVarianceError(
                f"{category}: identical mean variation in every region; Moran undefined"
            ) from None
        except DataError as exc:
            raise DataError(f"{category}: {exc}") from None

    W = _contiguity_weights(args, geoms, row_standardize=True, links_required=True)

    # one set of draws for all categories: each equals a run on it alone
    group = list(fields.values())
    results = mr.moran_permutation(group, W, permutations=args.permutations, seed=seed)
    p_locals = mr.lisa_permutation(group, W, permutations=args.permutations, seed=seed)
    paths = rd.map_paths(geoms)  # one projection serves every map of every category
    files = {}
    for (category, field), result, p_local in zip(fields.items(), results, p_locals):
        x = field.x
        lisa = mr.lisa_classify(field, W, p_local, alpha=args.alpha)
        local_i = lisa.local_i
        cat_dir = f"{category}/"
        record = asdict(result)
        record["expected_I"] = record.pop("expected")
        record |= {"category": category, "seed": seed, "sided": "one_sided_folded",
                   "significant": result.pseudo_p <= args.alpha}
        files[cat_dir + "global.json"] = json.dumps(record, indent=2, sort_keys=True) + "\n"
        files[cat_dir + "scatter.svg"] = rd.render_moran_scatter(lisa, f"Moran scatter: {category}")
        files[cat_dir + "lisa.csv"] = rd.lisa_to_csv(lisa)
        files[cat_dir + "lisa-clusters.svg"], files[cat_dir + "lisa-significance.svg"] = (
            rd.render_lisa_maps(paths, lisa, (f"LISA clusters: {category}", f"LISA significance: {category}"))
        )
        files[cat_dir + "mean-variation.svg"] = rd.render_choropleth(
            paths,
            {rid: float(v) for rid, v in zip(W.ids, x)},
            f"Mean variation: {category}",
        )
        files[cat_dir + "mean-variation.geojson"] = rd.join_geojson(
            geojson_doc,
            {
                rid: {
                    "mean_variation": float(x[i]),
                    "local_i": float(local_i[i]),
                    "pseudo_p": float(lisa.pseudo_p[i]),
                    "quadrant": lisa.labels[i],
                }
                for i, rid in enumerate(W.ids)
            },
            id_property=args.id_property,
        )
    files |= _weights_files(W)
    files["run-manifest.json"] = manifest(args, seed=seed, window=window)
    return files


def cmd_weights(args) -> dict[str, str]:
    geoms = load_geojson(_read_json(args.geometry), id_property=args.id_property)
    W = _contiguity_weights(args, geoms, row_standardize=args.row_standardize)
    return _weights_files(W) | {"run-manifest.json": manifest(args)}


def _values_lines(data: bytes):
    """The values CSV's lines, read as the mobility CSV's are."""
    try:
        yield from ing.TextLines(data)
    except SchemaError as exc:  # a byte that is not UTF-8, by its line
        raise SchemaError(f"values CSV: {exc}") from None


def cmd_render(args) -> dict[str, str]:
    geoms = load_geojson(_read_json(args.geometry), id_property=args.id_property)
    values: dict[str, float | None] = {}
    reader = csv.DictReader(_values_lines(Path(args.values).read_bytes()))
    try:
        if not {"region_id", "value"} <= set(reader.fieldnames or ()):
            raise SchemaError("values CSV needs region_id and value columns")
        for row in reader:
            if row["region_id"] in values:
                raise DataError(f"values CSV: region id {row['region_id']!r} appears more than once")
            try:
                value = float(row["value"]) if row["value"] else None
            except ValueError:
                raise DataError(f"values CSV: non-numeric value {row['value']!r}") from None
            if value is not None and not np.isfinite(value):
                raise DataError(
                    f"values CSV: non-finite value {row['value']!r} for region {row['region_id']!r}"
                )
            values[row["region_id"]] = value
    except csv.Error as exc:  # the DictReader's own line_num stops at the last good row
        raise SchemaError(f"values CSV: line {reader.reader.line_num}: malformed CSV: {exc}") from None
    present = [v for v in values.values() if v is not None]
    if not present:
        raise DataError("values CSV contains no numeric values")
    return {
        "choropleth.svg": rd.render_choropleth(rd.map_paths(geoms), values, args.title),
        "run-manifest.json": manifest(args),
    }


COMMANDS = {
    "ingest": cmd_ingest,
    "indicator": cmd_indicator,
    "moran": cmd_moran,
    "weights": cmd_weights,
    "render": cmd_render,
}


def main(argv=None) -> int:
    parser, defaults = build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
        if argv is None:  # a caller's own list is text already
            _decode_argv(args)
        config = _load_config_file(args.config) if args.config else {}
        resolve_options(args, defaults[args.command], config)
        files = COMMANDS[args.command](args)
        # nothing is written until every stage has succeeded; the manifest comes last.
        # Each file, its name too, is encoded as UTF-8, whatever the locale, as every
        # input is read, and its text is freed as its bytes are made
        out_dir, paths = Path(args.out_dir), {}
        for name in list(files):
            try:
                paths[out_dir / os.fsdecode(name.encode("utf-8"))] = files.pop(name).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise SchemaError(f"{name}: {exc.object[exc.start:exc.end]!r} is not UTF-8 text") from None
        for folder in dict.fromkeys(path.parent for path in paths):
            folder.mkdir(parents=True, exist_ok=True)
        for path, data in paths.items():
            atomic_write(path, data)
        return EXIT_OK
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except IdMismatchError as exc:
        print(f"id mismatch: {exc}", file=sys.stderr)
        return EXIT_ID_MISMATCH
    except (MobilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
