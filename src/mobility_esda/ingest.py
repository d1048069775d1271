"""Parsing, row selection, and mean imputation of mobility-report CSV data.

The input format is the Google community mobility report layout: one row
per (region, date) with six percent-change-from-baseline columns. Empty
cells are genuinely missing values (suppressed below significance
thresholds), never zeros.

A :class:`MobilityTable` keeps the rows as columns, sorted by
(region_id, date), so each region is one contiguous slice of every column.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import io
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, NotFoundError, SchemaError

CATEGORIES = (
    "retail_recreation",
    "grocery_pharmacy",
    "parks",
    "transit_stations",
    "workplaces",
    "residential",
)

DEFAULT_COLUMNS = {
    "country_code": "country_region_code",
    "sub_region": "sub_region_1",
    "date": "date",
    "retail_recreation": "retail_and_recreation_percent_change_from_baseline",
    "grocery_pharmacy": "grocery_and_pharmacy_percent_change_from_baseline",
    "parks": "parks_percent_change_from_baseline",
    "transit_stations": "transit_stations_percent_change_from_baseline",
    "workplaces": "workplaces_percent_change_from_baseline",
    "residential": "residential_percent_change_from_baseline",
}

# finer levels of the published report; a row with a value in one of these
# columns is a county or metro row, not a sub_region_1-level row
FINER_LEVEL_COLUMNS = ("sub_region_2", "metro_area")

def region_key(country_code: str, sub_region: str = "") -> str:
    """Stable region identifier: ``country_code + "/" + sub_region``.

    National rows carry an empty sub-region, e.g. ``"BR/"``.
    """
    return f"{country_code}/{sub_region}"


@dataclass
class MobilityTable:
    """Mobility rows as columns, sorted by (region_id, date).

    ``region_ids`` are sorted and unique, with each region's country code
    and sub-region alongside. Per row, ``region`` indexes ``region_ids``,
    ``dates`` holds the date ordinal and ``values`` the six categories in
    ``CATEGORIES`` order, NaN where missing. Region ``k`` owns rows
    ``offsets[k]:offsets[k + 1]``.
    """

    region_ids: tuple[str, ...]
    country_codes: tuple[str, ...]
    sub_regions: tuple[str, ...]
    region: np.ndarray
    dates: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    issues: list[str] = field(default_factory=list)

    @classmethod
    def from_rows(cls, rows, issues=()) -> MobilityTable:
        """Sort and validate rows of (country_code, sub_region, date ordinal, six values).

        Duplicate (region, date) pairs are errors; date gaps are reported
        in ``issues``.
        """
        rows = list(rows)
        keys = [region_key(country, sub) for country, sub, _, _ in rows]
        hierarchy = dict(zip(keys, (row[:2] for row in rows)))
        region_ids = sorted(hierarchy)
        index = {rid: k for k, rid in enumerate(region_ids)}
        region = np.array([index[key] for key in keys], dtype=np.intp)
        dates = np.array([row[2] for row in rows], dtype=np.int64)
        order = np.lexsort((dates, region))
        region = region[order]
        table = cls(
            tuple(region_ids),
            tuple(hierarchy[rid][0] for rid in region_ids),
            tuple(hierarchy[rid][1] for rid in region_ids),
            region,
            dates[order],
            np.array([row[3] for row in rows], dtype=float).reshape(-1, len(CATEGORIES))[order],
            np.searchsorted(region, np.arange(len(region_ids) + 1)),
            list(issues),
        )
        table._validate()
        return table

    def _validate(self) -> None:
        same_region = self.region[1:] == self.region[:-1]
        step = np.diff(self.dates)
        duplicate = np.flatnonzero(same_region & (step == 0))
        if duplicate.size:
            i = duplicate[0] + 1
            key = (self.region_ids[self.region[i]], _date(self.dates[i]))
            raise DataError(f"duplicate (region, date) pair: {key}")
        # gaps are reported, not fatal: a region's dates must be contiguous
        for i in np.flatnonzero(same_region & (step != 1)):
            self.issues.append(
                f"gap in {self.region_ids[self.region[i]]}: "
                f"{_date(self.dates[i])} .. {_date(self.dates[i + 1])}"
            )

    @property
    def coverage(self) -> tuple[dt.date, dt.date] | None:
        return (_date(self.dates.min()), _date(self.dates.max())) if len(self.dates) else None

    def rows(self, region_id: str, window: tuple[dt.date, dt.date] | None = None) -> slice:
        """Row slice of one region (empty if absent), clipped to an inclusive window."""
        k = bisect.bisect_left(self.region_ids, region_id)
        if k == len(self.region_ids) or self.region_ids[k] != region_id:
            return slice(0, 0)
        start, stop = int(self.offsets[k]), int(self.offsets[k + 1])
        if window is not None:
            dates = self.dates[start:stop]
            lo = np.searchsorted(dates, window[0].toordinal(), side="left")
            hi = np.searchsorted(dates, window[1].toordinal(), side="right")
            start, stop = start + int(lo), start + int(hi)
        return slice(start, stop)

    def column(self, category: str) -> np.ndarray:
        """One category's values for every row (a view into ``values``)."""
        if category not in CATEGORIES:
            raise NotFoundError(f"unknown category {category!r}; available: {list(CATEGORIES)}")
        return self.values[:, CATEGORIES.index(category)]

    def date_list(self, rows: slice = slice(None)) -> list[dt.date]:
        return [dt.date.fromordinal(d) for d in self.dates[rows].tolist()]

    def _subset(self, regions: list[int]) -> MobilityTable:
        """The rows of the given regions, which are in ascending order."""
        keep = np.isin(self.region, regions)
        counts = np.diff(self.offsets)[regions]
        return MobilityTable(
            tuple(self.region_ids[k] for k in regions),
            tuple(self.country_codes[k] for k in regions),
            tuple(self.sub_regions[k] for k in regions),
            np.repeat(np.arange(len(regions)), counts),
            self.dates[keep],
            self.values[keep],
            np.concatenate(([0], np.cumsum(counts))),
            list(self.issues),
        )


def _date(ordinal) -> dt.date:
    return dt.date.fromordinal(int(ordinal))


@dataclass
class ImputationEntry:
    country_code: str
    category: str
    missing_count: int
    total_count: int
    fill_value: float | None

    @property
    def missing_rate(self) -> float:
        return self.missing_count / self.total_count if self.total_count else 0.0


@dataclass
class ImputationReport:
    entries: list[ImputationEntry]

    def entry(self, country_code: str, category: str) -> ImputationEntry:
        for e in self.entries:
            if e.country_code == country_code and e.category == category:
                return e
        raise NotFoundError(f"no imputation entry for ({country_code}, {category})")

    def to_json(self) -> str:
        payload = [
            {
                "country_code": e.country_code,
                "category": e.category,
                "missing_count": e.missing_count,
                "total_count": e.total_count,
                "missing_rate": e.missing_rate,
                "fill_value": e.fill_value,
            }
            for e in self.entries
        ]
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _as_text(source) -> str:
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"input is not UTF-8 text: {exc}") from None
    if not isinstance(data, str):
        raise TypeError(f"unsupported source type: {type(source)!r}")
    return data.removeprefix("\ufeff")


def parse_cmr_csv(
    source,
    column_map: dict[str, str] | None = None,
    strict: bool = True,
) -> MobilityTable:
    """Parse a community-mobility CSV into a :class:`MobilityTable`.

    ``column_map`` maps logical names (keys of ``DEFAULT_COLUMNS``) to
    actual header names. Empty cells become NaN; non-finite cells and
    values below -100 are errors. In strict mode any bad row aborts the
    parse; in lenient mode bad rows are skipped and reported in
    ``table.issues``. A duplicate (region, date) pair is an error in both
    modes, since neither row can be chosen over the other. Rows below the
    sub_region_1 level (see ``FINER_LEVEL_COLUMNS``) are always skipped
    and counted in one ``issues`` line.
    """
    columns = dict(DEFAULT_COLUMNS)
    if column_map:
        unknown = set(column_map) - set(columns)
        if unknown:
            raise SchemaError(f"unknown column-map keys: {sorted(unknown)}")
        columns.update(column_map)

    reader = csv.reader(io.StringIO(_as_text(source)))
    lineno = 1
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty input: no header row")
        # a repeated header name refers to its last column
        position = {name: i for i, name in enumerate(header)}
        missing_cols = [v for v in columns.values() if v not in position]
        if missing_cols:
            raise SchemaError(f"missing columns: {missing_cols}")
        wanted = [position[columns[k]] for k in ("country_code", "sub_region", "date", *CATEGORIES)]
        finer = [position[c] for c in FINER_LEVEL_COLUMNS if c in position]
        rows, issues, finer_rows = [], [], 0
        for row in reader:
            if not row:
                continue
            lineno += 1
            cells = [row[i].strip() if i < len(row) else "" for i in wanted + finer]
            if any(cells[len(wanted):]):
                finer_rows += 1
                continue
            try:
                rows.append(_parse_row(cells[: len(wanted)], lineno))
            except DataError as exc:
                if strict:
                    raise
                issues.append(str(exc))
    except csv.Error as exc:
        raise SchemaError(f"line {lineno}: malformed CSV: {exc}") from None
    if finer_rows:
        issues.append(
            f"skipped {finer_rows} rows below the sub_region_1 level "
            f"({'/'.join(FINER_LEVEL_COLUMNS)} set)"
        )
    return MobilityTable.from_rows(rows, issues)


def _parse_row(cells: list[str], lineno: int) -> tuple[str, str, int, list[float]]:
    country, sub_region, raw_date, *raw = cells
    try:
        date = dt.date.fromisoformat(raw_date).toordinal()
    except ValueError:
        raise DataError(f"line {lineno}: unparseable date {raw_date!r}") from None
    if not country:
        raise DataError(f"line {lineno}: empty country code")
    values = []
    for cat, cell in zip(CATEGORIES, raw):
        if cell == "":
            values.append(math.nan)
            continue
        try:
            v = float(cell)
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric {cat} cell {cell!r}") from None
        if not math.isfinite(v):
            raise DataError(f"line {lineno}: non-finite {cat} cell {cell!r}")
        if v < -100:
            raise DataError(f"line {lineno}: {cat} value {v} below -100")
        values.append(v)
    return country, sub_region, date, values


def select(
    table: MobilityTable, country_code: str, sub_region: str | None = None, subnational: bool = False
) -> MobilityTable:
    """Rows of one country.

    By default every row of the country is kept. ``sub_region`` keeps one
    sub-region (``""`` is the national series); ``subnational=True`` keeps
    every sub-region and drops the national rows.
    """
    countries = sorted(set(table.country_codes))
    if country_code not in countries:
        raise NotFoundError(f"unknown country {country_code!r}; available: {countries}")
    subs = [(k, sub) for k, (c, sub) in enumerate(zip(table.country_codes, table.sub_regions))
            if c == country_code]
    keep = [k for k, sub in subs if (sub != "" if subnational else sub_region in (None, sub))]
    if sub_region and not keep:
        avail = sorted(sub for _, sub in subs if sub)
        raise NotFoundError(f"unknown sub-region {sub_region!r} in {country_code}; available: {avail}")
    return table._subset(keep)


def impute_missing(table: MobilityTable) -> tuple[MobilityTable, ImputationReport]:
    """Single mean imputation per (country, category) over the full table.

    Every absent cell is replaced by the arithmetic mean of all present
    values for the same country and category. A pair with missing cells
    but no present values at all is unimputable.
    """
    countries = {c: j for j, c in enumerate(dict.fromkeys(table.country_codes))}
    row_country = np.array([countries[c] for c in table.country_codes], dtype=np.intp)[table.region]
    absent = np.isnan(table.values)
    fills = np.empty((len(countries), len(CATEGORIES)))
    entries = []
    for country, j in countries.items():
        rows = row_country == j
        total = int(rows.sum())
        missing = absent[rows].sum(axis=0)
        # summed down the rows in table order
        sums = np.where(absent[rows], 0.0, table.values[rows]).sum(axis=0)
        for k, cat in enumerate(CATEGORIES):
            present = total - int(missing[k])
            if not present:
                raise DataError(f"cannot impute ({country}, {cat}): every value is missing")
            fills[j, k] = float(sums[k]) / present
            entries.append(ImputationEntry(country, cat, int(missing[k]), total, float(fills[j, k])))
    entries.sort(key=lambda e: (e.country_code, e.category))
    filled = np.where(absent, fills[row_country], table.values)
    return replace(table, values=filled, issues=list(table.issues)), ImputationReport(entries)


def write_csv(table: MobilityTable) -> str:
    """Serialize to normalized CSV (default headers, canonical row order)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [DEFAULT_COLUMNS[k] for k in ("country_code", "sub_region", "date", *CATEGORIES)]
    writer.writerow(header)
    for r, date, values in zip(table.region.tolist(), table.date_list(), table.values.tolist()):
        row = [table.country_codes[r], table.sub_regions[r], date.isoformat()]
        row += ["" if math.isnan(v) else f"{v:.15g}" for v in values]
        writer.writerow(row)
    return buf.getvalue()
