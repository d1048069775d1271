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
import contextlib
import csv
import datetime as dt
import io
import itertools
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

    National rows carry an empty sub-region, e.g. ``"BR/"``. The parse
    rejects a country code containing ``"/"``, so no two pairs share a key.
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
    def from_columns(cls, pairs, region, dates, values, issues=()) -> MobilityTable:
        """Sort and validate rows given as columns.

        ``region`` indexes ``pairs`` of (country_code, sub_region); pairs no
        row refers to are left out. Duplicate (region, date) pairs are
        errors; date gaps are reported in ``issues``.
        """
        used = np.flatnonzero(np.bincount(region, minlength=len(pairs))).tolist()
        hierarchy = {region_key(*pairs[k]): pairs[k] for k in used}
        region_ids = sorted(hierarchy)
        index = {rid: k for k, rid in enumerate(region_ids)}
        rank = np.zeros(len(pairs), dtype=np.intp)
        rank[used] = [index[region_key(*pairs[k])] for k in used]
        region = rank[region]
        order = np.lexsort((dates, region))
        region = region[order]
        table = cls(
            tuple(region_ids),
            tuple(hierarchy[rid][0] for rid in region_ids),
            tuple(hierarchy[rid][1] for rid in region_ids),
            region,
            dates[order],
            values[order],
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

    def panel(self, region_ids: list[str], window: tuple[dt.date, dt.date] | None = None):
        """The shared dates, (regions, days, 6) values and (regions, 6) window means
        of the regions in the given order; each must cover the inclusive ``window``
        (without one, all share their dates) and be complete there, checked first."""
        rows = [self.rows(rid, window) for rid in region_ids]
        expected = None if window is None else (window[1] - window[0]).days + 1
        for rid, r in zip(region_ids, rows):
            if r.stop <= r.start:
                raise DataError(f"no data for region {rid!r} in requested window")
            if window is not None and r.stop - r.start != expected:
                raise DataError(f"region {rid!r} covers {r.stop - r.start} of {expected} days "
                                f"in {window[0]}..{window[1]}")
        days = rows[0].stop - rows[0].start
        index = np.array([r.start for r in rows])[:, None] + np.arange(days)
        if any(r.stop - r.start != days for r in rows) or (self.dates[index] != self.dates[rows[0]]).any():
            raise DataError("regions cover different dates; give a window")
        # gathered once, category-major: each mean sums along a contiguous
        # last axis, as one region's column mean does, bit for bit
        block = self.values.T.take(index, axis=1)  # (6, regions, days)
        dates = self.date_list(rows[0])
        absent = np.isnan(block)
        if absent.any():
            k, d = np.argwhere(absent.any(axis=0))[0]
            missing = [cat for cat, gone in zip(CATEGORIES, absent[:, k, d]) if gone]
            raise DataError(f"{region_ids[k]} {dates[d]}: missing {missing}; impute first")
        return dates, block.transpose(1, 2, 0), block.mean(axis=2).T

    def column(self, category: str) -> np.ndarray:
        """One category's values for every row (a view into ``values``)."""
        return self.values[:, category_index(category)]

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


def category_index(category: str) -> int:
    if category not in CATEGORIES:
        raise NotFoundError(f"unknown category {category!r}; available: {list(CATEGORIES)}")
    return CATEGORIES.index(category)


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


# records read and converted at a time: enough to amortize the per-chunk
# numpy calls, few enough that a chunk's cell strings stay small (on 400
# regions x 92 days, 1,024 parsed about as fast as 2,048 and 15% faster
# than 8,192, with half the peak memory)
CHUNK_ROWS = 1024

# region codes of a row of a country filtered out, and of a row whose country
# code is empty or contains the "/" of region_key
_DROPPED, _NO_COUNTRY = -2, -1


@contextlib.contextmanager
def _text_lines(source):
    """``source`` (bytes, str, or a binary or text file) as an iterator of text lines.

    Bytes are decoded as UTF-8 while they are read, and a byte-order mark is
    dropped; line ends are left to the CSV reader. A file passed in stays open.
    """
    wrapper = None
    if isinstance(source, str):
        stream = io.StringIO(source, newline="")
    elif isinstance(source, io.TextIOBase):
        stream = source
    elif isinstance(source, (bytes, bytearray)) or hasattr(source, "read"):
        binary = io.BytesIO(source) if isinstance(source, (bytes, bytearray)) else source
        stream = wrapper = io.TextIOWrapper(binary, encoding="utf-8-sig", newline="")
    else:
        raise TypeError(f"unsupported source type: {type(source)!r}")
    try:
        first = next(stream, "")
        yield itertools.chain((first.removeprefix("\ufeff"),), stream)
    finally:
        if wrapper is not None:
            wrapper.detach()  # closing the wrapper would close the caller's file


def _chunks(reader):
    """The records ``reader`` has left, up to ``CHUNK_ROWS`` at a time, with
    the physical line each ends on."""
    start = reader.line_num
    while records := list(itertools.islice(reader, CHUNK_ROWS)):
        stop = reader.line_num
        if stop - start == len(records):
            ends = range(start + 1, stop + 1)
        else:
            # a quoted cell spans lines: a record ends one line, plus the line
            # breaks its cells hold, after the one before it; the last ends
            # where the reader is (a quote left open at the end of the input
            # also holds the last line's break)
            spans = (1 + sum(map(_line_breaks, row)) for row in records)
            ends = list(itertools.accumulate(spans, initial=start))[1:]
            ends[-1] = stop
        start = stop
        yield records, ends
        del records  # freed before the next chunk is read


def _line_breaks(cell: str) -> int:
    return cell.count("\n") + cell.count("\r") - cell.count("\r\n")


def _ordinal(text: str) -> int:
    """Date ordinal of an ISO date cell; 0, which no date has, if it does not parse."""
    try:
        return dt.date.fromisoformat(text.strip()).toordinal()
    except ValueError:
        return 0


def _floats(cells) -> list[float]:
    """Cells as floats, NaN where blank and inf where not a number."""
    try:
        return [float(c) if c else math.nan for c in cells]
    except ValueError:
        return list(map(_float_or_inf, cells))


def _float_or_inf(cell: str) -> float:
    try:
        return float(cell) if cell.strip() else math.nan
    except ValueError:
        return math.inf


class _Columns:
    """The rows kept so far, as arrays per chunk, and the lookups that
    converting the chunks has built."""

    def __init__(self, wanted: list[int], finer: list[int], strict: bool, country: str | None):
        self.wanted = wanted  # columns of the country, sub-region, date and CATEGORIES
        self.finer = finer  # columns of FINER_LEVEL_COLUMNS in the header
        self.width = max(wanted + finer) + 1
        self.strict, self.country = strict, country
        self.pairs: dict[tuple[str, str], int] = {}  # (country, sub-region) -> region index
        self.codes: dict[tuple[str, str], int] = {}  # raw cells -> region index or code
        self.ordinals: dict[str, int] = {}  # raw date cell -> ordinal, 0 if unparseable
        self.countries: set[str] = set()
        self.issues: list[str] = []
        self.finer_rows = 0
        # per chunk: region index, date ordinal and values of the rows kept
        self.parts = [(np.empty(0, np.intp), np.empty(0, np.int64), np.empty((0, len(CATEGORIES))))]

    def add(self, records: list[list[str]], ends) -> None:
        """Convert one chunk of records; ``ends`` are their line numbers."""
        if not all(records):  # blank lines
            ends = [end for row, end in zip(records, ends) if row]
            records = [row for row in records if row]
            if not records:
                return
        if min(map(len, records)) < self.width:
            records = [row + [""] * (self.width - len(row)) for row in records]
        columns = list(zip(*records))
        n = len(records)
        raw = columns[self.wanted[0]], columns[self.wanted[1]]
        # new cell pairs in first-seen order, so that no table depends on string hashing
        for key in [key for key in dict.fromkeys(zip(*raw)) if key not in self.codes]:
            country, sub = key[0].strip(), key[1].strip()
            self.countries.add(country)
            if self.country is not None and country != self.country:
                self.codes[key] = _DROPPED
            elif not country or "/" in country:
                self.codes[key] = _NO_COUNTRY
            else:
                self.codes[key] = self.pairs.setdefault((country, sub), len(self.pairs))
        region = np.fromiter(map(self.codes.__getitem__, zip(*raw)), np.intp, n)
        keep = region != _DROPPED
        deeper = np.zeros(n, dtype=bool)
        for i in self.finer:
            if any(columns[i]):
                deeper |= np.fromiter(map(bool, map(str.strip, columns[i])), bool, n)
        self.finer_rows += int((deeper & keep).sum())
        keep &= ~deeper
        rows = np.flatnonzero(keep).tolist()
        if not rows:
            return
        cells = [columns[i] for i in self.wanted[2:]]
        if len(rows) < n:
            cells = [[col[j] for j in rows] for col in cells]
            region = region[rows]
        for text in set(cells[0]).difference(self.ordinals):
            self.ordinals[text] = _ordinal(text)
        dates = np.fromiter(map(self.ordinals.__getitem__, cells[0]), np.int64, len(rows))
        values = np.column_stack([_floats(col) for col in cells[1:]])

        # rows that may be bad: _parse_row decides, and words the message
        suspect = (region == _NO_COUNTRY) | (dates == 0)
        suspect |= (np.isinf(values) | (values < -100)).any(axis=1)
        at, cat = np.nonzero(np.isnan(values))
        for r, k in zip(at.tolist(), cat.tolist()):
            suspect[r] |= cells[k + 1][r] != ""  # NaN from a "nan" cell
        bad = []
        for r in np.flatnonzero(suspect).tolist():
            j = rows[r]
            try:
                _parse_row([columns[i][j].strip() for i in self.wanted], ends[j])
            except DataError as exc:
                if self.strict:
                    raise
                self.issues.append(str(exc))
                bad.append(r)
        self.parts.append(tuple(np.delete(a, bad, axis=0) for a in (region, dates, values)))

    def table(self) -> MobilityTable:
        if self.finer_rows:
            self.issues.append(
                f"skipped {self.finer_rows} rows below the sub_region_1 level "
                f"({'/'.join(FINER_LEVEL_COLUMNS)} set)"
            )
        region, dates, values = (np.concatenate(column) for column in zip(*self.parts))
        if self.country is not None and not region.size:
            available = sorted(c for c in self.countries if c and "/" not in c)
            raise NotFoundError(f"unknown country {self.country!r}; available: {available}")
        return MobilityTable.from_columns(list(self.pairs), region, dates, values, self.issues)


def parse_cmr_csv(
    source,
    column_map: dict[str, str] | None = None,
    strict: bool = True,
    country: str | None = None,
) -> MobilityTable:
    """Parse a community-mobility CSV into a :class:`MobilityTable`.

    ``source`` is bytes, str or an open file. It is read as a stream,
    ``CHUNK_ROWS`` records at a time, and each chunk is converted a column
    at a time. ``column_map`` maps logical names (keys of
    ``DEFAULT_COLUMNS``) to actual header names. Empty cells become NaN;
    non-finite cells and values below -100 are errors, reported with the
    physical line the row ends on. In strict mode any bad row aborts the
    parse; in lenient mode bad rows are skipped and reported in
    ``table.issues``. A duplicate (region, date) pair is an error in both
    modes, since neither row can be chosen over the other. Rows below the
    sub_region_1 level (see ``FINER_LEVEL_COLUMNS``) are always skipped and
    counted in one ``issues`` line. With ``country``, the rows of every
    other country are dropped before they are converted or checked.
    """
    columns = dict(DEFAULT_COLUMNS)
    if column_map:
        unknown = set(column_map) - set(columns)
        if unknown:
            raise SchemaError(f"unknown column-map keys: {sorted(unknown)}")
        columns.update(column_map)

    try:
        with _text_lines(source) as lines:
            reader = csv.reader(lines)
            header = next(reader, None)
            if header is None:
                raise SchemaError("empty input: no header row")
            # a repeated header name refers to its last column
            position = {name: i for i, name in enumerate(header)}
            missing_cols = [v for v in columns.values() if v not in position]
            if missing_cols:
                raise SchemaError(f"missing columns: {missing_cols}")
            kept = _Columns(
                [position[columns[k]] for k in ("country_code", "sub_region", "date", *CATEGORIES)],
                [position[c] for c in FINER_LEVEL_COLUMNS if c in position],
                strict,
                country,
            )
            for records, ends in _chunks(reader):
                kept.add(records, ends)
                del records  # freed before the next chunk is read
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise SchemaError(f"line {reader.line_num}: malformed CSV: {exc}") from None
    return kept.table()


def _parse_row(cells: list[str], lineno: int) -> tuple[str, str, int, list[float]]:
    country, sub_region, raw_date, *raw = cells
    try:
        date = dt.date.fromisoformat(raw_date).toordinal()
    except ValueError:
        raise DataError(f"line {lineno}: unparseable date {raw_date!r}") from None
    if not country:
        raise DataError(f"line {lineno}: empty country code")
    if "/" in country:  # it would make region_key ambiguous
        raise DataError(f"line {lineno}: country code {country!r} contains '/'")
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


def csv_field(text: str) -> str:
    """``text`` as a field of any table the program writes: in double quotes,
    each ``"`` doubled, if it holds , " CR or LF (numbers go as ``%.15g``)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(table: MobilityTable) -> str:
    """Serialize to normalized CSV (default headers, canonical row order)."""
    header = ",".join(DEFAULT_COLUMNS[k] for k in ("country_code", "sub_region", "date", *CATEGORIES))
    prefix = [f"{csv_field(c)},{csv_field(s)}" for c, s in zip(table.country_codes, table.sub_regions)]
    lines = [header]
    for r, date, values in zip(table.region.tolist(), table.date_list(), table.values.tolist()):
        cells = ["" if math.isnan(v) else "%.15g" % v for v in values]
        lines.append(",".join([prefix[r], date.isoformat(), *cells]))
    return "\n".join(lines) + "\n"
