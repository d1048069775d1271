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
import operator
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
    ``CATEGORIES`` order, NaN where missing.
    """

    region_ids: tuple[str, ...]
    country_codes: tuple[str, ...]
    sub_regions: tuple[str, ...]
    region: np.ndarray
    dates: np.ndarray
    values: np.ndarray
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

    def _region(self, region_id: str) -> int:
        """Index of a region in ``region_ids``, -1 if absent."""
        k = bisect.bisect_left(self.region_ids, region_id)
        return k if k < len(self.region_ids) and self.region_ids[k] == region_id else -1

    def panel(self, region_ids: list[str], window: tuple[dt.date, dt.date]):
        """The dates of the inclusive ``window``, and the (regions, days, 6)
        values and (regions, 6) window means of the regions in the given
        order; each must have a row on every day of the window and no
        missing cell there, checked first."""
        if not region_ids:
            raise DataError("no regions to gather")
        k = np.array([self._region(rid) for rid in region_ids], dtype=np.intp)
        # one search over (region, day) keys, ascending down the rows: days
        # before the window count as -1, days after it as its length
        expected = max((window[1] - window[0]).days + 1, 0)
        day = np.clip(self.dates - window[0].toordinal(), -1, expected)
        keys = self.region * (expected + 2) + day
        start = np.searchsorted(keys, k * (expected + 2), side="left")
        stop = np.searchsorted(keys, k * (expected + 2) + expected - 1, side="right")
        count = np.where(k < 0, 0, stop - start)
        # no (region, date) pair repeats, so a region with as many rows as
        # the window has days has a row on each of them
        short = (count <= 0) | (count != expected)
        if short.any():
            j = int(np.argmax(short))
            rid = region_ids[j]
            if count[j] <= 0:
                raise DataError(f"no data for region {rid!r} in requested window")
            raise DataError(f"region {rid!r} covers {count[j]} of {expected} days "
                            f"in {window[0]}..{window[1]}")
        # gathered once, category-major: each mean sums along a contiguous
        # last axis, as the mean of one category over one region's rows does, bit for bit
        block = self.values.T.take(start[:, None] + np.arange(expected), axis=1)  # (6, regions, days)
        dates = [window[0] + dt.timedelta(days=d) for d in range(expected)]
        absent = np.isnan(block)
        if absent.any():
            k, d = np.argwhere(absent.any(axis=0))[0]
            missing = [cat for cat, gone in zip(CATEGORIES, absent[:, k, d]) if gone]
            raise DataError(f"{region_ids[k]} {dates[d]}: missing {missing}; impute first")
        return dates, block.transpose(1, 2, 0), block.mean(axis=2).T

    def date_list(self) -> list[dt.date]:
        return [dt.date.fromordinal(d) for d in self.dates.tolist()]


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


# lines read and converted at a time: enough to amortize the per-chunk
# numpy calls, few enough that a chunk's cell strings stay small (on 400
# regions x 92 days, 1,024 parsed about as fast as 2,048 and 15% faster
# than 8,192, with half the peak memory)
CHUNK_ROWS = 1024

# columns of the country, sub-region, date and CATEGORIES that _Columns.add
# takes first
_WANTED = 3 + len(CATEGORIES)

# region codes of a row of a country filtered out, and of a row whose country
# code is empty or contains the "/" of region_key
_DROPPED, _NO_COUNTRY = -2, -1


@contextlib.contextmanager
def _text_lines(source):
    """``source`` (bytes or a binary file) as a text stream of its lines.

    The bytes are decoded as UTF-8 while they are read, and a byte-order
    mark is dropped; line ends are left to the CSV reader. A file passed in
    stays open.
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    elif not hasattr(source, "read"):
        raise TypeError(f"unsupported source type: {type(source)!r}")
    stream = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        yield stream
    finally:
        stream.detach()  # closing the wrapper would close the caller's file


def _chunks(lines, start: int, width: int, keep: list[int]):
    """The records left in ``lines``, whose first is physical line
    ``start + 1``, ``CHUNK_ROWS`` lines at a time: per chunk, the cells of
    the ``keep`` columns (blank lines dropped, short records padded with
    ``""``) and the physical line each record ends on.

    A chunk of whole lines that holds no ``"`` or lone CR and has
    ``width - 1`` commas on every line is split on ``,``, which is what
    ``csv.reader`` reads on such lines; any other chunk is read by
    ``csv.reader``, on past its last line while a quoted cell is open.
    """
    while chunk := list(itertools.islice(lines, CHUNK_ROWS)):
        cells, error = _plain_cells(chunk, width), None
        if cells is not None:
            columns = [cells[i::width] for i in keep]
            ends = range(start + 1, start + len(chunk) + 1)
            start += len(chunk)
        else:
            reader = csv.reader(itertools.chain(chunk, lines))
            records, ends = [], []
            try:
                for row in reader:
                    if row:
                        records.append(row)
                        ends.append(start + reader.line_num)
                    if reader.line_num >= len(chunk):
                        break
            except csv.Error as exc:
                # the records before the malformed one are converted first, so
                # that a bad row above it is reported as it is row by row
                error = SchemaError(f"line {start + reader.line_num}: malformed CSV: {exc}")
            start += reader.line_num
            need = max(keep) + 1
            if records and min(map(len, records)) < need:
                records = [row + [""] * (need - len(row)) for row in records]
            columns = list(zip(*records))
            columns = [columns[i] for i in keep] if records else []
            del records, reader
        del chunk, cells  # freed before the next chunk is read
        if ends:
            yield columns, ends
        del columns
        if error is not None:
            raise error


def _plain_cells(chunk: list[str], width: int) -> list[str] | None:
    """The chunk's cells, row after row, split on ``,`` if that reads the
    lines as ``csv.reader`` would; else None.

    That holds for lines with ``width - 1`` commas each and no ``"`` or lone
    CR, each ending in LF or CRLF (a stream's last line may have no end),
    as long as no cell can reach the CSV field size limit.
    """
    text = "".join(chunk)
    if '"' in text or width < 2 or len(text) >= csv.field_size_limit():
        return None
    if set(map(str.count, chunk, itertools.repeat(","))) != {width - 1}:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    cells = text.replace("\n", ",").split(",")
    if text.endswith("\n"):
        cells.pop()  # the empty cell after the last line end
    return cells


def _changes(cells):
    """Positions of the cells that differ from the cell before them."""
    differs = map(operator.ne, itertools.islice(cells, 1, None), cells)
    return itertools.compress(itertools.count(1), differs)


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

    def __init__(self, strict: bool, country: str | None):
        self.strict, self.country = strict, country
        self.pairs: dict[tuple[str, str], int] = {}  # (country, sub-region) -> region index
        self.codes: dict[tuple[str, str], int] = {}  # raw cells -> region index or code
        self.ordinals: dict[str, int] = {}  # raw date cell -> ordinal, 0 if unparseable
        self.countries: set[str] = set()
        self.issues: list[str] = []
        self.finer_rows = 0
        # per chunk: region index, date ordinal and values of the rows kept
        self.parts = [(np.empty(0, np.intp), np.empty(0, np.int64), np.empty((0, len(CATEGORIES))))]

    def add(self, columns, ends) -> None:
        """Convert one chunk: the cells of the country, sub-region, date and
        CATEGORIES columns, then of the FINER_LEVEL_COLUMNS in the header,
        and the line each record ends on."""
        wanted, finer = columns[:_WANTED], columns[_WANTED:]
        n = len(ends)
        # a region's rows come in runs: its cells are looked up once a run
        starts = sorted({0, *_changes(wanted[0]), *_changes(wanted[1])})
        pairs = [(wanted[0][i], wanted[1][i]) for i in starts]
        # new cell pairs in first-seen order, so that no table depends on string hashing
        for key in [key for key in dict.fromkeys(pairs) if key not in self.codes]:
            country, sub = key[0].strip(), key[1].strip()
            self.countries.add(country)
            if self.country is not None and country != self.country:
                self.codes[key] = _DROPPED
            elif not country or "/" in country:
                self.codes[key] = _NO_COUNTRY
            else:
                self.codes[key] = self.pairs.setdefault((country, sub), len(self.pairs))
        codes = np.array([self.codes[key] for key in pairs], np.intp)
        region = np.repeat(codes, np.diff([*starts, n]))
        keep = region != _DROPPED
        deeper = np.zeros(n, dtype=bool)
        for column in finer:
            if any(column):
                deeper |= np.fromiter(map(bool, map(str.strip, column)), bool, n)
        self.finer_rows += int((deeper & keep).sum())
        keep &= ~deeper
        rows = np.flatnonzero(keep).tolist()
        if not rows:
            return
        cells = wanted[2:]
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
                _parse_row([col[j].strip() for col in wanted], ends[j])
            except DataError as exc:
                if self.strict:
                    raise
                self.issues.append(str(exc))
                bad.append(r)
        part = (region, dates, values)
        self.parts.append(tuple(np.delete(a, bad, axis=0) for a in part) if bad else part)

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

    ``source`` is bytes or a file opened in binary mode. It is read as a
    stream, ``CHUNK_ROWS`` lines at a time (``_chunks`` splits a chunk into
    cells one of two ways), and each chunk is converted a column at a time.
    ``column_map`` maps logical names (keys of ``DEFAULT_COLUMNS``) to
    actual header names. Empty cells become NaN;
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
            keep = [position[columns[k]] for k in ("country_code", "sub_region", "date", *CATEGORIES)]
            keep += [position[c] for c in FINER_LEVEL_COLUMNS if c in position]
            kept = _Columns(strict, country)
            for cells, ends in _chunks(lines, reader.line_num, len(header), keep):
                kept.add(cells, ends)
                del cells  # freed before the next chunk is read
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not UTF-8 text: {exc}") from None
    except csv.Error as exc:  # in the header
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


def subregion_ids(table: MobilityTable, country_code: str) -> list[str]:
    """The ids of one country's sub-regions, in table order; its national rows are left out."""
    countries = sorted(set(table.country_codes))
    if country_code not in countries:
        raise NotFoundError(f"unknown country {country_code!r}; available: {countries}")
    pairs = zip(table.region_ids, table.country_codes, table.sub_regions)
    return [rid for rid, country, sub in pairs if country == country_code and sub]


def impute_missing(table: MobilityTable) -> tuple[MobilityTable, ImputationReport]:
    """Single mean imputation per (country, category) over the full table.

    Every absent cell is replaced by the arithmetic mean of all present
    values for the same country and category. A pair with missing cells
    but no present values at all is unimputable.
    """
    # region ids sort by country first (a country code holds no "/"), so
    # each country's rows are one run of the table
    countries = {c: j for j, c in enumerate(dict.fromkeys(table.country_codes))}
    region_country = np.array([countries[c] for c in table.country_codes], dtype=np.intp)
    first_region = np.searchsorted(region_country, np.arange(len(countries) + 1))
    bounds = np.searchsorted(table.region, first_region).tolist()
    absent = np.isnan(table.values)
    filled = np.where(absent, 0.0, table.values)
    entries = []
    for country, a, b in zip(countries, bounds, bounds[1:]):
        missing = absent[a:b].sum(axis=0).tolist()
        # summed down the rows in table order
        sums = filled[a:b].sum(axis=0).tolist()
        fills = []
        for cat, gone, total in zip(CATEGORIES, missing, sums):
            if gone == b - a:
                raise DataError(f"cannot impute ({country}, {cat}): every value is missing")
            fills.append(total / (b - a - gone))
            entries.append(ImputationEntry(country, cat, gone, b - a, fills[-1]))
        np.copyto(filled[a:b], fills, where=absent[a:b])
    entries.sort(key=lambda e: (e.country_code, e.category))
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
