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
import codecs
import csv
import datetime as dt
import io
import itertools
import json
import math
import re
from dataclasses import asdict, dataclass, field, replace

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
    missing_rate: float
    fill_value: float | None


@dataclass
class ImputationReport:
    entries: list[ImputationEntry]

    def entry(self, country_code: str, category: str) -> ImputationEntry:
        for e in self.entries:
            if e.country_code == country_code and e.category == category:
                return e
        raise NotFoundError(f"no imputation entry for ({country_code}, {category})")

    def to_json(self) -> str:
        return json.dumps([asdict(e) for e in self.entries], indent=2) + "\n"


# bytes read at a time, a block being what the reads hold up to their last
# line end: enough to amortize the numpy calls per block, few enough that a
# block's offset arrays stay small (on 400 regions x 92 days, 256 KiB
# parsed faster than 64 KiB and as fast as 1 MiB, which raised the parse's
# peak from 9.5 to 14.1 MB)
BLOCK_BYTES = 1 << 18

# columns of the country, sub-region, date and CATEGORIES that _Columns.add
# takes first
_WANTED = 3 + len(CATEGORIES)

# region codes of a row of a country filtered out, and of a row whose country
# code is empty or contains the "/" of region_key
_DROPPED, _NO_COUNTRY = -2, -1

# zero bytes after the cells of a buffer _Columns.add converts, so that the
# 16 bytes, or the 8-byte word, at any cell's start are in the buffer
_PAD = bytes(16)

# the low r bytes of a little-endian 8-byte word, r = 0 .. 8
_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)

# a line end as a text stream opened with newline="" reads it; a block never
# ends between the CR and LF of a CRLF
_LINE_END = re.compile(rb"\r\n?|\n")

# 10**0 .. 10**15, each exact in a double
_TENS = np.array([float(10**k) for k in range(16)])


def _blocks(source):
    """``source`` (bytes or a binary file) in blocks of whole lines: what
    ``BLOCK_BYTES``-byte reads hold up to their last line end, with the rest
    carried to the next block. A byte-order mark is dropped. Each block is
    checked to be UTF-8 text, and the first byte that is not is a
    SchemaError naming its line."""
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    elif not hasattr(source, "read"):
        raise TypeError(f"unsupported source type: {type(source)!r}")
    line, first, pieces = 1, True, []
    while True:
        read = source.read(BLOCK_BYTES)
        cut = _last_line_end(read)
        # with no line end in the read, a CR that ended the one before is a
        # lone CR: the read does not start with LF
        if read and not cut and not (pieces and pieces[-1].endswith(b"\r")):
            pieces.append(read)  # no line end yet: read on
            continue
        data = b"".join([*pieces, read[:cut]])  # no copy when it is all one read
        pieces = [read[cut:]] if cut < len(read) else []
        end, read = not read, None  # freed while the block is converted
        if first:
            data, first = data.removeprefix(codecs.BOM_UTF8), False
        try:
            data.decode()
        except UnicodeDecodeError as exc:
            line += _line_ends(data[: exc.start])
            raise SchemaError(
                f"line {line}: input is not UTF-8 text: byte {data[exc.start]:#04x}: {exc.reason}"
            ) from None
        line += _line_ends(data)
        if data:
            yield data
        if end:
            return


def _last_line_end(data: bytes) -> int:
    """The offset just past the last line end in ``data`` (LF, CRLF or lone
    CR), 0 if there is none. A CR that ends ``data`` is left out: the byte
    after it decides whether it ends a line or starts a CRLF."""
    stop = len(data) - data.endswith(b"\r")
    return max(data.rfind(b"\n", 0, stop), data.rfind(b"\r", 0, stop)) + 1


def _line_ends(data: bytes) -> int:
    """The line ends in ``data``: LF, CRLF and lone CR, as a text stream
    opened with ``newline=""`` reads them."""
    ends = np.count_nonzero(np.frombuffer(data, np.uint8) == 0x0A)
    if b"\r" in data:
        ends += data.count(b"\r") - data.count(b"\r\n")
    return ends


class TextLines:
    """The lines of ``source`` (bytes or a binary file), read in ``_blocks``
    and decoded one at a time for ``csv.reader``; each line ends at LF, CRLF
    or a lone CR. A byte-order mark is dropped, and a byte that is not UTF-8
    is a SchemaError naming its line."""

    def __init__(self, source):
        self.blocks, self.data, self.at = _blocks(source), b"", 0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        while self.at == len(self.data):
            self.data, self.at = next(self.blocks), 0
        data, at = self.data, self.at
        end = _LINE_END.search(data, at)
        self.at = end.end() if end else len(data)
        return data[at : self.at].decode()

    def block(self) -> bytes:
        """The lines of the current block not read yet, else the next
        block, all counted as read; ``b""`` at the end of the stream."""
        data = self.data[self.at:] if self.at < len(self.data) else next(self.blocks, b"")
        self.data, self.at = b"", 0
        return data


def _records(lines: TextLines, line: int, width: int, keep: list[int]):
    """The records after the header, whose last line is physical line
    ``line``, a block at a time: per block, a buffer holding the cells of
    the ``keep`` columns, their start and stop offsets in it, (len(keep),
    records), and the physical line each record ends on. Blank lines are
    dropped, and short records are padded with empty cells.

    A block that csv.reader would read as the text between its ``,``s and
    line ends is split there (``_split``); any other block is read by
    ``csv.reader``, on past its last line while a quoted cell is open.
    """
    while data := lines.block():
        split = _split(data, width, keep)
        if split is not None:
            del data  # freed while the block is converted
            n = split[1].shape[1]
            yield *split, np.arange(line + 1, line + n + 1)
            line += n
            continue
        block = data.splitlines(keepends=True)
        # the block's lines, then the stream's while a quoted cell is open
        reader = csv.reader(itertools.chain(map(bytes.decode, block), lines))
        last = len(block)
        records, ends, error = [], [], None
        try:
            for row in reader:
                if row:
                    records.append(row)
                    ends.append(line + reader.line_num)
                if reader.line_num >= last:
                    break
        except csv.Error as exc:
            # the records before the malformed one are converted first, so
            # that a bad row above it is reported as it is row by row
            error = SchemaError(f"line {line + reader.line_num}: malformed CSV: {exc}")
        line += reader.line_num
        del data, block, reader  # freed before the next block is read
        if records:
            yield *_joined(records, keep), np.array(ends)
        del records
        if error is not None:
            raise error


def _split(data: bytes, width: int, keep: list[int]):
    """``data``, with a line end after its last line and ``_PAD`` after
    that, and the start and stop offsets of the cells of the ``keep``
    columns, (len(keep), lines), if splitting each line at its ``,``s reads
    it as ``csv.reader`` would; else None.

    That holds for lines with ``width - 1`` commas each and no ``"`` or
    lone CR, each ending in LF or CRLF (a stream's last line may have no
    end), as long as no cell is longer than the CSV field size limit.
    """
    if width < 2 or b'"' in data:
        return None
    crs = b"\r" in data
    if crs and data.count(b"\r") != data.count(b"\r\n"):
        return None
    buf = data + _PAD if data.endswith(b"\n") else data + b"\n" + _PAD
    octets = np.frombuffer(buf, np.uint8, len(buf) - len(_PAD))
    lf = octets == 0x0A
    separator = octets == 0x2C
    separator |= lf
    stops = np.flatnonzero(separator)
    del separator
    ends = stops[width - 1 :: width]
    if stops.size != np.count_nonzero(lf) * width or not lf[ends].all():
        return None
    del lf
    starts = np.empty_like(stops)
    starts[0] = 0
    np.add(stops[:-1], 1, out=starts[1:])
    if (stops - starts).max() > csv.field_size_limit():
        return None
    if crs:
        ends -= octets[ends - 1] == 0x0D  # the CR of a CRLF is in no cell
    return buf, starts.reshape(-1, width).T[keep], stops.reshape(-1, width).T[keep]


def _joined(records: list[list[str]], keep: list[int]):
    """The cells of the ``keep`` columns of ``records``, short records
    padded with empty cells, as one UTF-8 buffer with a ``,`` after each
    cell and ``_PAD`` at the end, and their start and stop offsets in it,
    (len(keep), records)."""
    need = max(keep) + 1
    if min(map(len, records)) < need:
        records = [row + [""] * (need - len(row)) for row in records]
    cells = [row[i] for i in keep for row in records]
    text = ",".join([*cells, ""])
    # an ASCII cell has as many bytes as characters
    sizes = map(len, cells if text.isascii() else map(str.encode, cells))
    sizes = np.fromiter(sizes, np.intp, len(cells)).reshape(len(keep), -1)
    stops = (sizes + 1).cumsum().reshape(sizes.shape) - 1
    return text.encode() + _PAD, stops - sizes, stops


def _keys(words, starts, stops) -> list[np.ndarray]:
    """Integers that are equal for two cells exactly when their bytes are:
    each cell's size, and each 8 bytes of it, zero past its end."""
    size = stops - starts
    keys = [size]
    for k in range((int(size.max()) + 7) // 8):
        at = np.minimum(starts + 8 * k, stops)
        keys.append(words[at] & _MASKS[np.minimum(stops - at, 8)])
    return keys


def _runs(keys: list[np.ndarray]) -> np.ndarray:
    """The rows where a key differs from the row before, the first row
    always among them."""
    new = np.zeros(keys[0].size, dtype=bool)
    new[0] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


def _distinct(keys: list[np.ndarray]):
    """One row of each distinct set of keys, and each row's index among them."""
    order = np.lexsort(keys)
    runs = _runs([key[order] for key in keys])
    index = np.empty_like(order)
    index[order] = np.repeat(np.arange(runs.size), np.diff(runs, append=order.size))
    return order[runs], index


def _nonblank(buf: bytes, starts, stops) -> np.ndarray:
    """Whether each record has a cell in these columns that ``str.strip``
    leaves non-empty."""
    found = np.zeros(starts.shape[1], dtype=bool)
    for s, e in zip(starts, stops):
        for r in np.flatnonzero(e > s).tolist():
            found[r] |= bool(buf[s[r] : e[r]].decode().strip())
    return found


def _decimals(buf: bytes, octets, starts, stops) -> np.ndarray:
    """The cells as floats, each equal to ``_float_or_inf`` of the cell to
    the bit.

    A cell of an optional ``-`` and 1 to 15 digits, at most one ``.`` among
    them, is m / 10**f: m is its digits as an integer and f the count after
    the point. Both are exact doubles, so their one correctly rounded
    quotient is ``float(cell)``, -0 included (Clinger 1990). An empty cell
    is NaN; any other cell goes through ``_float_or_inf``.
    """
    size = stops - starts
    minus = (octets[starts] == 0x2D) & (size > 0)
    before = starts + minus - 1  # the byte before the digits: neither digit nor point
    length = np.minimum(size - minus, 17).astype(np.uint8)  # digits and point
    width = min(int(length.max(initial=0)), 16)
    # read right-aligned, so that the positions before a shorter cell's
    # digits come first and read its byte before them: 0 * 10 + 0 keeps 0
    mantissa = np.zeros(size.shape)  # exact: below 10**15
    digits = np.zeros(size.shape, dtype=np.uint8)
    points = np.zeros(size.shape, dtype=np.uint8)
    scale = np.zeros(size.shape, dtype=np.uint8)  # digits after the point
    at = stops - width
    for k in range(width - 1, -1, -1):
        octet = octets[np.maximum(at, before)]
        at += 1
        digit = octet - np.uint8(0x30)
        is_digit = digit < 10
        point = octet == 0x2E
        mantissa *= np.where(point, 1.0, 10.0)
        digit *= is_digit
        mantissa += digit
        digits += is_digit
        points += point
        scale += point * np.uint8(k)
    fast = (digits + points == length) & (points <= 1) & (digits >= 1) & (digits <= 15)
    scale *= fast
    values = mantissa / _TENS.take(scale.astype(np.intp))
    values = np.where(minus, -values, values)
    values[size == 0] = math.nan
    for r in np.flatnonzero(~fast & (size > 0)).tolist():
        values[r] = _float_or_inf(buf[starts[r] : stops[r]].decode())
    return values


def _ordinal(text: str) -> int:
    """Date ordinal of an ISO date cell; 0, which no date has, if it does not parse."""
    try:
        return dt.date.fromisoformat(text.strip()).toordinal()
    except ValueError:
        return 0


def _float_or_inf(cell: str) -> float:
    """A cell as a float: NaN where blank, inf where not a number."""
    try:
        return float(cell) if cell.strip() else math.nan
    except ValueError:
        return math.inf


class _Columns:
    """The rows kept so far, as arrays per block, and the lookups that
    converting the blocks has built."""

    def __init__(self, strict: bool, country: str | None):
        self.strict, self.country = strict, country
        self.pairs: dict[tuple[str, str], int] = {}  # (country, sub-region) -> region index
        self.codes: dict[tuple[bytes, bytes], int] = {}  # raw cells -> region index or code
        self.ordinals: dict[bytes, int] = {}  # raw date cell -> ordinal, 0 if unparseable
        self.countries: set[str] = set()
        self.issues: list[str] = []
        self.finer_rows = 0
        # per block: region index, date ordinal and values of the rows kept
        self.parts = [(np.empty(0, np.intp), np.empty(0, np.int64), np.empty((0, len(CATEGORIES))))]

    def add(self, buf: bytes, starts, stops, lines) -> None:
        """Convert one block: ``buf`` holds the cells of the country,
        sub-region, date and CATEGORIES columns, then of the
        FINER_LEVEL_COLUMNS in the header, from their ``starts`` to their
        ``stops`` offsets, (columns, records), and ends in ``_PAD``;
        ``lines`` holds the line each record ends on."""
        octets = np.frombuffer(buf, np.uint8)
        words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
        # a region's rows come in runs: its cells are looked up once a run
        runs = _runs(_keys(words, starts[0], stops[0]) + _keys(words, starts[1], stops[1]))
        (a0, a1), (b0, b1) = starts[:2, runs].tolist(), stops[:2, runs].tolist()
        pairs = [(buf[s:e], buf[t:u]) for s, e, t, u in zip(a0, b0, a1, b1)]
        # new cell pairs in first-seen order, so that no table depends on string hashing
        for key in [key for key in dict.fromkeys(pairs) if key not in self.codes]:
            country, sub = key[0].decode().strip(), key[1].decode().strip()
            self.countries.add(country)
            if self.country is not None and country != self.country:
                self.codes[key] = _DROPPED
            elif not country or "/" in country:
                self.codes[key] = _NO_COUNTRY
            else:
                self.codes[key] = self.pairs.setdefault((country, sub), len(self.pairs))
        codes = np.array([self.codes[key] for key in pairs], np.intp)
        region = np.repeat(codes, np.diff(runs, append=len(lines)))
        kept = np.flatnonzero(region != _DROPPED)
        if kept.size < region.size:
            starts, stops, lines, region = starts[:, kept], stops[:, kept], lines[kept], region[kept]
        deeper = _nonblank(buf, starts[_WANTED:], stops[_WANTED:])
        if deeper.any():
            self.finer_rows += int(deeper.sum())
            kept = np.flatnonzero(~deeper)
            starts, stops, lines, region = starts[:, kept], stops[:, kept], lines[kept], region[kept]
        if not region.size:
            return
        firsts, index = _distinct(_keys(words, starts[2], stops[2]))
        ordinals = []
        for a, b in zip(starts[2, firsts].tolist(), stops[2, firsts].tolist()):
            raw = buf[a:b]
            if raw not in self.ordinals:
                self.ordinals[raw] = _ordinal(raw.decode())
            ordinals.append(self.ordinals[raw])
        dates = np.array(ordinals, np.int64)[index]
        cells = (starts[3:_WANTED].ravel(), stops[3:_WANTED].ravel())
        values = _decimals(buf, octets, *cells).reshape(len(CATEGORIES), -1).T

        # rows that may be bad: _check_row decides, and words the message
        suspect = (region == _NO_COUNTRY) | (dates == 0)
        suspect |= (np.isinf(values) | (values < -100)).any(axis=1)
        suspect |= (np.isnan(values) & (stops[3:_WANTED] > starts[3:_WANTED]).T).any(axis=1)
        bad = []
        for r in np.flatnonzero(suspect).tolist():
            spans = zip(starts[:_WANTED, r].tolist(), stops[:_WANTED, r].tolist())
            cells = [buf[a:b].decode().strip() for a, b in spans]
            try:
                _check_row(cells, int(lines[r]))
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
    stream of blocks of about ``BLOCK_BYTES`` (``_records`` splits a block
    into cells one of two ways), and each block is converted a column at a
    time. ``column_map`` maps logical names (keys of ``DEFAULT_COLUMNS``) to
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

    lines = TextLines(source)
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise SchemaError(f"line {reader.line_num}: malformed CSV: {exc}") from None
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
    for block in _records(lines, reader.line_num, len(header), keep):
        kept.add(*block)
        del block  # freed before the next block is read
    return kept.table()


def _check_row(cells: list[str], lineno: int) -> None:
    """Raise the ``DataError`` that names a row's first fault, if it has one."""
    country, _, raw_date, *raw = cells
    try:
        dt.date.fromisoformat(raw_date)
    except ValueError:
        raise DataError(f"line {lineno}: unparseable date {raw_date!r}") from None
    if not country:
        raise DataError(f"line {lineno}: empty country code")
    if "/" in country:  # it would make region_key ambiguous
        raise DataError(f"line {lineno}: country code {country!r} contains '/'")
    for cat, cell in zip(CATEGORIES, raw):
        if cell == "":
            continue
        try:
            v = float(cell)
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric {cat} cell {cell!r}") from None
        if not math.isfinite(v):
            raise DataError(f"line {lineno}: non-finite {cat} cell {cell!r}")
        if v < -100:
            raise DataError(f"line {lineno}: {cat} value {v} below -100")


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
            entries.append(ImputationEntry(country, cat, gone, b - a, gone / (b - a), fills[-1]))
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
