import csv
import datetime as dt
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobility_esda import ingest
from mobility_esda.errors import DataError, MobilityError, NotFoundError, SchemaError
from mobility_esda.ingest import (
    CATEGORIES,
    MobilityTable,
    impute_missing,
    parse_cmr_csv,
    subregion_ids,
    write_csv,
)

from conftest import flat_values, make_table, parse_oracle, table_from_rows

HEADER = (
    "country_region_code,sub_region_1,date,"
    "retail_and_recreation_percent_change_from_baseline,"
    "grocery_and_pharmacy_percent_change_from_baseline,"
    "parks_percent_change_from_baseline,"
    "transit_stations_percent_change_from_baseline,"
    "workplaces_percent_change_from_baseline,"
    "residential_percent_change_from_baseline"
)


def csv_bytes(*rows):
    return ("\n".join([HEADER, *rows]) + "\n").encode()


class TestParse:
    def test_three_full_rows(self):
        table = parse_cmr_csv(
            csv_bytes(
                "BR,,2020-03-01,-10,-5,-20,-30,-15,5",
                "BR,,2020-03-02,-11,-6,-21,-31,-16,6",
                "BR,,2020-03-03,-12,-7,-22,-32,-17,7",
            )
        )
        assert len(table.dates) == 3
        assert not np.isnan(table.values).any()
        assert table.coverage == (dt.date(2020, 3, 1), dt.date(2020, 3, 3))

    def test_empty_cell_is_absent_not_zero(self):
        table = parse_cmr_csv(csv_bytes("BR,,2020-03-01,-10,-5,-20,,-15,5"))
        assert np.isnan(table.column("transit_stations")[0])
        assert [c for c, gone in zip(CATEGORIES, np.isnan(table.values[0])) if gone] == [
            "transit_stations"
        ]

    def test_missing_column_names_it(self):
        bad = HEADER.replace("parks_percent_change_from_baseline", "parks")
        with pytest.raises(SchemaError, match="parks_percent_change_from_baseline"):
            parse_cmr_csv((bad + "\nBR,,2020-03-01,1,1,1,1,1,1\n").encode())

    def test_column_map_override(self):
        text = "cc,sr,day,a,b,c,d,e,f\nAR,Salta,2020-03-01,1,2,3,4,5,6\n"
        table = parse_cmr_csv(
            text.encode(),
            column_map={
                "country_code": "cc",
                "sub_region": "sr",
                "date": "day",
                "retail_recreation": "a",
                "grocery_pharmacy": "b",
                "parks": "c",
                "transit_stations": "d",
                "workplaces": "e",
                "residential": "f",
            },
        )
        assert table.region_ids[table.region[0]] == "AR/Salta"
        assert table.column("residential")[0] == 6

    def test_bad_date_strict_aborts_with_line_number(self):
        with pytest.raises(DataError, match="line 3"):
            parse_cmr_csv(
                csv_bytes(
                    "BR,,2020-03-01,1,1,1,1,1,1",
                    "BR,,not-a-date,1,1,1,1,1,1",
                )
            )

    def test_bad_cell_lenient_skips_and_reports(self):
        table = parse_cmr_csv(
            csv_bytes(
                "BR,,2020-03-01,1,1,1,1,1,1",
                "BR,,2020-03-02,oops,1,1,1,1,1",
            ),
            strict=False,
        )
        assert len(table.dates) == 1
        assert any("line 3" in msg for msg in table.issues)

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize(
        "rows, line",
        [
            (["BR,,2020-03-01,1,1,1,1,1,1", "", "", "BR,,2020-03-02,oops,1,1,1,1,1"], 5),
            (['BR,"Sao\nPaulo",2020-03-01,1,1,1,1,1,1', "BR,,2020-03-02,oops,1,1,1,1,1"], 4),
        ],
        ids=["blank lines", "quoted line break"],
    )
    def test_bad_row_reports_its_physical_line(self, rows, line, strict):
        message = f"line {line}: non-numeric retail_recreation cell 'oops'"
        if strict:
            with pytest.raises(DataError, match=message):
                parse_cmr_csv(csv_bytes(*rows))
        else:
            assert parse_cmr_csv(csv_bytes(*rows), strict=False).issues == [message]

    def test_value_below_floor_rejected(self):
        with pytest.raises(DataError, match="-101"):
            parse_cmr_csv(csv_bytes("BR,,2020-03-01,-101,1,1,1,1,1"))

    def test_value_below_floor_lenient_skips_and_reports(self):
        table = parse_cmr_csv(
            csv_bytes(
                "BR,,2020-03-01,1,1,1,1,1,1",
                "BR,,2020-03-02,-101,1,1,1,1,1",
            ),
            strict=False,
        )
        assert len(table.dates) == 1
        assert any("line 3" in msg and "-101" in msg for msg in table.issues)

    def test_gap_reported_not_fatal(self):
        table = parse_cmr_csv(
            csv_bytes(
                "BR,,2020-03-01,1,1,1,1,1,1",
                "BR,,2020-03-05,1,1,1,1,1,1",
            )
        )
        assert any("gap" in msg for msg in table.issues)

    def test_duplicate_region_date_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            parse_cmr_csv(
                csv_bytes(
                    "BR,,2020-03-01,1,1,1,1,1,1",
                    "BR,,2020-03-01,2,2,2,2,2,2",
                )
            )

    def test_duplicate_region_date_rejected_in_lenient_mode(self):
        with pytest.raises(DataError, match="duplicate"):
            parse_cmr_csv(
                csv_bytes(
                    "BR,,2020-03-01,1,1,1,1,1,1",
                    "BR,,2020-03-01,2,2,2,2,2,2",
                ),
                strict=False,
            )

    def test_argentina_style_missing_rate(self):
        # 67 transit cells, one blank: rate 1/67, the fixture-scale analog
        # of the reported full-scale rate
        rows = []
        for p in range(67):
            transit = "" if p == 13 else "-40"
            rows.append(f"AR,P{p:02d},2020-03-01,-10,-5,-20,{transit},-15,5")
        table = parse_cmr_csv(csv_bytes(*rows))
        _, report = impute_missing(table)
        entry = report.entry("AR", "transit_stations")
        assert entry.missing_count == 1
        assert entry.total_count == 67
        assert entry.missing_rate == pytest.approx(0.0149, abs=5e-4)

    def test_round_trip(self):
        # quoted sub-regions holding a comma, a doubled quote, a lone CR and an LF
        table = parse_cmr_csv(
            csv_bytes(
                "AR,Salta,2020-03-01,-10.5,-5,-20,,-15,5",
                'AR,"x\ry",2020-03-01,1,2,3,4,5,6',
                'AR,"Foo, ""Bar""\nBaz",2020-03-01,1,2,3,4,5,6',
                "BR,,2020-03-01,-1,-2,-3,-4,-5,6",
            )
        )
        assert table.sub_regions == ("Foo, \"Bar\"\nBaz", "Salta", "x\ry", "")
        text = write_csv(table)
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        assert [len(row) for row in rows] == [len(header)] * 4
        assert [row[1] for row in rows] == list(table.sub_regions)
        again = parse_cmr_csv(text.encode())
        assert write_csv(again) == write_csv(table)
        assert again.region_ids == table.region_ids
        assert np.array_equal(again.region, table.region)
        assert np.array_equal(again.dates, table.dates)
        assert np.array_equal(again.values, table.values, equal_nan=True)


    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_cell_rejected(self, cell):
        rows = ["BR,,2020-03-01,1,1,1,1,1,1", f"BR,,2020-03-02,1,1,{cell},1,1,1"]
        with pytest.raises(DataError, match="line 3: non-finite parks"):
            parse_cmr_csv(csv_bytes(*rows))
        table = parse_cmr_csv(csv_bytes(*rows), strict=False)
        assert len(table.dates) == 1
        assert any("line 3" in msg and "parks" in msg for msg in table.issues)

    def test_byte_order_mark_before_header(self):
        table = parse_cmr_csv(b"\xef\xbb\xbf" + csv_bytes("BR,,2020-03-01,1,2,3,4,5,6"))
        assert table.region_ids == ("BR/",)

    def test_undecodable_bytes_are_a_schema_error(self):
        with pytest.raises(SchemaError, match="UTF-8"):
            parse_cmr_csv(b"\xff\xfe" + csv_bytes("BR,,2020-03-01,1,2,3,4,5,6"))

    def test_source_kinds_parse_alike(self, tmp_path):
        data = csv_bytes("BR,,2020-03-01,1,2,3,4,5,6", "AR,Salta,2020-03-01,-1,,3,4,5,6")
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        expected = write_csv(parse_cmr_csv(data))
        with open(path, "rb") as binary, open(path, encoding="utf-8") as text:
            sources = [data.decode(), io.BytesIO(data), binary, text]
            assert [write_csv(parse_cmr_csv(src)) for src in sources] == [expected] * 4
            assert not binary.closed and not text.closed

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_line_ends(self, eol):
        data = eol.join([HEADER, "BR,,2020-03-01,1,1,1,1,1,1", "BR,,2020-03-02,x,1,1,1,1,1", ""])
        table = parse_cmr_csv(data.encode(), strict=False)
        assert len(table.dates) == 1
        assert table.issues == ["line 3: non-numeric retail_recreation cell 'x'"]

    def test_published_layout_skips_finer_levels(self):
        # the published report: national, sub_region_1, sub_region_2 and
        # metro rows in one file; the finer rows repeat sub_region_1
        header = (
            "country_region_code,country_region,sub_region_1,sub_region_2,metro_area,"
            "iso_3166_2_code,census_fips_code,place_id,date,"
            + HEADER.split(",date,")[1]
        )
        rows = [header]
        for day in ("2020-03-01", "2020-03-02"):
            rows += [
                f"BR,Brazil,,,,,,p0,{day},-10,-5,-20,-30,-15,5",
                f"BR,Brazil,Sao Paulo,,,BR-SP,,p1,{day},-11,-6,-21,-31,-16,6",
                f"BR,Brazil,Sao Paulo,Campinas,,,,p2,{day},-12,-7,-22,-32,-17,7",
                f"BR,Brazil,Sao Paulo,Santos,,,,p3,{day},-13,-8,-23,,-18,8",
                f"BR,Brazil,,,Sao Paulo Metro,,,p4,{day},-14,-9,-24,-34,-19,9",
            ]
        table = parse_cmr_csv(("\n".join(rows) + "\n").encode())
        assert table.region_ids == ("BR/", "BR/Sao Paulo")
        assert table.column("residential").tolist() == [5, 5, 6, 6]
        assert table.issues == [
            "skipped 6 rows below the sub_region_1 level (sub_region_2/metro_area set)"
        ]


class TestCountry:
    ROWS = (
        "BR,,2020-03-01,1,1,1,1,1,1",
        "AR,Salta,2020-03-01,2,2,2,2,2,2",
        "BR,,2020-03-02,3,3,3,3,3,3",
    )

    def test_keeps_one_country(self):
        table = parse_cmr_csv(csv_bytes(*self.ROWS), country="BR")
        assert table.region_ids == ("BR/",)
        assert table.column("parks").tolist() == [1, 3]

    def test_other_countries_rows_are_not_checked(self):
        rows = (*self.ROWS, "AR,Salta,2020-03-02,oops,-500,1,1,1,1", "AR,,not-a-date,1,1,1,1,1,1")
        with pytest.raises(DataError, match="line 5"):
            parse_cmr_csv(csv_bytes(*rows))
        table = parse_cmr_csv(csv_bytes(*rows), country="BR")
        assert table.region_ids == ("BR/",) and table.issues == []

    def test_finer_rows_counted_for_the_country_only(self):
        rows = [
            HEADER + ",sub_region_2",
            "BR,,2020-03-01,1,1,1,1,1,1,",
            "BR,Sao Paulo,2020-03-01,1,1,1,1,1,1,Campinas",
            "AR,Salta,2020-03-01,1,1,1,1,1,1,Oran",
        ]
        table = parse_cmr_csv(("\n".join(rows) + "\n").encode(), country="BR")
        assert table.issues == [
            "skipped 1 rows below the sub_region_1 level (sub_region_2/metro_area set)"
        ]

    def test_absent_country_lists_those_seen(self):
        with pytest.raises(NotFoundError, match=r"unknown country 'XX'; available: \['AR', 'BR'\]"):
            parse_cmr_csv(csv_bytes(*self.ROWS), country="XX")

    # ("A/B", "C") and ("A", "B/C") would share the region key "A/B/C"
    COLLIDING = ("A/B,C,2020-03-01,1,1,1,1,1,1", "A,B/C,2020-03-01,2,2,2,2,2,2")

    def test_slash_in_country_code_rejected(self):
        with pytest.raises(DataError, match=r"^line 2: country code 'A/B' contains '/'$"):
            parse_cmr_csv(csv_bytes(*self.COLLIDING))

    def test_slash_in_country_code_lenient_skips_and_reports(self):
        table = parse_cmr_csv(csv_bytes(*self.COLLIDING), strict=False)
        assert (table.region_ids, table.country_codes) == (("A/B/C",), ("A",))
        assert table.column("parks").tolist() == [2]
        assert table.issues == ["line 2: country code 'A/B' contains '/'"]

    def test_slash_codes_are_not_offered(self):
        with pytest.raises(NotFoundError, match=r"available: \['A'\]$"):
            parse_cmr_csv(csv_bytes(*self.COLLIDING), country="XX")


def parses_or_raises_package_error(data: bytes) -> None:
    for strict in (True, False):
        try:
            table = parse_cmr_csv(data, strict=strict)
        except MobilityError:
            continue
        assert isinstance(table, MobilityTable)
        assert table.values.shape == (len(table.dates), len(CATEGORIES))


CELLS = st.sampled_from(
    ["", "BR", "AR", "A/B", "Salta", "2020-03-01", "2020-03-02", "2020-02-30", "-101", "-100",
     "0", "12.5", "nan", "inf", "x", '"', '","', "\ufeff", " "]
)


class TestFuzz:
    @given(data=st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes(self, data):
        parses_or_raises_package_error(data)

    @given(body=st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_under_header(self, body):
        parses_or_raises_package_error((HEADER + "\n" + body).encode())

    @given(rows=st.lists(st.lists(CELLS, min_size=0, max_size=11), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_cells_under_header(self, rows):
        parses_or_raises_package_error(csv_bytes(*(",".join(row) for row in rows)))


FINER_HEADER = HEADER + ",sub_region_2,metro_area"


def csv_text(header: str, rows, eol: str) -> bytes:
    return eol.join([header, *(",".join(row) for row in rows)]).encode() + eol.encode()


def parse_outcome(parse, data: bytes, **kw):
    """The table a parse builds as comparable values, issues last, or its
    error's type name and message."""
    try:
        t = parse(data, **kw)
    except MobilityError as exc:
        return type(exc).__name__, str(exc)
    values = [[None if np.isnan(v) else v for v in row] for row in t.values.tolist()]
    return (t.region_ids, t.country_codes, t.sub_regions, t.region.tolist(), t.dates.tolist(),
            values, t.offsets.tolist(), t.issues)


ROWS = st.lists(st.lists(CELLS, min_size=0, max_size=11), max_size=8)
LAYOUT = dict(header=st.sampled_from([HEADER, FINER_HEADER]), eol=st.sampled_from(["\n", "\r\n"]))


class TestAgainstOracle:
    """The chunked column parse against the row-by-row parse it replaced,
    at the default chunk size and at two records a chunk."""

    @pytest.mark.parametrize("chunk_rows", [ingest.CHUNK_ROWS, 2])
    @given(rows=ROWS, **LAYOUT)
    @settings(max_examples=200, deadline=None)
    def test_same_table_or_error(self, chunk_rows, rows, header, eol):
        data = csv_text(header, rows, eol)
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            for strict in (True, False):
                assert parse_outcome(parse_cmr_csv, data, strict=strict) == parse_outcome(
                    parse_oracle, data, strict=strict
                )

    @pytest.mark.parametrize("chunk_rows", [ingest.CHUNK_ROWS, 2])
    @given(rows=ROWS, country=st.sampled_from(["BR", "AR", "XX"]), **LAYOUT)
    @settings(max_examples=200, deadline=None)
    def test_country_matches_select(self, chunk_rows, rows, country, header, eol):
        data = csv_text(header, rows, eol)
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            for strict in (True, False):
                try:
                    whole = parse_oracle(data, strict=strict)
                except MobilityError:
                    continue
                got = parse_outcome(parse_cmr_csv, data, strict=strict, country=country)
                # the oracle's rows of that country, as a table of their own
                rows = [(whole.country_codes[r], whole.sub_regions[r], d, v) for r, d, v in
                        zip(whole.region.tolist(), whole.dates.tolist(), whole.values.tolist())
                        if whole.country_codes[r] == country]
                want = parse_outcome(lambda _: table_from_rows(rows), data) if rows else ("NotFoundError", "")
                # all but the issues, which count other countries' rows too,
                # or, for an absent country, the error's type
                assert got[:-1] == want[:-1]


# a line of a mixed file: mostly clean, else one fault that the comma split
# must leave to csv.reader (or, for "bad", a cell the row checks refuse)
FAULTS = st.sampled_from(
    ["clean"] * 8
    + ["quoted", "multiline", "open_quote", "lone_cr", "cr_in_cell", "nul", "short", "long",
       "blank", "bad", "huge"]
)
EOL = st.sampled_from(["\n", "\r\n"])
FIELD_LIMIT = 60  # above every header name; a "huge" cell is longer


@st.composite
def mixed_csv(draw):
    """Bytes of a file of clean lines and faulty ones, its columns in any
    order, and whether every line is clean."""
    names = draw(st.sampled_from([HEADER, FINER_HEADER])).split(",")
    order = draw(st.permutations(range(len(names))))
    width = len(names)
    parts = [draw(st.sampled_from(["", "\ufeff"])), ",".join(names[j] for j in order), draw(EOL)]
    faults = draw(st.lists(FAULTS, max_size=12))
    for i, fault in enumerate(faults):
        cells = ["BR", draw(st.sampled_from(["", "Acre", "Bahia"])),
                 (dt.date(2020, 3, 1) + dt.timedelta(i)).isoformat(),
                 *draw(st.lists(st.sampled_from(["", "1", "-5.5", "12"]), min_size=6, max_size=6)),
                 *[""] * (width - 9)]
        eol = draw(EOL)
        if fault == "quoted":
            cells[1] = '"' + draw(st.sampled_from(["Acre", "a,b", 'a""b', ""])) + '"'
        elif fault == "multiline":
            cells[1] = '"' + draw(st.sampled_from(["a\nb", "a\r\nb", "a\rb", "a\n\nb\n"])) + '"'
        elif fault == "open_quote":
            cells[1] = '"open'
        elif fault == "lone_cr":
            eol = "\r"
        elif fault == "cr_in_cell":
            cells[1] = "a\rb"
        elif fault == "nul":
            cells[1] = "a\0b"
        elif fault == "bad":
            cells[3 + draw(st.integers(0, 5))] = draw(st.sampled_from(["x", "-101", "inf", "nan"]))
        elif fault == "huge":
            cells[1] = "h" * (FIELD_LIMIT + 10)
        cells = [cells[j] for j in order]
        if fault == "short":
            cells = cells[: draw(st.integers(1, width - 1))]
        elif fault == "long":
            cells += ["9"] * draw(st.integers(1, 3))
        elif fault == "blank":
            cells = []
        parts += [",".join(cells), eol]
    if faults and draw(st.booleans()):
        parts.pop()  # no line end after the last line
    return "".join(parts).encode(), set(faults) <= {"clean"}


READER = csv.reader


class LineCount:
    """Stands in for ``csv.reader`` and counts the lines read through it."""

    def __init__(self):
        self.lines = 0

    def __call__(self, lines, *args, **kwargs):
        return READER(self._counted(lines), *args, **kwargs)

    def _counted(self, lines):
        for line in lines:
            self.lines += 1
            yield line


class TestChunkPaths:
    """Files mixing chunks the comma split reads with chunks csv.reader must
    read, against the row-by-row parse: same table, issues and errors."""

    @pytest.mark.parametrize("chunk_rows", [2, 3, ingest.CHUNK_ROWS])
    @given(case=mixed_csv(), limit=st.sampled_from([None, FIELD_LIMIT]))
    @settings(max_examples=200, deadline=None)
    def test_same_table_or_error(self, chunk_rows, case, limit):
        data, clean = case
        old_limit = csv.field_size_limit(limit) if limit else None
        try:
            with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
                for strict in (True, False):
                    want = parse_outcome(parse_oracle, data, strict=strict)
                    with mock.patch.object(csv, "reader", LineCount()) as reader:
                        assert parse_outcome(parse_cmr_csv, data, strict=strict) == want
                    if clean and limit is None:
                        assert reader.lines == 1  # the header: every chunk was split
        finally:
            if old_limit is not None:
                csv.field_size_limit(old_limit)

    @pytest.mark.parametrize("newline", [None, "", "\n", "\r", "\r\n"])
    @given(case=mixed_csv(), chunk_rows=st.sampled_from([2, 3, ingest.CHUNK_ROWS]))
    @settings(max_examples=100, deadline=None)
    def test_split_reads_what_csv_reads_on_any_text_stream(self, newline, chunk_rows, case):
        """A text file splits its lines by its own newline rule; the comma
        split must give what csv.reader gives on those lines."""
        def parse(data, strict):
            stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline)
            return parse_cmr_csv(stream, strict=strict)

        with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            for strict in (True, False):
                with mock.patch.object(ingest, "_plain_cells", return_value=None):
                    want = parse_outcome(parse, case[0], strict=strict)  # csv.reader only
                assert parse_outcome(parse, case[0], strict=strict) == want

    @pytest.mark.parametrize("strict", [True, False])
    def test_one_column_header_skips_blank_lines(self, strict):
        # every logical column is the one header column, so a blank line
        # splits into a cell but csv.reader reads no record from it
        data = b"x\n\nBR\n\n"
        column_map = dict.fromkeys(ingest.DEFAULT_COLUMNS, "x")
        with mock.patch.object(ingest, "CHUNK_ROWS", 2):
            got = parse_outcome(parse_cmr_csv, data, column_map=column_map, strict=strict)
        assert got == parse_outcome(parse_oracle, data, column_map=column_map, strict=strict)
        assert "line 3: unparseable date 'BR'" in str(got)

    def test_clean_chunks_are_split_not_read(self):
        rows = [f"BR,Acre,2020-03-{d:02d},1,2,3,4,5,6" for d in range(1, 11)]
        with mock.patch.object(ingest, "CHUNK_ROWS", 3), \
                mock.patch.object(csv, "reader", LineCount()) as reader:
            table = parse_cmr_csv(csv_bytes(*rows))
        assert reader.lines == 1
        assert len(table.dates) == 10


class TestPanel:
    @given(
        seed=st.integers(0, 2**32 - 1),
        regions=st.integers(1, 5),
        days=st.integers(1, 300),
        integral=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_means_equal_column_means(self, seed, regions, days, integral, data):
        """Each region's window mean is its column mean over the window's rows,
        bit for bit, whatever the order the regions are asked in."""
        rng = np.random.default_rng(seed)
        shape = (regions * days, len(CATEGORIES))
        values = rng.integers(-100, 300, shape).astype(float) if integral else rng.normal(0, 40, shape)
        start = dt.date(2020, 3, 1)
        table = MobilityTable.from_columns(
            [("SY", f"r{k}") for k in range(regions)],
            np.repeat(np.arange(regions), days),
            np.tile(np.arange(days) + start.toordinal(), regions),
            values,
        )
        first = data.draw(st.integers(0, days - 1))
        last = data.draw(st.integers(first, days - 1))
        window = (start + dt.timedelta(first), start + dt.timedelta(last))
        ids = [table.region_ids[k] for k in rng.permutation(regions)]
        dates, block, means = table.panel(ids, window)
        assert dates == [start + dt.timedelta(d) for d in range(first, last + 1)]
        assert block.shape == (regions, last - first + 1, len(CATEGORIES))
        assert means.shape == (regions, len(CATEGORIES))
        for k, rid in enumerate(ids):
            rows = table.rows(rid, window)
            assert block[k].tolist() == table.values[rows].tolist()
            assert means[k].tolist() == [table.column(c)[rows].mean() for c in CATEGORIES]

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_first_region_short_of_the_window_is_named(self, data):
        """The regions are checked in the order asked, each on its own rows()."""
        start = dt.date(2020, 3, 1)
        days = [sorted(data.draw(st.sets(st.integers(0, 9), min_size=1))) for _ in range(3)]
        table = MobilityTable.from_columns(
            [("SY", f"r{k}") for k in range(3)],
            np.repeat(np.arange(3), [len(d) for d in days]),
            np.concatenate(days) + start.toordinal(),
            np.zeros((sum(map(len, days)), len(CATEGORIES))),
        )
        ids = data.draw(st.lists(st.sampled_from(["SY/r0", "SY/r1", "SY/r2", "SY/x"]), min_size=1))
        bounds = data.draw(st.none() | st.tuples(st.integers(-2, 11), st.integers(-2, 11)))
        window = bounds and tuple(start + dt.timedelta(b) for b in bounds)
        want = None
        for rid in ids:
            r = table.rows(rid, window)
            if r.stop <= r.start:
                want = f"no data for region {rid!r} in requested window"
            elif window and r.stop - r.start != (expected := (window[1] - window[0]).days + 1):
                want = (f"region {rid!r} covers {r.stop - r.start} of {expected} days "
                        f"in {window[0]}..{window[1]}")
            if want:
                break
        try:
            table.panel(ids, window)
            got = None
        except DataError as exc:
            got = str(exc)
        if want or window:
            assert got == want
        else:
            assert got in (None, "regions cover different dates; give a window")


class TestFilter:
    @pytest.fixture
    def two_country(self):
        return make_table(
            [
                ("BR", "", "2020-03-01", flat_values(-10)),
                ("AR", "", "2020-03-01", flat_values(-20)),
                ("AR", "Salta", "2020-03-01", flat_values(-30)),
                ("AR", "Salta", "2020-03-02", flat_values(-31)),
                ("AR", "Jujuy", "2020-03-01", flat_values(-40)),
            ]
        )

    def test_unknown_keys_listed(self, two_country):
        with pytest.raises(NotFoundError, match="AR"):
            subregion_ids(two_country, "CO")

    def test_subnational_groups(self, two_country):
        assert subregion_ids(two_country, "AR") == ["AR/Jujuy", "AR/Salta"]
        assert subregion_ids(two_country, "BR") == []


class TestImpute:
    def test_mean_of_two(self):
        table = make_table(
            [
                ("BR", "", "2020-03-01", {**flat_values(0), "parks": 10}),
                ("BR", "", "2020-03-02", {**flat_values(0), "parks": None}),
                ("BR", "", "2020-03-03", {**flat_values(0), "parks": 20}),
            ]
        )
        filled, report = impute_missing(table)
        assert filled.column("parks")[1] == 15
        assert report.entry("BR", "parks").fill_value == 15

    def test_fill_is_the_running_mean_in_row_order(self):
        # the fill must equal a left-to-right running sum over the country's
        # rows, so normalized output stays byte-identical across layouts
        rng = np.random.default_rng(3)
        start = dt.date(2020, 3, 1)
        rows = []
        for reg in range(7):
            for day in range(40):
                value = None if rng.random() < 0.2 else float(np.round(rng.uniform(-100, 150), 2))
                date = (start + dt.timedelta(days=day)).isoformat()
                rows.append(("CO", f"D{reg}", date, {**flat_values(0), "workplaces": value}))
        _, report = impute_missing(make_table(rows))
        total = 0.0
        present = [values["workplaces"] for *_, values in rows if values["workplaces"] is not None]
        for value in present:
            total += value
        assert report.entry("CO", "workplaces").fill_value == total / len(present)

    def test_no_missing_identity(self):
        table = make_table([("BR", "", "2020-03-01", flat_values(-12.5))])
        filled, report = impute_missing(table)
        assert write_csv(filled) == write_csv(table)
        assert all(e.missing_rate == 0 for e in report.entries)

    def test_all_missing_pair_is_unimputable(self):
        table = make_table(
            [
                ("BR", "", "2020-03-01", {**flat_values(0), "parks": None}),
                ("BR", "", "2020-03-02", {**flat_values(0), "parks": None}),
            ]
        )
        with pytest.raises(DataError, match="parks"):
            impute_missing(table)

    def test_means_are_per_country(self):
        table = make_table(
            [
                ("BR", "", "2020-03-01", {**flat_values(0), "parks": 10}),
                ("BR", "", "2020-03-02", {**flat_values(0), "parks": None}),
                ("AR", "", "2020-03-01", {**flat_values(0), "parks": -90}),
            ]
        )
        filled, _ = impute_missing(table)
        day = dt.date(2020, 3, 2)
        assert filled.column("parks")[filled.rows("BR/", (day, day))].tolist() == [10]

    def test_colombia_shaped_residential_rate(self):
        # 25 regions x 100 days with 457/2500 residential cells blanked:
        # the configured rate 0.1828 must come back exactly in the report
        rng = np.random.default_rng(42)
        blank = set(rng.choice(2500, size=457, replace=False).tolist())
        rows = []
        k = 0
        start = dt.date(2020, 3, 1)
        for reg in range(25):
            for day in range(100):
                values = flat_values(-20.0 - reg)
                if k in blank:
                    values["residential"] = None
                k += 1
                rows.append(("CO", f"D{reg:02d}", (start + dt.timedelta(days=day)).isoformat(), values))
        table = make_table(rows)
        filled, report = impute_missing(table)
        entry = report.entry("CO", "residential")
        assert entry.missing_rate == pytest.approx(0.1828, abs=1 / 2500)
        # fill value equals the mean of the remaining cells, computed by an
        # independent flat pass over the raw rows
        present = [
            row[3]["residential"] for row in rows if row[3]["residential"] is not None
        ]
        expected_fill = sum(present) / len(present)
        assert entry.fill_value == pytest.approx(expected_fill, rel=1e-12)
        assert not np.isnan(filled.column("residential")).any()

    @given(
        data=st.lists(
            st.one_of(st.none(), st.floats(min_value=-100, max_value=200, allow_nan=False)),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_imputation_properties(self, data):
        if all(v is None for v in data):
            return
        start = dt.date(2020, 3, 1)
        rows = [
            ("XX", "", (start + dt.timedelta(days=i)).isoformat(), {**flat_values(0), "parks": v})
            for i, v in enumerate(data)
        ]
        table = make_table(rows)
        filled, _ = impute_missing(table)

        # present values preserved
        before, after = table.column("parks"), filled.column("parks")
        present = ~np.isnan(before)
        assert np.array_equal(after[present], before[present])
        # column mean unchanged
        present = [v for v in data if v is not None]
        premean = sum(present) / len(present)
        vals = filled.column("parks").tolist()
        assert sum(vals) / len(vals) == pytest.approx(premean, rel=1e-9, abs=1e-9)
        # idempotent
        twice, report2 = impute_missing(filled)
        assert write_csv(twice) == write_csv(filled)
        assert report2.entry("XX", "parks").missing_count == 0
