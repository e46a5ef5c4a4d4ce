"""CLI: CSV ingestion, report records, commands, and exit codes."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import almostdom.cli
import almostdom.inference
from almostdom.calculus import GridSpec
from almostdom.cli import PRESETS, ReportRecord, load_csv, main
from almostdom.coefficients import DominanceFamily, difference_curve
from almostdom.covariance import _std_curve, std_curve_for
from almostdom.empirical import EmpiricalDistribution, PairedSample, SamplingScheme
from almostdom.errors import AlmostDomError, CsvParseError, DomainError, NegativeValueError
from almostdom.rng import child_rng
from almostdom.simulation import DiscreteLaw

IND = SamplingScheme.INDEPENDENT
MP = SamplingScheme.MATCHED


NOT_A_NUMBER = "row {row}, column {col}: {text!r} is not a number"
NEGATIVE = "row {row}: negative value {value} not allowed for this family"
LONG_CELL = "4" * (csv.field_size_limit() + 1)
TOO_LONG = f"cannot read {{path}}: field larger than field limit ({csv.field_size_limit()})"

# (id, layout, file texts, require_nonnegative, expected). The layout is
# "pairs" (matched, x1,x2), "groups" (independent, group,value) or "two"
# (independent, two single-column files). ``expected`` is the loaded columns,
# or (error class, row, col, message) with {path} standing for the first
# file. Each outcome was recorded with the reader in use before the current
# one: the row-by-row reader, or for the long-cell cases the one that read
# a file twice.
LOAD_CASES = [
    ("whitespace", "pairs", [" X1 , x2 \n 1 , 2.5 \n\t3,4 \n"], True,
     [[1.0, 3.0], [2.5, 4.0]]),
    ("whitespace-groups", "groups", [" Group ,VALUE\n 2 , 7 \n 1 ,5\n"], False,
     [[5.0], [7.0]]),
    ("whitespace-single", "two", ["value\n 1 \n2\n", " 3\n"], False,
     [[1.0, 2.0], [3.0]]),
    ("whitespace-bad-pairs", "pairs", ["x1,x2\n1, abc \n"], False,
     (CsvParseError, 2, 2, NOT_A_NUMBER.format(row=2, col=2, text=" abc "))),
    ("whitespace-bad-single", "two", ["1\n abc \n", "2\n"], False,
     (CsvParseError, 2, 1, NOT_A_NUMBER.format(row=2, col=1, text="abc"))),
    ("blank-rows", "pairs", ["x1,x2\n\n1,2\n , \n,,,\n  \n3,4\n\n"], False,
     [[1.0, 3.0], [2.0, 4.0]]),
    ("blank-rows-groups", "groups", ["group,value\n\n1,5\n  ,\n2,7\n"], False,
     [[5.0], [7.0]]),
    ("blank-rows-single", "two", ["\n1\n\n   \n2\n", "3\n\n"], False,
     [[1.0, 2.0], [3.0]]),
    ("blank-cells-single", "two", ["1\n,\n2\n", "3\n"], False,
     (CsvParseError, 2, None, "row 2: expected a single column, got 2")),
    ("blank-cell", "pairs", ["x1,x2\n1,\n"], False,
     (CsvParseError, 2, 2, NOT_A_NUMBER.format(row=2, col=2, text=""))),
    ("empty-file", "pairs", [""], False, (CsvParseError, 1, None, "{path} is empty")),
    ("header-only", "pairs", ["x1,x2\n"], False,
     (CsvParseError, 1, None, "{path} contains no data rows")),
    ("header-only-groups", "groups", ["group,value\n"], False,
     (CsvParseError, 1, None, "both groups need at least one row")),
    ("header-only-single", "two", ["value\n", "1\n"], False,
     (CsvParseError, 1, None, "{path} contains no data rows")),
    ("one-group", "groups", ["group,value\n1,2\n1.0,2\n"], False,
     (CsvParseError, 1, None, "both groups need at least one row")),
    ("single-header-row-1", "two", ["value\n1\n", "x\n2\n"], False,
     [[1.0], [2.0]]),
    ("single-header-row-2", "two", ["\nvalue\n1\n", "2\n"], False,
     (CsvParseError, 2, 1, NOT_A_NUMBER.format(row=2, col=1, text="value"))),
    ("single-header-after-data", "two", ["1\n", "2\nvalue\n"], False,
     (CsvParseError, 2, 1, NOT_A_NUMBER.format(row=2, col=1, text="value"))),
    ("underscore-and-plus", "pairs", ["x1,x2\n1_0,+3\n-0.0,1e1\n"], False,
     [[10.0, -0.0], [3.0, 10.0]]),
    ("underscore-single", "two", ["1_0\n+3\n", "2\n"], False,
     [[10.0, 3.0], [2.0]]),
    ("quoted-cells", "pairs", ['x1,x2\n"1","2"\n'], False, [[1.0], [2.0]]),
    ("too-many-columns", "pairs", ["x1,x2\n1,2\n3,4,5\n"], False,
     (CsvParseError, 3, None, "row 3: expected 2 columns")),
    ("too-few-columns", "pairs", ["x1,x2\n1\n"], False,
     (CsvParseError, 2, None, "row 2: expected 2 columns")),
    ("too-many-columns-groups", "groups", ["group,value\n1,2,3\n"], False,
     (CsvParseError, 2, None, "row 2: expected 2 columns")),
    ("too-many-columns-single", "two", ["1\n2,3\n", "4\n"], False,
     (CsvParseError, 2, None, "row 2: expected a single column, got 2")),
    ("group-1.0", "groups", ["group,value\n1.0,5\n2,7\n1,6\n"], False,
     [[5.0, 6.0], [7.0]]),
    ("group-3", "groups", ["group,value\n1,5\n3,7\n"], False,
     (CsvParseError, 3, 1, "row 3: group must be 1 or 2")),
    ("group-text", "groups", ["group,value\n1,5\nabc,7\n"], False,
     (CsvParseError, 3, 1, NOT_A_NUMBER.format(row=3, col=1, text="abc"))),
    ("negative-before-bad", "pairs", ["x1,x2\n1,2\n-3,4\n5,6\n7,abc\n"], True,
     (NegativeValueError, 3, None, NEGATIVE.format(row=3, value="-3.0"))),
    ("bad-before-negative", "pairs", ["x1,x2\n1,2\n3,abc\n5,6\n-7,8\n"], True,
     (CsvParseError, 3, 2, NOT_A_NUMBER.format(row=3, col=2, text="abc"))),
    ("negative-then-bad-in-row", "pairs", ["x1,x2\n-1,abc\n"], True,
     (NegativeValueError, 2, None, NEGATIVE.format(row=2, value="-1.0"))),
    ("bad-then-negative-in-row", "pairs", ["x1,x2\nabc,-1\n"], True,
     (CsvParseError, 2, 1, NOT_A_NUMBER.format(row=2, col=1, text="abc"))),
    ("negative-allowed", "pairs", ["x1,x2\n1,2\n-3,4\n5,abc\n"], False,
     (CsvParseError, 4, 2, NOT_A_NUMBER.format(row=4, col=2, text="abc"))),
    ("negative-inf", "pairs", ["x1,x2\n1,-inf\n"], True,
     (NegativeValueError, 2, None, NEGATIVE.format(row=2, value="-inf"))),
    ("negative-before-bad-group", "groups", ["group,value\n1,-5\n3,7\n"], True,
     (NegativeValueError, 2, None, NEGATIVE.format(row=2, value="-5.0"))),
    ("bad-group-before-negative", "groups", ["group,value\n3,-5\n"], True,
     (CsvParseError, 2, 1, "row 2: group must be 1 or 2")),
    ("negative-single-row-1", "two", ["-1\n2\n", "3\n"], True,
     (NegativeValueError, 1, None, NEGATIVE.format(row=1, value="-1.0"))),
    ("negative-second-file", "two", ["1\n", "value\n2\n-3\n"], True,
     (NegativeValueError, 3, None, NEGATIVE.format(row=3, value="-3.0"))),
    ("wrong-header", "pairs", ["a,b\n1,2\n"], False,
     (CsvParseError, 1, None, "expected header 'x1,x2', got 'a,b'")),
    ("wrong-header-groups", "groups", ["x1,x2\n1,2\n"], False,
     (CsvParseError, 1, None,
      "expected header 'group,value' (or pass two files), got 'x1,x2'")),
    ("nan-cell", "pairs", ["x1,x2\n1,2\nnan,3\n"], True,
     (DomainError, None, None, "first coordinate contains non-finite values")),
    # a cell past csv's field size limit is reported before the faults of
    # any row, the header's among them
    ("wrong-header-then-long-cell", "pairs", ["a,b\n1,2\n3," + LONG_CELL + "\n"], False,
     (AlmostDomError, None, None, TOO_LONG)),
    ("ragged-single-then-long-cell", "two", ["1\n2,3\n" + LONG_CELL + "\n", "4\n"], False,
     (AlmostDomError, None, None, TOO_LONG)),
]


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_matched_two_rows(self, tmp_path):
        path = write(tmp_path / "pairs.csv", "x1,x2\n1,2\n3,4\n")
        pairs = load_csv(path, MP)
        assert isinstance(pairs, PairedSample)
        np.testing.assert_array_equal(pairs.x1, [1.0, 3.0])
        np.testing.assert_array_equal(pairs.x2, [2.0, 4.0])

    def test_grouped_file(self, tmp_path):
        path = write(tmp_path / "groups.csv", "group,value\n1,5\n2,7\n")
        s1, s2 = load_csv(path, IND)
        np.testing.assert_array_equal(s1.values, [5.0])
        np.testing.assert_array_equal(s2.values, [7.0])

    def test_a_named_scheme_reads_its_layout(self, tmp_path):
        # "matched" once took the independent route and asked for a group,value header
        path = write(tmp_path / "pairs.csv", "x1,x2\n1,2\n3,4\n")
        named, given = load_csv(path, "matched"), load_csv(path, MP)
        assert isinstance(named, PairedSample)
        assert (named.x1.tobytes(), named.x2.tobytes()) == (given.x1.tobytes(), given.x2.tobytes())
        path = write(tmp_path / "groups.csv", "group,value\n1,5\n2,7\n1,6\n")
        named, given = load_csv(path, "independent"), load_csv(path, IND)
        for got, want in zip(named, given, strict=True):
            assert got.values.tobytes() == want.values.tobytes()

    def test_two_single_column_files(self, tmp_path):
        p1 = write(tmp_path / "a.csv", "value\n1\n2\n")
        p2 = write(tmp_path / "b.csv", "3\n4\n5\n")
        s1, s2 = load_csv(p1, IND, p2)
        np.testing.assert_array_equal(s1.values, [1.0, 2.0])
        np.testing.assert_array_equal(s2.values, [3.0, 4.0, 5.0])

    def test_parse_error_position(self, tmp_path):
        path = write(tmp_path / "bad.csv", "x1,x2\n1,abc\n")
        with pytest.raises(CsvParseError) as excinfo:
            load_csv(path, MP)
        assert excinfo.value.row == 2
        assert excinfo.value.col == 2

    def test_negative_value_rejected_with_row(self, tmp_path):
        path = write(tmp_path / "neg.csv", "x1,x2\n1,2\n-3,4\n")
        with pytest.raises(NegativeValueError) as excinfo:
            load_csv(path, MP, require_nonnegative=True)
        assert excinfo.value.row == 3

    def test_negative_allowed_when_not_required(self, tmp_path):
        path = write(tmp_path / "neg.csv", "x1,x2\n1,2\n-3,4\n")
        pairs = load_csv(path, MP, require_nonnegative=False)
        assert pairs.x1[1] == -3.0

    def test_bad_group_label(self, tmp_path):
        path = write(tmp_path / "bad.csv", "group,value\n3,5\n")
        with pytest.raises(CsvParseError):
            load_csv(path, IND)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path / "bad.csv", "a,b\n1,2\n")
        with pytest.raises(CsvParseError):
            load_csv(path, MP)

    @pytest.mark.parametrize(
        "layout, texts, nonneg, expected",
        [case[1:] for case in LOAD_CASES],
        ids=[case[0] for case in LOAD_CASES],
    )
    def test_reader_table(self, layout, texts, nonneg, expected, tmp_path):
        paths = [write(tmp_path / f"in{i}.csv", text) for i, text in enumerate(texts)]
        scheme = MP if layout == "pairs" else IND

        def load():
            return load_csv(paths[0], scheme, *paths[1:], require_nonnegative=nonneg)

        if isinstance(expected, tuple):
            cls, row, col, message = expected
            with pytest.raises(cls) as excinfo:
                load()
            exc = excinfo.value
            assert type(exc) is cls
            assert getattr(exc, "row", None) == row
            assert getattr(exc, "col", None) == col
            assert str(exc) == message.format(path=paths[0])
            return
        data = load()
        columns = (data.x1, data.x2) if layout == "pairs" else (data[0].values, data[1].values)
        for got, want in zip(columns, expected, strict=True):
            assert got.tobytes() == np.array(want, dtype=float).tobytes()

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/nope.csv", MP)


# cells of a table, in forms that float and numpy's parser both take, and
# in forms on which they could part: underscores and non-ASCII digits (which
# only float takes), quoting, blanks, and what neither takes
PLAIN_CELLS = [
    "1", "2", "0", "-0", "1.0", "3.5", "-2.5", "1e5", "1E-3", ".5", "5.", "+7", "1e400",
    "1e-400", "nan", "-nan", "NaN", "inf", "-inf", "Infinity", " 4 ", "\t4", "4\xa0",
]
ODD_CELLS = [
    "1_000", "\uff11", "\u0661", "", "  ", '"6"', '"1,5"', '" 8 "', '""', '"7"9', "x", "0x10",
    "1d5", "\x00",
]
GROUP_CELLS = ["1", "2", "1.0", "2e0", " 2 "]
plain_cells = st.one_of(
    st.sampled_from(PLAIN_CELLS), st.floats().map(repr), st.integers(-3, 3).map(str)
)
# one cell in ten odd (one_of would draw each of its strategies alike)
table_cells = st.sampled_from([plain_cells] * 9 + [st.sampled_from(ODD_CELLS)]).flatmap(
    lambda cells: cells
)
group_cells = st.sampled_from(
    [st.sampled_from(GROUP_CELLS)] * 6 + [st.sampled_from(["3", "0", "1.5", "nan"]), table_cells]
).flatmap(lambda cells: cells)
# the first rows of each layout's files: well-formed ones, then bad ones
TABLE_HEADERS = {
    "x1,x2": (["x1,x2", "X1, x2 ", '"x1","X2"'], ["x1,x2,", "x1", "a,b", ""]),
    "group,value": (["group,value", " Group ,VALUE"], ["group,value,", "value"]),
    None: (["value", " Value ", '"value"', "1", ""], ["x,y", "1,2"]),
}


@st.composite
def table_files(draw):
    """The bytes of a CSV file, its header as ``_read_table`` takes it, and
    ``require_nonnegative``: mostly well-formed, with a blank or ragged row,
    an odd header, cell, line end or byte now and then."""
    header = draw(st.sampled_from(sorted(TABLE_HEADERS, key=str)))
    width = len(header.split(",")) if header else 1

    def row():
        kind = draw(st.sampled_from(["data"] * 12 + ["blank", "ragged"]))
        if kind == "blank":
            return draw(st.sampled_from(["", " ", ",", " , ", "\t"]))
        cells = [draw(group_cells if header == "group,value" and i == 0 else table_cells)
                 for i in range(width)]
        if kind == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + [draw(table_cells)]
        return ",".join(cells)

    good, bad = TABLE_HEADERS[header]
    lines = [draw(st.sampled_from(draw(st.sampled_from([good] * 4 + [bad]))))]
    lines += [row() for _ in range(draw(st.integers(0, 8)))]
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if not draw(st.integers(0, 3)):
        text = text.rstrip("\r\n")
    data = draw(st.sampled_from(["", "\ufeff"])).encode() + text.encode()
    odd = draw(st.sampled_from([None] * 8 + ["byte", "long"]))
    if odd == "byte":
        data += b"\xff\n"
    elif odd == "long":
        # past csv's field size limit: a cell the scan refuses and numpy reads
        data += b"1" * (csv.field_size_limit() + 1) + b"\n"
    return data, header, draw(st.sampled_from([False, False, True]))


def read_outcome(reader, path, header, nonneg):
    """A reader's table, to the bit, or its error: class, message and place."""
    try:
        table = reader(path, header, nonneg)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return table.shape, table.strides, table.dtype, table.tobytes()


def scanned(*args):
    """``_read_table`` with every body read cell by cell."""
    with mock.patch.object(almostdom.cli.np, "loadtxt", side_effect=ValueError):
        return almostdom.cli._read_table(*args)


class Scanned(Exception):
    """Raised in place of the cell-by-cell scan."""


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_files())
def test_table_parse_matches_the_scan(case):
    data, header, nonneg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data)
        got = read_outcome(almostdom.cli._read_table, str(path), header, nonneg)
        want = read_outcome(scanned, str(path), header, nonneg)
    assert got == want


@pytest.mark.parametrize(
    "text, header",
    [
        ("x1,x2\n1,2\n3.5,4e1\n", "x1,x2"),
        ("\ufeff X1 ,x2\r\n1,2\r\n\r\n3,-4\r\n", "x1,x2"),
        ("group,value\n1,5\n2,nan\n1.0,inf\n", "group,value"),
        ("value\n1\n\n2", None),
    ],
)
def test_well_formed_tables_parse_in_one_call(text, header, tmp_path):
    path = write(tmp_path / "data.csv", text)
    with mock.patch.object(almostdom.cli, "_scan_table", side_effect=Scanned):
        table = almostdom.cli._read_table(path, header, False)
    assert read_outcome(lambda *args: table, path, header, False) == read_outcome(
        scanned, path, header, False
    )


@pytest.mark.parametrize(
    "text, header, nonneg",
    [
        ("group,value\n1,5\n2,7\n3,6\n", "group,value", False),
        ("group,value\n1,5\n1,7\n", "group,value", False),
        ("x1,x2\n1,2\n3,-4\n", "x1,x2", True),
        ("value\n\n", None, False),
        ("x1,x2,x3\n1,2,3\n", "x1,x2", False),
        ("value\n1,2\n", None, False),
        ("x1,x2\n1,2\n\"3\",4\n", "x1,x2", False),
        ("x1,x2\n1,2\n3," + "4" * (csv.field_size_limit() + 1) + "\n", "x1,x2", False),
    ],
    ids=["group-3", "one-group", "negative", "no-rows", "header", "width", "quoted", "long"],
)
def test_faulty_tables_go_to_the_scan(text, header, nonneg, tmp_path):
    # each file breaks a rule that the one-call parse does not take: its
    # body goes to the scan, or a rule that both share reports it (the
    # header, and the row counts); the quoted file is well-formed, but
    # only the scan reads quotes
    path = write(tmp_path / "data.csv", text)
    with mock.patch.object(almostdom.cli, "_scan_table", side_effect=Scanned):
        outcome = read_outcome(almostdom.cli._read_table, path, header, nonneg)
    assert outcome[0] is Scanned or outcome[:1] + outcome[2:] == (CsvParseError, 1, None)


class TestReportRecord:
    def test_json_round_trip(self):
        record = ReportRecord(
            family="lorenz",
            m=2,
            direction="down",
            n1=100,
            n2=120,
            c_hat=0.123456789012345678,
            ci_lo=0.05,
            ci_hi=0.37,
            t_n=0.001,
            xi0=0.001,
            n_boot=1000,
            n_boot_effective=990,
            seed=42,
            boundary_flag=False,
            plus_nodes=700,
            minus_nodes=250,
            zero_nodes=50,
            runtime_ms=12.5,
        )
        assert ReportRecord.from_json(record.to_json()) == record

    def test_record_without_node_counts_parses(self):
        data = {
            "family": "sd", "m": 1, "direction": "up", "n1": 50, "n2": 60,
            "c_hat": 0.25, "ci_lo": 0.1, "ci_hi": 0.4, "t_n": 0.5, "xi0": 0.001,
            "n_boot": 200, "n_boot_effective": 200, "seed": 3, "boundary_flag": False,
            "runtime_ms": 4.5,
        }
        record = ReportRecord.from_json(json.dumps(data))
        assert (record.plus_nodes, record.minus_nodes, record.zero_nodes) == (-1, -1, -1)
        assert record.runtime_ms == 4.5 and record.seed == 3


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture
def matched_file(tmp_path):
    rng = np.random.default_rng(7)
    rows = np.column_stack(
        [rng.exponential(size=80) + 0.05, rng.gamma(2.0, size=80) + 0.05]
    )
    lines = ["x1,x2"] + [f"{a},{b}" for a, b in rows]
    return write(tmp_path / "data.csv", "\n".join(lines) + "\n")


class TestEstimateCommand:
    def test_json_report(self, matched_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "estimate", "--family", "lorenz", "--m", "1",
                "--scheme", "matched", "--input", matched_file,
                "--grid", "200", "--output", out,
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["family"] == "lorenz"
        assert payload["n1"] == payload["n2"] == 80
        assert 0.0 <= payload["c_hat"] <= 1.0
        assert payload["c_hat"] == pytest.approx(
            payload["pos_area"] / (payload["pos_area"] + payload["neg_area"])
        )

    def test_byte_order_mark(self, matched_file, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a leading byte-order mark
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(matched_file).read_bytes())
        payloads = []
        for name, source in (("plain", matched_file), ("marked", marked)):
            out = tmp_path / f"{name}.json"
            code = run_cli(
                [
                    "estimate", "--family", "lorenz", "--m", "1",
                    "--scheme", "matched", "--input", source,
                    "--grid", "200", "--output", out,
                ]
            )
            assert code == 0
            payload = json.loads(out.read_text())
            payload.pop("runtime_ms")
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_degenerate_exit_code(self, tmp_path):
        lines = ["x1,x2"] + [f"{v},{v}" for v in (1.0, 2.0, 3.0, 4.0)]
        path = write(tmp_path / "same.csv", "\n".join(lines) + "\n")
        code = run_cli(
            ["estimate", "--family", "lorenz", "--scheme", "matched", "--input", path]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [["--family", "sd"], ["--family", "sd", "--domain", "0,10"], ["--family", "lorenz"]],
    )
    def test_identical_samples_exit_two(self, extra, tmp_path, capsys):
        # three equal pairs pool into one point, which leaves sd no default
        # domain; every family reads the samples as indistinguishable
        path = write(tmp_path / "same.csv", "x1,x2\n3,3\n3,3\n3,3\n")
        assert run_cli(["estimate", "--scheme", "matched", "--input", path, *extra]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_negative_data_exit_code(self, tmp_path):
        path = write(tmp_path / "neg.csv", "x1,x2\n1,2\n-1,3\n")
        code = run_cli(
            ["estimate", "--family", "lorenz", "--scheme", "matched", "--input", path]
        )
        assert code == 1

    def test_missing_file_exit_code(self):
        code = run_cli(
            [
                "estimate", "--family", "lorenz", "--scheme", "matched",
                "--input", "/nonexistent/x.csv",
            ]
        )
        assert code == 1

    def test_sd_family_with_domain(self, matched_file, tmp_path):
        out = tmp_path / "sd.json"
        code = run_cli(
            [
                "estimate", "--family", "sd", "--m", "1", "--scheme", "matched",
                "--input", matched_file, "--domain", "0,60", "--output", out,
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["domain_lo"] == 0.0 and payload["domain_hi"] == 60.0

    @pytest.mark.parametrize(
        "domain",
        [["--domain", "-1,60"], ["--domain=-1,60"], ["--dom", "-1,60"], ["--do", "-1,60"]],
    )
    def test_sd_domain_with_a_negative_end(self, matched_file, tmp_path, domain):
        # argparse alone reads the -1,60 of the spaced forms as an option
        out = tmp_path / "sd.json"
        argv = ["estimate", "--family", "sd", "--scheme", "matched", "--input", matched_file]
        assert run_cli(argv + domain + ["--output", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["domain_lo"] == -1.0 and payload["domain_hi"] == 60.0

    def test_sd_curves(self, matched_file, tmp_path):
        out, curves = tmp_path / "sd.json", tmp_path / "curves.csv"
        code = run_cli(
            [
                "estimate", "--family", "sd", "--m", "2", "--scheme", "matched",
                "--input", matched_file, "--grid", "60", "--output", out,
                "--emit-curves", curves,
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        spec = GridSpec(60, (payload["domain_lo"], payload["domain_hi"]))
        with open(curves) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["p", "curve1", "curve2", "diff", "std"]
        p, curve1, curve2, diff, _ = np.array(rows[1:], dtype=float).T
        pairs = load_csv(matched_file, MP)
        family = DominanceFamily.sd(2)
        np.testing.assert_array_equal(p, spec.nodes())
        for curve, sample in ((curve1, pairs.x1), (curve2, pairs.x2)):
            cdf = EmpiricalDistribution(sample).cdf(spec.nodes())
            np.testing.assert_array_equal(curve, family.integrate(cdf, spec.step))
        scale = np.abs(np.concatenate((curve1, curve2))).max()
        np.testing.assert_allclose(diff, curve1 - curve2, rtol=0.0, atol=1e-13 * scale)

    def test_interval_where_the_scaled_areas_underflow(self, tmp_path):
        # at SD 2 the scaled areas of 40 pairs on [0, 4e-300] read 0, yet the
        # coefficient and its interval come from the node sums
        rng = child_rng(0, 0)
        rows = np.column_stack((rng.uniform(0.0, 4e-300, 40), rng.uniform(0.0, 4e-300, 40)))
        path = write(tmp_path / "tiny.csv", "x1,x2\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in rows.tolist()
        ))
        common = ["--family", "sd", "--m", "2", "--scheme", "matched", "--input", path,
                  "--grid", "50"]
        assert run_cli(["estimate", *common, "--output", tmp_path / "e.json"]) == 0
        args = ["ci", *common, "--tn", "1", "--boot", "100", "--threads", "1"]
        assert run_cli(args + ["--output", tmp_path / "c.json"]) == 0
        estimate = json.loads((tmp_path / "e.json").read_text())
        interval = json.loads((tmp_path / "c.json").read_text())
        assert estimate["pos_area"] == estimate["neg_area"] == 0.0
        assert interval["c_hat"] == estimate["c_hat"]
        assert interval["ci_lo"] < interval["c_hat"] <= interval["ci_hi"]


class TestBadInput:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--family", "lorenz", "--input", "NAN_FILE"],
            ["--family", "lorenz", "--input", "DATA", "--grid", "1"],
            ["--family", "sd", "--input", "DATA", "--domain", "5,1"],
            ["--family", "lorenz", "--input", "BAD_BYTES"],
            ["--family", "lorenz", "--input", "HUGE_FIELD"],
        ],
        ids=["nan-cell", "grid-1", "reversed-domain", "not-utf8", "huge-field"],
    )
    def test_one_error_line(self, extra, matched_file, tmp_path, capsys):
        nan_file = write(tmp_path / "nan.csv", "x1,x2\n1,2\nnan,3\n")
        bad_bytes = tmp_path / "bytes.csv"
        bad_bytes.write_bytes(b"x1,x2\n1,2\n\xff\xfe,3\n")
        # a cell longer than the csv module's field limit (131072 characters)
        huge_field = write(tmp_path / "huge.csv", "x1,x2\n" + "1" * 200_000 + ",2\n")
        paths = {
            "NAN_FILE": nan_file,
            "DATA": matched_file,
            "BAD_BYTES": str(bad_bytes),
            "HUGE_FIELD": huge_field,
        }
        code = run_cli(
            ["estimate", "--scheme", "matched"] + [paths.get(a, a) for a in extra]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if extra[-1] in ("BAD_BYTES", "HUGE_FIELD"):
            assert paths[extra[-1]] in lines[0]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["simulate", "--preset", "sdc-a", "--n1", "5", "--n2", "5", "--reps", "2",
              "--boot", "5", "--tn", "1", "--threads", "1", "--grid", "1"],
             "grid_points"),
            (["estimate", "--family", "foo", "--scheme", "matched", "--input", "DATA"],
             "--family"),
            (["ci", "--family", "lorenz", "--scheme", "matched", "--input", "DATA",
              "--tn", "1", "--boot", "abc"], "--boot"),
            (["estimate", "--scheme", "matched", "--input", "DATA"], "--family"),
            (["estimate", "--family", "lorenz", "--scheme", "matched", "--input", "DATA",
              "--output", "DIR"], "DIR"),
            (["estimate", "--family", "lorenz", "--scheme", "matched", "--input", "DATA",
              "--emit-curves", "DIR"], "DIR"),
            (["tune", "--family", "lorenz", "--scheme", "matched", "--input", "DATA",
              "--boot", "5"], "--boot"),
            # at seeds 1 and 4 every calibration replicate of these two pairs
            # fails, which must not hide the bad candidate
            *((["tune", "--family", "lorenz", "--scheme", "matched", "--input", "TWO",
                "--candidates=-1,1", "--cal-reps", "1", "--cal-boot", "5", "--grid", "4",
                "--seed", seed, "--threads", "1"], "t_n must be positive")
              for seed in ("1", "4")),
        ],
        ids=[
            "simulate-grid-1", "unknown-family", "boot-not-int", "missing-family",
            "output-directory", "curves-directory", "tune-boot",
            "tune-bad-candidate-seed-1", "tune-bad-candidate-seed-4",
        ],
    )
    def test_one_named_error_line(self, argv, named, matched_file, tmp_path, capsys):
        # usage errors and write failures exit 1 with one line naming the cause
        two = write(tmp_path / "two.csv", "x1,x2\n1,1\n2,3\n")
        paths = {"DATA": matched_file, "DIR": str(tmp_path), "TWO": two}
        code = run_cli([paths.get(a, a) for a in argv])
        err = capsys.readouterr().err
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert paths.get(named, named) in lines[0]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["ci", "--help"])
        assert excinfo.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: almostdom ci") and err == ""

    def test_simulate_size_one(self, capsys):
        code = run_cli(
            [
                "simulate", "--preset", "sdc-a", "--scheme", "ind",
                "--n1", "1", "--n2", "40", "--reps", "2", "--boot", "10",
                "--tn", "0.001", "--threads", "1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: sample sizes")


    @pytest.mark.parametrize(
        "argv, threads, named",
        [
            (["ci", "--tn", "1", "--boot", "5"], "abc", "ALMOSTDOM_THREADS must be an integer"),
            (["tune", "--candidates", "a,b"], "1", "--candidates must be comma-separated"),
            (["tune", "--candidates", ","], "1", "--candidates is empty"),
            (["estimate", "--domain", "1,2,3"], "1", "--domain needs exactly two numbers"),
            (["ci", "--tn", "inf", "--boot", "5"], "1", "t_n must be positive and finite"),
            (["ci", "--tn", "1", "--xi0", "inf", "--boot", "5"], "1",
             "xi0 must be positive and finite"),
            (["tune", "--candidates", "1,inf"], "1", "t_n must be positive and finite"),
        ],
        ids=[
            "threads-env-not-int", "candidates-not-numbers", "candidates-empty",
            "domain-three-numbers", "ci-infinite-tn", "ci-infinite-xi0",
            "tune-infinite-candidate",
        ],
    )
    def test_one_error_line_per_bad_setting(self, argv, threads, named, matched_file,
                                            monkeypatch, capsys):
        monkeypatch.setenv("ALMOSTDOM_THREADS", threads)
        code = run_cli(argv + ["--family", "lorenz", "--scheme", "matched", "--input",
                               matched_file, "--grid", "20"])
        err = capsys.readouterr().err
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {named}")


def run_quietly(args):
    """Exit code, stdout and stderr of ``main``, and the warnings it issued."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(args)
    return code, out.getvalue(), err.getvalue(), caught


# one huge value per column: the sorted prefix sums overflow, the CDFs do not
HUGE = "x1,x2\n1e308,1\n1e308,2\n1,1e308\n"
# runs each CLI command of the JSON list in argv[1] in turn; after each it
# prints the exit code and which of the modules that only a process pool
# or numpy.ma needs are loaded
FOOTPRINT_PROBE = """
import json, sys
from almostdom.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    lazy = ["numpy.ma", "multiprocessing", "concurrent.futures.process"]
    print(json.dumps([code, [name for name in lazy if name in sys.modules]]))
"""


class TestOverflow:
    @pytest.mark.parametrize("command", [[], ["ci", "--tn", "1", "--boot", "50"]])
    def test_sd_one_needs_no_sums(self, command, tmp_path):
        path = write(tmp_path / "huge.csv", HUGE)
        args = command or ["estimate"]
        args += ["--family", "sd", "--scheme", "matched", "--input", path, "--grid", "10",
                 "--threads", "1"]
        code, out, err, caught = run_quietly(args)
        assert code == 0 and err == "" and caught == []
        assert json.loads(out)["c_hat"] == 0.0

    @pytest.mark.parametrize(
        "text, extra",
        [
            (HUGE, ["estimate", "--family", "lorenz", "--m", "2"]),
            (HUGE, ["ci", "--family", "lorenz", "--tn", "1", "--boot", "5"]),
            (HUGE, ["estimate", "--family", "isd", "--m", "2"]),
            (HUGE, ["tune", "--family", "isd", "--m", "3", "--cal-reps", "2"]),
            (HUGE, ["estimate", "--family", "sd", "--m", "2"]),
            (HUGE.replace("e308", "e300"), ["estimate", "--family", "sd", "--m", "3"]),
            ("x1,x2\n1,2\n3,1\n", ["estimate", "--family", "sd", "--domain=-1e308,1e308"]),
        ],
        ids=["lorenz-2", "lorenz-ci", "isd-2", "isd-tune", "sd-2", "sd-3", "sd-domain"],
    )
    def test_one_error_line_names_the_overflow(self, text, extra, tmp_path):
        path = write(tmp_path / "huge.csv", text)
        args = extra + ["--scheme", "matched", "--input", path, "--grid", "10", "--threads", "1"]
        code, out, err, caught = run_quietly(args)
        assert code == 1 and out == "" and caught == []
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "overflow" in lines[0]


# cells near the edges of the float range come up often, so that two huge
# cells meet in one column
EDGE_CELLS = ["1e308", "1.7e308", "-1e308", "1e300", "-0.0", "0", "5e-324", "1e-320",
              "1", "2", "3.5"]
cells = st.one_of(
    st.sampled_from(EDGE_CELLS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "inf", "", "x"]),
)


@st.composite
def cli_cases(draw):
    scheme = draw(st.sampled_from(["matched", "ind"]))
    n_rows = draw(st.integers(1, 6))
    if scheme == "matched":
        rows = ["x1,x2"] + [f"{draw(cells)},{draw(cells)}" for _ in range(n_rows)]
    else:
        groups = st.sampled_from(["1", "2", "1", "2", "3"])
        rows = ["group,value"] + [f"{draw(groups)},{draw(cells)}" for _ in range(n_rows)]
    args = [
        draw(st.sampled_from(["estimate", "ci", "tune"])),
        "--family", draw(st.sampled_from(["lorenz", "isd", "sd"])),
        "--m", draw(st.sampled_from(["1", "2", "3"])),
        "--dir", draw(st.sampled_from(["up", "down"])),
        "--scheme", scheme,
        "--grid", draw(st.sampled_from(["2", "3", "10"])),
        "--threads", "1",
    ]
    domain = draw(st.sampled_from([None, "0,1", "-1e308,1e308", "0,1e308", "5e-324,1e-323"]))
    if domain is not None:
        args.append(f"--domain={domain}")
    if args[0] == "ci":
        args += ["--tn", "1", "--boot", "5"]
    if args[0] == "tune":
        args += ["--cal-reps", "2", "--cal-boot", "3"]
    # spreadsheet programs lead a "CSV UTF-8" file with a byte-order mark
    mark = draw(st.sampled_from(["", "\ufeff"]))
    return mark + "\n".join(rows) + "\n", args


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_cases())
# Lorenz means whose product underflows to zero
@example(
    case=(
        "x1,x2\n-0.0,1e308\n1e-320,1e300\n",
        ["ci", "--family", "lorenz", "--m", "1", "--dir", "up", "--scheme", "matched",
         "--grid", "2", "--threads", "1", "--tn", "1", "--boot", "5"],
    )
)
def test_any_input_gives_a_result_or_one_error_line(case):
    text, args = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "data.csv", text)
        code, _, err, caught = run_quietly(args + ["--input", path])
    assert code in (0, 1, 2, 3)
    lines = err.splitlines()
    assert err == "" or (len(lines) == 1 and lines[0].startswith("error: "))
    assert [str(w.message) for w in caught] == []



@st.composite
def measures_and_simulate_cases(draw):
    """A single-column file and ``measures`` flags, or ``simulate`` flags alone."""
    if draw(st.booleans()):
        rows = [draw(cells) for _ in range(draw(st.integers(1, 6)))]
        grid = draw(st.sampled_from(["2", "3", "10", "1000"]))
        return "\n".join(rows) + "\n", ["measures", "--grid", grid]

    def pick(*values):
        return str(draw(st.sampled_from(values)))

    return None, [
        "simulate", "--preset", pick(*sorted(PRESETS)), "--scheme", pick("matched", "ind"),
        "--n1", pick(0, 1, 2, 3, 7), "--n2", pick(0, 1, 2, 3, 7),
        "--reps", pick(0, 1, 2), "--boot", pick(0, 1, 3),
        "--tn", pick(0, -1, 1e-300, 1, 1e300, "nan"), "--grid", pick(1, 2, 3, 10),
        "--alpha", pick(0, 0.05, 0.49, "nan"), "--seed", pick(-1, 0, 5, 2**64),
        "--threads", "1",
    ]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(measures_and_simulate_cases())
@example(("value\n1e308\n1e308\n1\n", ["measures", "--grid", "2"]))
def test_measures_and_simulate_give_a_result_or_one_error_line(case):
    text, args = case
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            args = args + ["--input", write(Path(tmp) / "data.csv", text)]
        code, out, err, caught = run_quietly(args)
    assert code in (0, 1, 2, 3)
    lines = err.splitlines()
    assert err == "" or (len(lines) == 1 and lines[0].startswith("error: "))
    assert [str(w.message) for w in caught] == []
    if args[0] == "measures" and code == 0:
        record = json.loads(out)
        assert np.isfinite([record["mean"], record["welfare"], record["inequality"]]).all()


# rows a CSV file may hold besides clean data: blank or whitespace-only
BLANK_ROWS = [b"", b"   ", b" \t ", b",", b" , "]
LONG = 100_000  # characters in one field


@st.composite
def tuning_cases(draw):
    """The bytes of an input file and the flags of ``ci --tune`` or ``tune``."""
    scheme = draw(st.sampled_from(["matched", "ind"]))
    if scheme == "matched":
        header, rows = b"x1,x2", [b"1,2", b"2,1", b"1,3", b"3,3", b"0.5,4"]
    else:
        header, rows = b"group,value", [b"1,1", b"2,2", b"1,3", b"2,0.5", b"1,4", b"2,5"]
    extra = draw(st.lists(st.sampled_from(rows + BLANK_ROWS), max_size=5))
    body = list(draw(st.permutations(rows[:3] + extra)))
    # every list of choices leads with a valid one, which hypothesis draws most
    odd = draw(st.sampled_from([None, "long", "byte", "bom"]))
    if odd == "bom":
        header = b"\xef\xbb\xbf" + header
    elif odd is not None:
        field = b"\xff" if odd == "byte" else draw(st.sampled_from(
            [b"1" * LONG, b"0." + b"0" * LONG + b"1", b"x" * LONG, b" " * LONG + b"2"]
        ))
        body.insert(draw(st.integers(0, len(body))), b"1," + field)
    candidates = draw(st.lists(
        st.sampled_from(["1", "20", "inf", "1e-300", "", "0", "-1", "nan"]),
        min_size=1, max_size=3,
    ))

    def pick(*values):
        return str(draw(st.sampled_from(values)))

    family = pick("lorenz", "isd", "sd")
    args = draw(st.sampled_from([["ci", "--tune", "--boot", "5"], ["tune"]])) + [
        "--family", family, "--m", pick(2, 3) if family == "isd" else pick(1, 2, 3),
        "--dir", pick("up", "down"), "--scheme", scheme, "--grid", pick(2, 3, 10),
        f"--candidates={','.join(candidates)}", "--cal-reps", pick(1, 2, 3, 0),
        "--cal-boot", pick(3, 1, 0), "--threads", "1",
    ]
    return b"\n".join([header] + body) + b"\n", args


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tuning_cases())
def test_tuning_gives_a_result_or_one_error_line(case):
    data, args = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data)
        code, _, err, caught = run_quietly(args + ["--input", str(path)])
    assert code in (0, 1, 2, 3)
    lines = err.splitlines()
    assert err == "" or (len(lines) == 1 and lines[0].startswith("error: "))
    assert [str(w.message) for w in caught] == []


@st.composite
def large_files(draw):
    """The text of a file of 10**3 to 10**4 rows per sample, each column heavy
    tailed, tied or near constant, and its scheme."""
    scheme = draw(st.sampled_from(["matched", "ind"]))
    n_rows = draw(st.integers(1000, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column():
        kind = draw(st.sampled_from(["tail", "ties", "near-constant"]))
        if kind == "tail":
            return rng.pareto(draw(st.sampled_from([0.5, 1.3, 3.0])), n_rows) + 1.0
        if kind == "ties":
            return np.round(rng.lognormal(0.0, 1.0, n_rows), draw(st.sampled_from([0, 1])))
        return 5.0 + draw(st.sampled_from([0.0, 1e-12, 1e-6])) * rng.random(n_rows)

    x1, x2 = column().tolist(), column().tolist()
    if scheme == "matched":
        rows = ["x1,x2"] + [f"{a!r},{b!r}" for a, b in zip(x1, x2)]
    else:
        rows = ["group,value"] + [f"1,{a!r}" for a in x1] + [f"2,{b!r}" for b in x2]
    return "\n".join(rows) + "\n", scheme


@pytest.mark.parametrize(
    "family, degrees",
    [("sd", ["2"]), ("sd", ["3"]), ("lorenz", ["1", "2"]), ("isd", ["3", "4"])],
    ids=["sd-2", "sd-3", "lorenz", "isd"],
)
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_large_files_give_a_result_or_one_error_line(family, degrees, data):
    text, scheme = data.draw(large_files())
    command = data.draw(st.sampled_from([
        ["estimate"],
        ["ci", "--tn", "1", "--boot", "20"],
        ["tune", "--cal-reps", "2", "--cal-boot", "5"],
    ]))
    args = command + [
        "--family", family, "--m", data.draw(st.sampled_from(degrees)),
        "--dir", data.draw(st.sampled_from(["up", "down"])), "--scheme", scheme,
        "--threads", "1",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "data.csv", text)
        code, _, err, caught = run_quietly(args + ["--input", path])
    assert code in (0, 1, 2, 3)
    lines = err.splitlines()
    assert err == "" or (len(lines) == 1 and lines[0].startswith("error: "))
    assert [str(w.message) for w in caught] == []


class TestCiCommand:
    def args(self, matched_file, out, seed=3):
        return [
            "ci", "--family", "lorenz", "--m", "1", "--scheme", "matched",
            "--input", matched_file, "--grid", "150", "--tn", "0.001",
            "--boot", "60", "--seed", seed, "--output", out,
        ]

    def test_report_and_reproducibility(self, matched_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli(self.args(matched_file, out1)) == 0
        assert run_cli(self.args(matched_file, out2)) == 0
        r1 = ReportRecord.from_json(out1.read_text())
        r2 = ReportRecord.from_json(out2.read_text())
        # runtime differs between runs; every statistical field agrees
        assert r1.c_hat == r2.c_hat
        assert (r1.ci_lo, r1.ci_hi) == (r2.ci_lo, r2.ci_hi)
        assert r1.seed == r2.seed == 3
        assert r1.n_boot_effective == r2.n_boot_effective == 60
        assert 0.0 <= r1.ci_lo <= r1.ci_hi <= 1.0

    def test_needs_tn_or_tune(self, matched_file):
        code = run_cli(
            [
                "ci", "--family", "lorenz", "--scheme", "matched",
                "--input", matched_file, "--boot", "20",
            ]
        )
        assert code == 1

    def test_tn_and_tune_conflict(self, matched_file):
        code = run_cli(
            [
                "ci", "--family", "lorenz", "--scheme", "matched",
                "--input", matched_file, "--tn", "0.1", "--tune", "--boot", "20",
            ]
        )
        assert code == 1

    def test_threads_env_fallback(self, matched_file, tmp_path, monkeypatch):
        monkeypatch.setenv("ALMOSTDOM_THREADS", "1")
        out = tmp_path / "env.json"
        args = self.args(matched_file, out)
        assert "--threads" not in args
        assert run_cli(args) == 0

    @staticmethod
    def threads(value, from_env, monkeypatch):
        """The flags asking for ``value`` workers, or none with the request in
        the environment."""
        if from_env:
            monkeypatch.setenv("ALMOSTDOM_THREADS", value)
            return []
        return ["--threads", value]

    @pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
    def test_thread_count_is_bounded(self, from_env, matched_file, tmp_path, monkeypatch,
                                     pool_requests):
        threads = self.threads("5000", from_env, monkeypatch)
        # on 150 nodes, 6 replicates past one chunk's budget // 150 rows make
        # two chunks: two workers, however many are asked for
        args = self.args(matched_file, tmp_path / "r.json")
        args[args.index("--boot") + 1] = str(almostdom.inference._CHUNK_BUDGET // 150 + 6)
        assert run_cli(args + threads) == 0
        # three study replicates: three workers
        simulate = ["simulate", "--preset", "sdc-a", "--n1", "20", "--n2", "20", "--reps", "3",
                    "--boot", "5", "--tn", "1", "--grid", "20", "--output", tmp_path / "s.json"]
        assert run_cli(simulate + threads) == 0
        assert pool_requests == [2, 3]

    @pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
    def test_negative_thread_count(self, from_env, matched_file, tmp_path, monkeypatch, capsys,
                                   pool_requests):
        threads = self.threads("-2", from_env, monkeypatch)
        assert run_cli(self.args(matched_file, tmp_path / "r.json") + threads) == 1
        assert capsys.readouterr().err.splitlines() == ["error: thread count must be >= 0, got -2"]
        assert pool_requests == []

    def test_serial_runs_load_no_pool(self, matched_file, tmp_path):
        # a fresh interpreter runs each command with one thread, then a ci of
        # two chunks with two; only the last may load the process pool, and
        # none loads numpy.ma
        def ci(out):
            args = self.args(matched_file, out)
            args[args.index("--boot") + 1] = str(almostdom.inference._CHUNK_BUDGET // 150 + 6)
            return args

        source = ["--family", "lorenz", "--scheme", "matched", "--input", matched_file]
        runs = [
            ["estimate", *source, "--output", tmp_path / "e.json"],
            ci(tmp_path / "serial.json"),
            ["tune", *source, "--cal-reps", "2", "--cal-boot", "5", "--grid", "20",
             "--output", tmp_path / "t.json"],
            ["simulate", "--preset", "sdc-b", "--n1", "20", "--n2", "20", "--reps", "2",
             "--boot", "5", "--tn", "1", "--grid", "20", "--output", tmp_path / "s.json"],
        ]
        runs = [run + ["--threads", "1"] for run in runs]
        runs.append(ci(tmp_path / "pooled.json") + ["--threads", "2"])
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", FOOTPRINT_PROBE, json.dumps([[str(a) for a in r] for r in runs])],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        *serial, last = [json.loads(line) for line in done.stdout.splitlines()]
        assert serial == [[0, []]] * 4
        assert last[0] == 0 and "numpy.ma" not in last[1]
        if (os.cpu_count() or 1) > 1:
            assert "concurrent.futures.process" in last[1]
        records = []
        for path in ("serial.json", "pooled.json"):
            payload = json.loads((tmp_path / path).read_text())
            del payload["runtime_ms"]
            records.append(payload)
        assert records[0] == records[1]

    def test_out_of_memory_is_one_line(self, matched_file):
        # 10**15 nodes ask for petabytes, past any 47-bit address space, so
        # the allocation fails without touching memory
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "almostdom.cli", "ci", "--family", "lorenz", "--scheme",
             "matched", "--input", str(matched_file), "--tn", "1", "--grid", str(10**15)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1 and done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and len(line) > len("error: ")

    def test_bare_out_of_memory_is_named(self, matched_file, tmp_path, monkeypatch, capsys):
        # a MemoryError without a message still says what went wrong
        def out_of_memory(args):
            raise MemoryError()

        monkeypatch.setattr(almostdom.cli, "_cmd_ci", out_of_memory)
        assert run_cli(self.args(matched_file, tmp_path / "r.json")) == 1
        assert capsys.readouterr().err.splitlines() == ["error: out of memory"]

    def test_csv_format(self, matched_file, tmp_path):
        out = tmp_path / "r.csv"
        args = self.args(matched_file, out) + ["--format", "csv"]
        assert run_cli(args) == 0
        header, row = out.read_text().strip().splitlines()
        assert header.split(",")[:5] == ["family", "m", "direction", "n1", "n2"]
        assert row.split(",")[0] == "lorenz"

    def test_unusable_resamples_are_dropped(self, tmp_path):
        # resampling the first coordinate {0, 0, 0, 1} often draws only zeros,
        # whose Lorenz curve does not exist: those resamples give no draw
        path = write(tmp_path / "zeros.csv", "x1,x2\n0,1\n0,2\n0,3\n1,4\n")
        code, out, err, caught = run_quietly(
            ["ci", "--family", "lorenz", "--scheme", "matched", "--input", path, "--tn", "1",
             "--boot", "50", "--grid", "64", "--seed", "11", "--threads", "1"]
        )
        assert code == 0 and err == "" and caught == []
        record = json.loads(out)
        assert record["n_boot"] == 50 and record["n_boot_effective"] == 33

    def test_strict_boundary_exit_code(self, tmp_path):
        lines = ["x1,x2"] + [f"5,{v}" for v in (1.0, 2.0, 3.0, 4.0, 2.5, 1.5)]
        path = write(tmp_path / "flat.csv", "\n".join(lines) + "\n")
        base = [
            "ci", "--family", "lorenz", "--scheme", "matched", "--input", path,
            "--tn", "0.001", "--boot", "30", "--seed", "1",
        ]
        assert run_cli(base) == 0
        assert run_cli(base + ["--strict"]) == 3

    def test_emit_curves(self, matched_file, tmp_path):
        out = tmp_path / "r.json"
        curves = tmp_path / "curves.csv"
        args = self.args(matched_file, out) + ["--emit-curves", curves]
        assert run_cli(args) == 0
        with open(curves) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["p", "curve1", "curve2", "diff", "std"]
        assert len(rows) == 151

    def test_emit_curves_reuses_the_interval_std(self, matched_file, tmp_path, monkeypatch):
        # the curves file takes diff and std from the interval, not from a second pass
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _std_curve(*args, **kwargs)

        monkeypatch.setattr(almostdom.inference, "_std_curve", counted)
        monkeypatch.setattr(almostdom.cli, "_std_curve", counted)
        curves = tmp_path / "curves.csv"
        args = self.args(matched_file, tmp_path / "r.json") + ["--emit-curves", curves]
        assert run_cli(args) == 0
        assert len(calls) == 1
        with open(curves) as handle:
            rows = list(csv.reader(handle))
        columns = np.array(rows[1:], dtype=float).T
        pairs = load_csv(matched_file, MP)
        d1, d2 = EmpiricalDistribution(pairs.x1), EmpiricalDistribution(pairs.x2)
        family, spec = DominanceFamily.lorenz(1), GridSpec(150)
        diff = difference_curve(family, d1, d2, spec)
        std = std_curve_for(family, d1, d2, pairs, MP, spec)
        np.testing.assert_array_equal(columns[3], diff.values)
        np.testing.assert_array_equal(columns[4], std.values)

    def test_lorenz_record_does_not_depend_on_the_scale(self, tmp_path):
        # the Lorenz curves and their studentization are scale-free; scaled
        # by a power of two, whose squares overflow, the data give the same
        # record
        rng = np.random.default_rng(3)
        x1 = rng.lognormal(0.0, 0.5, 200)
        rows = np.column_stack([x1, rng.gamma(3.0, size=200) + 0.2 * x1])
        records = []
        for name, scale in (("plain", 1.0), ("scaled", 2.0**520)):
            lines = ["x1,x2"] + [f"{float(a)!r},{float(b)!r}" for a, b in rows * scale]
            path = write(tmp_path / f"{name}.csv", "\n".join(lines) + "\n")
            out = tmp_path / f"{name}.json"
            args = ["ci", "--family", "lorenz", "--m", "2", "--scheme", "matched", "--input",
                    path, "--tn", "1", "--boot", "200", "--threads", "1", "--output", out]
            assert run_cli(args) == 0
            payload = json.loads(out.read_text())
            del payload["runtime_ms"]
            records.append(payload)
        assert records[0] == records[1]
        assert 0.0 < records[0]["ci_lo"] < 1.0 and records[0]["zero_nodes"] > 0


class TestSimulateCommand:
    def test_preset_report(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run_cli(
            [
                "simulate", "--preset", "sdc-a", "--scheme", "matched",
                "--n1", "40", "--n2", "40", "--reps", "5", "--boot", "20",
                "--tn", "0.001", "--seed", "9", "--grid", "200",
                "--threads", "1", "--output", out,
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["true_c"] == pytest.approx(3 / 37, abs=1e-12)
        for key in ("Mean", "Bias", "SE", "RMSE", "t_n", "CR", "CR_se", "failed"):
            assert key in payload
        cr, used = payload["CR"], payload["reps"] - payload["failed"]
        assert payload["failed"] == 0
        assert payload["CR_se"] == np.sqrt(cr * (1.0 - cr) / used)

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run_cli(
            [
                "simulate", "--preset", "sdc-d", "--scheme", "matched",
                "--n1", "30", "--n2", "30", "--reps", "3", "--boot", "15",
                "--tn", "0.001", "--seed", "2", "--grid", "150",
                "--threads", "1", "--format", "csv", "--output", out,
            ]
        )
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        for column in ("Mean", "Bias", "SE", "RMSE", "t_n", "CR"):
            assert column in header

    def test_failed_replicates_reported(self, monkeypatch, tmp_path):
        # the first law is often all zeros at n = 6: a Lorenz curve of mean 0
        monkeypatch.setitem(
            PRESETS,
            "zero-heavy",
            {
                "dgp1": DiscreteLaw([(0.0, 0.8), (1.0, 0.2)]),
                "dgp2": DiscreteLaw([(1.0, 0.5), (2.0, 0.5)]),
                "family": DominanceFamily.lorenz(1),
            },
        )
        reports = []
        for threads in (1, 2):
            out = tmp_path / f"sim{threads}.json"
            code = run_cli(
                [
                    "simulate", "--preset", "zero-heavy", "--scheme", "matched",
                    "--n1", "6", "--n2", "6", "--reps", "20", "--boot", "20",
                    "--tn", "1", "--grid", "50", "--threads", threads, "--output", out,
                ]
            )
            assert code == 0
            payload = json.loads(out.read_text())
            del payload["runtime_ms"]
            reports.append(payload)
        assert reports[0] == reports[1]
        assert 0 < reports[0]["failed"] < 20

    # population curves at --grid 6, each read at its node; checked against
    # right-edge prefix sums less half a cell (carried through the ISD pass)
    @pytest.mark.parametrize(
        "preset, curve1, curve2, diff",
        [
            (
                "ldc-a",
                [0.023148148148148147, 0.09444638479286814, 0.21028206908140448,
                 0.36267381556834516, 0.5492913011057481, 0.7981842148341192],
                [0.02641040501800901, 0.09856497337568165, 0.203364597648915,
                 0.3330001401823165, 0.4935971974801257, 0.7355027158992767],
                [0.003262256869860862, 0.004118588582813512, -0.006917471432489469,
                 -0.029673675386028664, -0.05569410362562238, -0.06268149893484243],
            ),
            (
                "uisdc-a",
                [0.003795498378516645, 0.019281449913122136, 0.05376046080944068,
                 0.11322646517878894, 0.20429507801971925, 0.34296634008938964],
                [0.004511180348541758, 0.0209665299981983, 0.054230571310820486,
                 0.10779542141148886, 0.18453257688144012, 0.2869337796892558],
                [0.000715681970025113, 0.0016850800850761612, 0.0004701105013798053,
                 -0.005431043767300081, -0.0197625011382791, -0.05603256040013384],
            ),
            (
                "sdc-b",
                [1 / 6] * 6,
                [0.0, 0.0, 2 / 3, 2 / 3, 1.0, 1.0],
                [1 / 6, 1 / 6, -0.5, -0.5, -5 / 6, -5 / 6],
            ),
        ],
    )
    def test_population_curve_values(self, preset, curve1, curve2, diff, tmp_path):
        curves = tmp_path / "pop.csv"
        code = run_cli(
            [
                "simulate", "--preset", preset, "--n1", "20", "--n2", "20",
                "--reps", "2", "--boot", "10", "--tn", "1", "--grid", "6",
                "--threads", "1", "--emit-curves", curves,
                "--output", tmp_path / "sim.json",
            ]
        )
        assert code == 0
        with open(curves) as handle:
            rows = list(csv.DictReader(handle))
        column = {name: [float(r[name]) for r in rows] for name in rows[0]}
        assert column["curve1"] == curve1
        assert column["curve2"] == curve2
        scale = max(abs(v) for v in diff)
        assert np.max(np.abs(np.subtract(column["diff"], diff))) <= 1e-12 * scale

    def test_all_presets_defined(self):
        names = {f"{fam}-{v}" for fam in ("ldc", "uisdc", "sdc") for v in "abcd"}
        assert names == set(PRESETS)

    def test_sdc_d_performance_budget(self, tmp_path):
        # full-size run of the cheapest preset must stay well under 5 minutes
        import time

        out = tmp_path / "budget.json"
        start = time.perf_counter()
        code = run_cli(
            [
                "simulate", "--preset", "sdc-d", "--scheme", "matched",
                "--n1", "100", "--n2", "100", "--reps", "300", "--boot", "300",
                "--tn", "0.001", "--seed", "3", "--threads", "1", "--output", out,
            ]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 300.0
        payload = json.loads(out.read_text())
        assert payload["true_c"] == pytest.approx(3 / 7, abs=1e-12)
        assert abs(payload["Mean"] - 3 / 7) < 0.02

    def test_population_curve_emission(self, tmp_path):
        curves = tmp_path / "pop.csv"
        out = tmp_path / "sim.json"
        code = run_cli(
            [
                "simulate", "--preset", "ldc-a", "--scheme", "matched",
                "--n1", "20", "--n2", "20", "--reps", "2", "--boot", "10",
                "--tn", "0.001", "--seed", "4", "--grid", "100",
                "--threads", "1", "--emit-curves", curves, "--output", out,
            ]
        )
        assert code == 0
        with open(curves) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["p", "curve1", "curve2", "diff"]
        assert len(rows) == 101


class TestTuneCommand:
    def test_table_output(self, tmp_path):
        rng = np.random.default_rng(12)
        first = np.where(rng.random(50) < 0.25, 0.25, 1.0)
        second = np.where(rng.random(50) < 2 / 3, 0.5, 0.75)
        lines = ["x1,x2"] + [f"{a},{b}" for a, b in zip(first, second)]
        path = write(tmp_path / "pairs.csv", "\n".join(lines) + "\n")
        out = tmp_path / "tune.json"
        code = run_cli(
            [
                "tune", "--family", "sd", "--m", "1", "--scheme", "matched",
                "--input", path, "--grid", "150", "--candidates", "0.001,20",
                "--cal-reps", "8", "--cal-boot", "25", "--seed", "5",
                "--threads", "1", "--output", out,
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert [r["t_n"] for r in rows] == [0.001, 20.0]
        assert sum(r["selected"] for r in rows) == 1

    def test_repeated_candidates_give_one_row(self, matched_file, tmp_path):
        out = tmp_path / "tune.json"
        code = run_cli(
            [
                "tune", "--family", "lorenz", "--scheme", "matched",
                "--input", matched_file, "--grid", "50", "--candidates", "1,1,5",
                "--cal-reps", "3", "--cal-boot", "10", "--threads", "1", "--output", out,
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert [r["t_n"] for r in rows] == [1.0, 5.0]
        assert sum(r["selected"] for r in rows) == 1

    def test_degenerate_calibration_replicates(self, tmp_path):
        # one distinct pair per resample happens often with two rows; such a
        # calibration replicate is counted, not fatal
        path = write(tmp_path / "two.csv", "x1,x2\n1,2\n2,3\n")
        common = [
            "--family", "lorenz", "--scheme", "matched", "--input", path,
            "--grid", "20", "--cal-reps", "10", "--cal-boot", "10", "--threads", "1",
        ]
        ci_out = tmp_path / "ci.json"
        assert run_cli(["ci", "--tune", "--boot", "10", *common, "--output", ci_out]) == 0
        out = tmp_path / "tune.json"
        assert run_cli(["tune", *common, "--output", out]) == 0
        rows = json.loads(out.read_text())
        failed = {r["cal_failed"] for r in rows}
        assert len(failed) == 1 and 0 < failed.pop() < 10


class TestMeasuresCommand:
    def test_two_point_hand_values(self, tmp_path):
        path = write(tmp_path / "vals.csv", "value\n0\n2\n")
        out = tmp_path / "meas.json"
        assert run_cli(["measures", "--input", path, "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["mean"] == 1.0
        assert payload["welfare"] == pytest.approx(0.25, abs=1e-4)
        assert payload["inequality"] == pytest.approx(0.75, abs=1e-4)

    def test_welfare_identity_in_output(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = ["value"] + [str(v) for v in rng.exponential(size=60)]
        path = write(tmp_path / "vals.csv", "\n".join(lines) + "\n")
        out = tmp_path / "meas.json"
        assert run_cli(["measures", "--input", path, "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["welfare"] == pytest.approx(
            payload["mean"] * (1 - payload["inequality"]), abs=1e-12
        )

    def test_unknown_preference(self, tmp_path):
        # the preference is always the cubic one, so there is no option to pick it
        path = write(tmp_path / "vals.csv", "1\n2\n")
        code, out, err, _ = run_quietly(["measures", "--input", path, "--preference", "cubic"])
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "--preference" in lines[0]

    @pytest.mark.parametrize(
        "text, grid",
        [("value\n1e308\n1e308\n1\n", "2"), ("value\n1.7e308\n0\n0\n0\n", "1000")],
        ids=["sample-sum", "welfare-sum"],
    )
    def test_overflow_is_one_error_line(self, text, grid, tmp_path):
        path = write(tmp_path / "vals.csv", text)
        code, out, err, caught = run_quietly(["measures", "--input", path, "--grid", grid])
        assert code == 1 and out == "" and caught == []
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "overflow" in lines[0]


FIT_CURVES = ["p", "curve1", "curve2", "diff", "std"]
# each command's flags (beyond --input), record keys in order, and curve columns
LAYOUTS = {
    "estimate": (
        ["--family", "lorenz", "--scheme", "matched"],
        ["family", "m", "direction", "n1", "n2", "c_hat", "pos_area", "neg_area",
         "effective_n", "size_share", "grid_points", "domain_lo", "domain_hi", "runtime_ms"],
        FIT_CURVES,
    ),
    "ci": (
        ["--family", "lorenz", "--scheme", "matched", "--tn", "0.01", "--boot", "20"],
        ["family", "m", "direction", "n1", "n2", "c_hat", "ci_lo", "ci_hi", "t_n", "xi0",
         "n_boot", "n_boot_effective", "seed", "boundary_flag", "plus_nodes", "minus_nodes",
         "zero_nodes", "runtime_ms"],
        FIT_CURVES,
    ),
    "simulate": (
        ["--preset", "sdc-b", "--n1", "20", "--n2", "20", "--reps", "2", "--boot", "10",
         "--tn", "0.001"],
        ["preset", "family", "m", "direction", "scheme", "n1", "n2", "reps", "boot", "seed",
         "true_c", "Mean", "Bias", "SE", "RMSE", "t_n", "CR", "CR_se", "failed", "runtime_ms"],
        ["p", "curve1", "curve2", "diff"],
    ),
    "tune": (
        ["--family", "isd", "--m", "3", "--scheme", "matched", "--candidates", "0.01,1",
         "--cal-reps", "2", "--cal-boot", "5"],
        ["t_n", "coverage", "selected", "pseudo_true", "cal_failed", "runtime_ms"],
        FIT_CURVES,
    ),
    "measures": (
        [],
        ["n", "mean", "welfare", "inequality", "preference", "grid_points", "runtime_ms"],
        ["p", "quantile", "lorenz", "weight"],
    ),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", list(LAYOUTS))
def test_record_layout(command, fmt, matched_file, tmp_path):
    flags, keys, columns = LAYOUTS[command]
    if command == "measures":
        flags = ["--input", write(tmp_path / "vals.csv", "value\n1\n2\n5\n")]
    elif command != "simulate":
        flags = flags + ["--input", matched_file]
    out, curves = tmp_path / "report", tmp_path / "curves.csv"
    code = run_cli([command, *flags, "--grid", "20", "--threads", "1", "--format", fmt,
                    "--output", out, "--emit-curves", curves])
    assert code == 0
    if fmt == "json":
        payload = json.loads(out.read_text())
        assert isinstance(payload, list) == (command == "tune")
        rows = payload if command == "tune" else [payload]
        assert [list(row) for row in rows] == [keys] * len(rows)
        times = [row["runtime_ms"] for row in rows]
    else:
        header, *rows = list(csv.reader(out.read_text().splitlines()))
        assert header == keys
        times = [float(row[-1]) for row in rows]
    assert len(times) == (2 if command == "tune" else 1)
    assert len(set(times)) == 1 and times[0] >= 0.0
    assert next(csv.reader(curves.read_text().splitlines())) == columns
    assert b"\r" not in curves.read_bytes()
