import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenpot.reports import (SCHEMA_VERSION, csv_cell, csv_lines, write_csv,
                              write_json)


class TestJson:
    def test_numpy_values_become_plain(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {
            "arr": np.array([1.5, 2.5]),
            "num": np.float64(0.25),
            "count": np.int64(3),
            "flag": np.bool_(True),
            "nested": {"t": (np.int32(1), 2)},
        })
        data = json.loads(path.read_text())
        assert data == {"arr": [1.5, 2.5], "num": 0.25, "count": 3,
                        "flag": True, "nested": {"t": [1, 2]}}

    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_byte_identical_across_writes(self, tmp_path):
        obj = {"values": np.linspace(0, 1, 7), "schema": SCHEMA_VERSION}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, obj)
        write_json(p2, obj)
        assert p1.read_bytes() == p2.read_bytes()


class TestCsv:
    def test_cell_formats(self):
        assert csv_cell(True) == "true"
        assert csv_cell(False) == "false"
        assert csv_cell(0.1) == "0.10000000000000001"
        assert csv_cell(np.float64(2.0)) == "2"
        assert csv_cell(np.int64(7)) == "7"
        assert csv_cell(None) == ""
        assert csv_cell("label") == "label"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_cells_round_trip(self, x):
        assert float(csv_cell(x)) == x

    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "value", "ok"],
                  [["row1", 1.0 / 3.0, True], ["row2", 2, None]])
        lines = path.read_text().splitlines()
        assert lines[0] == "name,value,ok"
        assert lines[1] == "row1,0.33333333333333331,true"
        assert lines[2] == "row2,2,"

    def test_float_array_matches_cell_formatting(self, tmp_path):
        # the float-array path must give csv_cell's bytes, edge values included
        edge = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0 / 3.0,
                -1e300, 2.0, 123456789.125]
        mixed = [[7, True, None, *edge[:4]], [np.int64(-3), np.bool_(False),
                                              "label", *map(np.float64, edge[4:8])]]
        array = np.array(edge).reshape(2, 5)
        for name, rows in (("mixed", mixed), ("array", array),
                           ("float32", array[:, 3:].astype(np.float32))):
            path = tmp_path / f"{name}.csv"
            write_csv(path, ["h"], rows)
            expected = "h\n" + "".join(",".join(csv_cell(v) for v in row) + "\n"
                                       for row in rows)
            assert path.read_bytes() == expected.encode()
        assert (tmp_path / "array.csv").read_text().splitlines()[1] == \
            "0,-0,nan,inf,-inf"
        # an integer index column stacked into a float array prints as the
        # integer cells of a row tuple did, up to 2**53
        indices = np.array([0, 7, 1234567, 2 ** 53 - 1])
        coords = np.array(edge[:8]).reshape(4, 2)
        cells = [(int(i), *map(float, row)) for i, row in zip(indices, coords)]
        write_csv(tmp_path / "indexed.csv", ["h"], np.column_stack((indices, coords)))
        expected = "h\n" + "".join(",".join(csv_cell(v) for v in row) + "\n"
                                   for row in cells)
        assert (tmp_path / "indexed.csv").read_bytes() == expected.encode()
        assert expected.splitlines()[4].startswith("9007199254740991,")

    def test_float_array_rows_match_whole_table_formatting(self):
        # csv_lines converts one row at a time; the bytes are those of one
        # tolist() of the whole table
        rng = np.random.default_rng(5)
        table = rng.normal(size=(37, 11)) * 10.0 ** rng.integers(-300, 300, (37, 11))
        table[0, :6] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]
        fmt = ",".join(["%.17g"] * 11) + "\n"
        for rows in (table, np.asfortranarray(table), table[::2, ::-1],
                     table[1:].clip(-1e30, 1e30).astype(np.float32)):
            expected = "h\n" + "".join(fmt % tuple(row) for row in rows.tolist())
            assert "".join(csv_lines(["h"], rows)) == expected

    def test_text_with_separators_is_quoted(self):
        assert csv_cell("a, b") == '"a, b"'
        assert csv_cell('say "hi"') == '"say ""hi"""'
        assert csv_cell("two\nlines") == '"two\nlines"'
        assert csv_cell("cr\r") == '"cr\r"'
        assert csv_cell("x <= 1e-8; y=[1 2]") == "x <= 1e-8; y=[1 2]"
        rows = [["a, b", 'q"uote', "line\nbreak"], ["plain", 1.5, True]]
        text = "".join(csv_lines(["h,1", "h2", "h3"], rows))
        parsed = list(csv.reader(io.StringIO(text, newline="")))
        assert parsed == [["h,1", "h2", "h3"], ["a, b", 'q"uote', "line\nbreak"],
                          ["plain", "1.5", "true"]]

    def test_lines_are_what_the_writer_writes(self, tmp_path):
        rows = [["name", 1.0 / 3.0, None], ["x, y", np.int64(4), False]]
        array = np.array([[0.5, -0.0], [np.nan, 1e300]])
        for name, body in (("rows", rows), ("array", array)):
            lines = list(csv_lines(["c0", "c1", "c2"][:len(body[0])], body))
            assert len(lines) == 3 and all(ln.endswith("\n") for ln in lines)
            write_csv(tmp_path / name, ["c0", "c1", "c2"][:len(body[0])], body)
            assert (tmp_path / name).read_bytes() == "".join(lines).encode()

    def test_byte_identical_across_writes(self, tmp_path):
        rows = [[i, np.sqrt(i)] for i in range(20)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, ["i", "root"], rows)
        write_csv(p2, ["i", "root"], rows)
        assert p1.read_bytes() == p2.read_bytes()
