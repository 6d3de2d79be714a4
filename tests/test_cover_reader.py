"""The cover-file reader of ``subshift-report`` against the json.load oracle.

``cli._load_cover`` scans a plain n x n matrix from the file's bytes and
converts only its nonzero cells; any other file goes through ``json.load``.
Either way, every file must give the weights bits, or the error class and
message, of ``oracles.load_cover``.
"""

import json
import random
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from test_markov import planted_cover
from tractable_dyn import cli

RELATION = {"elements": ["a", "b", "c"],
            "edges": [["a", "a"], ["a", "b"], ["b", "c"], ["c", "a"],
                      ["c", "c"]]}
REL = json.dumps(RELATION)
MATRIX = "[[0.5,0,0.25],[0.5,0,0],[0,1,0.75]]"


def _outcome(load, path):
    try:
        weights = load(path)
    except Exception as exc:  # the error class and message are the answer
        return type(exc).__name__, str(exc)
    return "ok", np.asarray(getattr(weights, "weights", weights)).tobytes()


def _relation_text(relation):
    return json.dumps({"elements": list(relation.elements),
                       "edges": [[relation.elements[i], relation.elements[j]]
                                 for i, j in sorted(relation.edges)]})


def _zero(rng):
    return rng.choice(("-0", "0.0e0", "0E+00", "0.00", "-0.0", "0", "0.0"))


# Four layouts of one dense matrix: (relation text, rows, rng) -> file text.
LAYOUTS = {
    "compact": lambda rel, m, rng: (
        '{"relation":' + rel + ',"matrix":['
        + ",".join("[" + ",".join(repr(x) if x else "0" for x in row) + "]"
                   for row in m) + "]}"),
    "json_dump": lambda rel, m, rng: json.dumps(
        {"relation": json.loads(rel), "matrix": m}),
    "row_per_line": lambda rel, m, rng: (
        '{\n  "matrix": [\n'
        + ",\n".join("    [" + ", ".join(repr(x) if x else "0" for x in row)
                     + "]" for row in m)
        + '\n  ],\r\n\t"relation": ' + rel + "\n}\n"),
    "exponents": lambda rel, m, rng: (
        '{ "relation" : ' + rel + ' , "matrix" : [ '
        + " , ".join("[ " + " , ".join(
            rng.choice((f"{x:.17e}", f"{x:.16E}")) if x else _zero(rng)
            for x in row) + " ]" for row in m) + " ] }"),
}


@pytest.mark.parametrize("chunk", [1, 100, cli._CHUNK])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_random_covers_read_bit_equal_to_the_oracle(tmp_path, monkeypatch,
                                                     layout, chunk):
    # A chunk of 1 byte holds one row, and one of 100 bytes a few rows.
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    rng = random.Random(f"cover-reader-{layout}")
    for case in range(40):
        cover = planted_cover(rng, rng.randint(1, 40), uniform=case % 2 == 0)
        rel = _relation_text(cover.relation)
        if case % 3 == 0:
            (tmp_path / "rel.json").write_text(rel)
            rel = '"rel.json"'
        path = tmp_path / f"cover{case}.json"
        path.write_text(LAYOUTS[layout](rel, cover.matrix.tolist(), rng))
        assert cli._scan_cover(str(path)) is not None  # the byte scan read it
        got = _outcome(cli._load_cover, str(path))
        assert got == _outcome(oracles.load_cover, str(path))
        assert got == ("ok", cover.weights.tobytes())


def _file(matrix=MATRIX, rel=REL, tail=""):
    return f'{{"relation": {rel}, "matrix": {matrix}{tail}}}'


CORRUPT = {
    "ragged_short": _file("[[0.5,0,0.25],[0.5,0],[0,1,0.75]]"),
    "ragged_long": _file("[[0.5,0,0.25,0],[0.5,0,0],[0,1,0.75]]"),
    "empty_row": _file("[[],[0.5,0,0],[0,1,0.75]]"),
    "row_trailing_comma": _file("[[0.5,0,0.25,],[0.5,0,0],[0,1,0.75]]"),
    "trailing_comma": _file("[[0.5,0,0.25],[0.5,0,0],[0,1,0.75],]"),
    "split_number": _file("[[0.5,0,0.25],[0.5,0,0],[0,1 0,0.75]]"),
    "double_zero": _file("[[0.5,00,0.25],[0.5,0,0],[0,1,0.75]]"),
    "zero_dot": _file("[[0.5,0.,0.25],[0.5,0,0],[0,1,0.75]]"),
    "zero_dot_at_row_end": _file("[[0.5,0,0.25],[0.5,0,0.],[0,1,0.75]]"),
    "dot_five": _file("[[.5,0,0.25],[0.5,0,0],[0,1,0.75]]"),
    "plus_sign": _file("[[+0.5,0,0.25],[0.5,0,0],[0,1,0.75]]"),
    "two_dots": _file("[[0.5,0.0.0,0.25],[0.5,0,0],[0,1,0.75]]"),
    "bare_exponent": _file("[[0.5,0,0.25],[0.5,0,0],[0,1e,0.75]]"),
    "minus": _file("[[0.5,-,0.25],[0.5,0,0],[0,1,0.75]]"),
    "nan": _file("[[0.5,NaN,0.25],[0.5,0,0],[0,1,0.75]]"),
    "infinity": _file("[[0.5,0,0.25],[0.5,0,0],[0,Infinity,0.75]]"),
    "minus_infinity": _file("[[0.5,-Infinity,0.25],[0.5,0,0],[0,1,0.75]]"),
    "null_cell": _file("[[0.5,null,0.25],[0.5,0,0],[0,1,0.75]]"),
    "overflow_float": _file("[[0.5,0,0.25],[0.5,0,0],[0,1e400,0.75]]"),
    "overflow_int": _file("[[0.5,0,0.25],[0.5,0,0],[0,1" + "0" * 400 + ",0.75]]"),
    "negative": _file("[[0.5,0,0.25],[0.5,0,0],[0,1,-0.75]]"),
    "above_one": _file("[[0.5,0,0.25],[0.5,0,0],[0,1.5,0.75]]"),
    "zero_edge": _file("[[0.5,0,0.25],[0.5,0,0],[0,0,0.75]]"),
    "zero_edge_spelt_minus_zero": _file("[[0.5,0,0.25],[0.5,0,0],[0,-0,0.75]]"),
    "non_edge": _file("[[0.5,0.5,0.25],[0.5,0,0],[0,0.5,0.75]]"),
    "non_edge_before_zero_edge": _file("[[0.5,0,0.25],[0.25,0,0],[0.25,0,0.75]]"),
    "zero_edge_before_non_edge": _file("[[0,0.5,0.25],[0.5,0,0],[0.5,0.5,0.75]]"),
    "column_sums": _file("[[0.5,0,0.25],[0.4,0,0],[0,1,0.75]]"),
    "small_weights": _file("[[0.5,0,0.05],[0.5,0,0],[0,1,0.95]]"),
    "leading_zeros_in_fraction": _file("[[0.5,0,0.0025e2],[0.5,0,0],[0,1,0.75]]"),
    "shape_small": _file("[[1,0],[0,1]]"),
    "shape_wide": _file("[[0.5,0,0.25,0],[0.5,0,0,0],[0,1,0.75,0]]"),
    "shape_tall": _file("[[0.5,0,0.25],[0.5,0,0],[0,1,0.75],[0,0,0]]"),
    "empty_matrix": _file("[]"),
    "one_empty_row": _file("[[]]"),
    "flat_matrix": _file("[0.5,0.5,1,0.25,0.75]"),
    "nested": _file("[[[0.5]]]"),
    "matrix_string": _file('"abc"'),
    "matrix_number": _file("5"),
    "matrix_null": _file("null"),
    "matrix_object": _file('{"a": 1}'),
    "duplicate_matrix_key": _file(MATRIX + ', "matrix": [[1,0,0],[0,0,0],[0,1,1]]'),
    "duplicate_relation_key": _file(
        MATRIX + ', "relation": {"elements": ["x"], "edges": [["x", "x"]]}'),
    "missing_matrix": '{"relation": ' + REL + "}",
    "missing_relation": '{"matrix": ' + MATRIX + "}",
    "extra_key": _file(tail=', "extra": 1'),
    "object_trailing_comma": _file(tail=","),
    "empty_object": "{}",
    "single_quote_opens_key": _file().replace('{"', "{'", 1),
    "repeated_plain_matrix_key": _file(
        "[[1,0,0],[0,0,0],[0,1,1]]", tail=', "matrix": ' + MATRIX),
    "top_level_array": "[" + MATRIX + "]",
    "top_level_string": '"cover"',
    "trailing_data": _file() + " x",
    "truncated": _file()[:-5],
    "relation_not_an_object": _file(rel="5"),
    "relation_and_matrix_bad": _file("[[0.5,0,0.25],[0.5,0],[0,1,0.75]]", rel="5"),
    "relation_file_missing": _file(rel='"missing.json"'),
    "escaped_key": '{"relation": ' + REL + ', "matri\\u0078": ' + MATRIX + "}",
    "matrix_first": '{"matrix": ' + MATRIX + ', "relation": ' + REL + "}",
    "whitespace": "\r\n\t" + _file(" [ [ 0.5 ,\t0 , 0.25 ] ,\r\n [0.5,0,0] ,"
                                   "[0,1,0.75] ] ") + " \n",
    "plain": _file(),
    "exponents": _file("[[5e-1,0e0,2.5E-1],[50e-2,-0.0,0.00],[0,1E0,7.5e-1]]"),
    "unicode_digit": _file("[[0.5,0,0.25],[0.5,0,0],[0,１,0.75]]"),
    "non_ascii_label": _file(rel=REL.replace('"a"', '"α"')),
    "non_ascii_escaped_label": _file(rel=REL.replace('"a"', '"\\u03b1"')),
}


@pytest.mark.parametrize("name", sorted(CORRUPT))
def test_corrupt_covers_fail_as_the_oracle_does(tmp_path, capsys, name):
    path = tmp_path / "cover.json"
    path.write_text(CORRUPT[name], encoding="utf-8")
    expected = _outcome(oracles.load_cover, str(path))
    if expected[0] == "OverflowError":
        # The oracle crashes on an integer cell past the float range; the
        # library rejects it as out of range, as it does the cell 1e400.
        assert name == "overflow_int"
        expected = ("CoverError", "matrix entries must lie in [0, 1]")
    assert _outcome(cli._load_cover, str(path)) == expected
    if expected[0] != "ok":
        assert cli.main(["subshift-report", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {expected[1]}\n"


def test_a_byte_order_mark_fails_as_the_oracle_does(tmp_path):
    path = tmp_path / "cover.json"
    path.write_bytes(b"\xef\xbb\xbf" + _file().encode())
    expected = _outcome(oracles.load_cover, str(path))
    assert "BOM" in expected[1]
    assert _outcome(cli._load_cover, str(path)) == expected


def _planted_file(tmp_path, n):
    cover = planted_cover(random.Random(11), n)
    matrix = cover.matrix.tolist()
    path = tmp_path / "planted.json"
    with open(path, "w", encoding="ascii") as handle:
        handle.write('{"relation": ' + _relation_text(cover.relation)
                     + ', "matrix": [')
        for j, row in enumerate(matrix):
            handle.write(("," if j else "") + "["
                         + ",".join(repr(x) if x else "0" for x in row) + "]")
        handle.write("]}")
    return cover, str(path)


def test_a_large_compact_cover_is_read_without_n2_floats(tmp_path):
    cover, path = _planted_file(tmp_path, 2000)
    tracemalloc.start()
    try:
        weights = cli._load_cover(path).weights
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert weights.tobytes() == cover.weights.tobytes()
    assert peak < 25 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_a_large_compact_cover_is_read_faster_than_the_oracle(tmp_path):
    _, path = _planted_file(tmp_path, 1000)

    def best(load):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            load(path)
            times.append(time.perf_counter() - start)
        return min(times)

    # 5-7x on one machine; 2x leaves room for noise.
    assert 2 * best(cli._load_cover) < best(oracles.load_cover)
