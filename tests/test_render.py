"""The CLI's column-table renderers against their definitions.

JSON reports must be exactly what ``json.dumps(doc, indent=2)`` prints for
the document with one object per row; CSV reports follow the README's rules:
17 significant digits, LF line endings, the error column double-quoted only
when nonempty. Tables mix float, int, None and string columns, as numpy
arrays, lists or Factored columns (distinct values gathered by a row index),
with signed zeros, NaN and infinities, awkward text and zero or one rows.
Reports come in pieces of at most ``cli._BLOCK_ROWS`` rows; the properties
also run with blocks of 1, 2 and 3 rows, so rows meet at every seam, and the
text a render holds at once must not grow with its row count.
"""

import collections
import csv
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from shoberry import cli
from shoberry.cli import Factored

FLOATS = st.floats(allow_nan=True, allow_infinity=True)
INTS = st.integers(-2 ** 63, 2 ** 63 - 1)
TEXT = st.one_of(st.text(), st.sampled_from(['"', '""', ",", "\n", "a,b\r\n", "é→∞", "%s", "\\"]))


# distinct values a Factored column stores: both zeros, NaN, infinities, ints
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 0, -1, 2 ** 63 - 1, None]


@st.composite
def plain_columns(draw, rows, text: bool):
    """One column of ``rows`` cells: a float or int array, or a list."""
    kind = draw(st.sampled_from(["float", "int", "list"]))
    if kind == "float":
        return np.array(draw(st.lists(FLOATS, min_size=rows, max_size=rows)), dtype=float)
    if kind == "int":
        return np.array(draw(st.lists(INTS, min_size=rows, max_size=rows)), dtype=np.int64)
    cell = st.one_of(st.none(), FLOATS, INTS, *([TEXT] if text else []))
    return draw(st.lists(cell, min_size=rows, max_size=rows))


@st.composite
def factored(draw, rows, values):
    """A Factored column of ``rows`` rows over the stored ``values``."""
    index = draw(st.lists(st.integers(0, len(values) - 1), min_size=rows, max_size=rows))
    return Factored(values, np.array(index, dtype=int))


@st.composite
def columns(draw, rows, text: bool):
    """A plain column, or a Factored one: over drawn values, over the special
    values (as a float array, or a list with ints and None), or all None."""
    kind = draw(st.sampled_from(["plain", "factored", "special", "none"]))
    if kind == "plain":
        return draw(plain_columns(rows, text))
    if kind == "factored":
        return draw(factored(rows, draw(plain_columns(draw(st.integers(1, 4)), text))))
    if kind == "special":
        if draw(st.booleans()):
            return draw(factored(rows, np.array(SPECIAL[:5])))
        return draw(factored(rows, draw(st.permutations(SPECIAL))))
    return Factored([None], np.zeros(rows, dtype=int))


@st.composite
def tables(draw, text: bool):
    rows = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 5)))
    names = draw(st.lists(TEXT if text else st.text(
        st.sampled_from("abn_ -.é"), min_size=1).filter(lambda n: n != "error"),
        min_size=1, max_size=4, unique=True))
    table = {name: draw(columns(rows, text)) for name in names}
    if not text and draw(st.booleans()):
        error = st.lists(st.one_of(st.none(), TEXT), min_size=rows, max_size=rows)
        if draw(st.booleans()):
            table["error"] = draw(error)
        else:   # one message per failed point, as a sweep's table holds them
            table["error"] = draw(factored(rows, [None, *draw(error)]))
    return table


def _cells(values) -> list:
    if isinstance(values, Factored):
        return [_cells(values.values)[i] for i in values.index.tolist()]
    return values.tolist() if isinstance(values, np.ndarray) else values


def _rows(table) -> list[dict]:
    cells = [_cells(values) for values in table.values()]
    return [dict(zip(table, row)) for row in zip(*cells)]


# rows per block: the renderers' own, and sizes that put seams between few rows
BLOCKS = st.sampled_from([cli._BLOCK_ROWS, 1, 2, 3])


def _render_json(command, table, extra, block):
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        return "".join(cli._render_json(command, table, extra))


def _render_csv(table, block):
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        return "".join(cli._render_csv(table))


@settings(max_examples=200, deadline=None)
@given(tables(text=True), st.sampled_from(["sweep", "berry", "é"]),
       st.one_of(st.none(), st.fixed_dictionaries({"duration": FLOATS})), BLOCKS)
def test_json_is_json_dumps_byte_for_byte(table, command, extra, block):
    doc = {"command": command, "columns": list(table), **(extra or {}),
           "rows": _rows(table)}
    assert _render_json(command, table, extra, block) == json.dumps(doc, indent=2) + "\n"


def _csv_cell(name, value) -> str:
    if name == "error":
        return '"%s"' % value.replace('"', '""') if value else ""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")


@settings(max_examples=200, deadline=None)
@given(tables(text=False), BLOCKS)
def test_csv_follows_the_readme_rules(table, block):
    text = _render_csv(table, block)
    rows = _rows(table)
    assert text == "\n".join([",".join(table)] + [
        ",".join(_csv_cell(name, value) for name, value in row.items())
        for row in rows]) + "\n"
    if "error" in table:   # a quoted message reads back whole, newlines and all
        parsed = list(csv.DictReader(io.StringIO(text, newline="")))
        assert [row["error"] for row in parsed] == [e or "" for e in _cells(table["error"])]


def _sweep_like(rows: int) -> dict:
    """A table shaped like a sweep's: factored axis, n and error columns, an
    all-null oracle column, float columns with and without NaN."""
    rng = np.random.default_rng(rows)
    gamma = rng.normal(size=rows)
    delta = gamma.copy()
    delta[::7] = math.nan
    return {"C": Factored(np.linspace(-6.0, -0.2, 20), np.arange(rows) % 20),
            "n": Factored(np.arange(17), np.arange(rows) % 17),
            "delta": delta, "gamma": gamma,
            "oracle_gamma": Factored([None], np.zeros(rows, dtype=int)),
            "error": Factored([None, 'a "quoted" message'], np.arange(rows) % 5 // 4)}


def _render_peak(render, table) -> int:
    """The tracemalloc peak, in bytes, of rendering ``table`` into a sink
    that discards every piece."""
    tracemalloc.start()
    try:
        collections.deque(render(table), maxlen=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_render_memory_does_not_grow_with_rows():
    rows = 2 * cli._BLOCK_ROWS
    renders = {"json": lambda table: cli._render_json("sweep", table),
               "csv": cli._render_csv}
    for name, render in renders.items():
        small, large = _sweep_like(rows), _sweep_like(8 * rows)
        block_text = max(len(piece) for piece in render(small))
        growth = _render_peak(render, large) - _render_peak(render, small)
        assert growth < block_text, name
