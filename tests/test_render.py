"""The CLI's column-table renderers against their definitions.

JSON reports must be exactly what ``json.dumps(doc, indent=2)`` prints for
the document with one object per row; CSV reports follow the README's rules:
17 significant digits, LF line endings, the error column double-quoted only
when nonempty. Tables mix float, int, None and string columns, as numpy
arrays or lists, with NaN and infinities, awkward text and zero rows.
"""

import csv
import io
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from shoberry.cli import _render_csv, _render_json

FLOATS = st.floats(allow_nan=True, allow_infinity=True)
INTS = st.integers(-2 ** 63, 2 ** 63 - 1)
TEXT = st.one_of(st.text(), st.sampled_from(['"', '""', ",", "\n", "a,b\r\n", "é→∞", "%s", "\\"]))


@st.composite
def columns(draw, rows, text: bool):
    """One column of ``rows`` cells: a float or int array, or a list."""
    kind = draw(st.sampled_from(["float", "int", "list"]))
    if kind == "float":
        return np.array(draw(st.lists(FLOATS, min_size=rows, max_size=rows)), dtype=float)
    if kind == "int":
        return np.array(draw(st.lists(INTS, min_size=rows, max_size=rows)), dtype=np.int64)
    cell = st.one_of(st.none(), FLOATS, INTS, *([TEXT] if text else []))
    return draw(st.lists(cell, min_size=rows, max_size=rows))


@st.composite
def tables(draw, text: bool):
    rows = draw(st.integers(0, 5))
    names = draw(st.lists(TEXT if text else st.text(
        st.sampled_from("abn_ -.é"), min_size=1).filter(lambda n: n != "error"),
        min_size=1, max_size=4, unique=True))
    table = {name: draw(columns(rows, text)) for name in names}
    if not text and draw(st.booleans()):
        table["error"] = draw(st.lists(st.one_of(st.none(), TEXT),
                                       min_size=rows, max_size=rows))
    return table


def _rows(table) -> list[dict]:
    cells = [values.tolist() if isinstance(values, np.ndarray) else values
             for values in table.values()]
    return [dict(zip(table, row)) for row in zip(*cells)]


@settings(max_examples=200, deadline=None)
@given(tables(text=True), st.sampled_from(["sweep", "berry", "é"]),
       st.one_of(st.none(), st.fixed_dictionaries({"duration": FLOATS})))
def test_json_is_json_dumps_byte_for_byte(table, command, extra):
    doc = {"command": command, "columns": list(table), **(extra or {}),
           "rows": _rows(table)}
    assert _render_json(command, table, extra) == json.dumps(doc, indent=2) + "\n"


def _csv_cell(name, value) -> str:
    if name == "error":
        return '"%s"' % value.replace('"', '""') if value else ""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")


@settings(max_examples=200, deadline=None)
@given(tables(text=False))
def test_csv_follows_the_readme_rules(table):
    text = _render_csv(table)
    rows = _rows(table)
    assert text == "\n".join([",".join(table)] + [
        ",".join(_csv_cell(name, value) for name, value in row.items())
        for row in rows]) + "\n"
    if "error" in table:   # a quoted message reads back whole, newlines and all
        parsed = list(csv.DictReader(io.StringIO(text, newline="")))
        assert [row["error"] for row in parsed] == [e or "" for e in table["error"]]
