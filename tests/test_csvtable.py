"""The column writer against the row-at-a-time formula, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmp_cdf.csvtable import BLOCK, Table, write_csv

SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.5e-310,
           1e300, -1e300, 0.1, 1 / 3, 1e16, 123456.789]
LENGTHS = [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 17]


def row_wise(header, table: Table) -> bytes:
    """One row at a time: repr(float(v)) for floats, str(v) for everything else."""
    def cell(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    cols = [c if isinstance(c, np.ndarray) else [c] * len(table) for c in table.columns]
    lines = [",".join(header)] + [",".join(cell(c[i]) for c in cols) for i in range(len(table))]
    return ("\n".join(lines) + "\n").encode()


floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def tables(draw):
    """Columns drawn from small pools, so that values repeat heavily."""
    n = draw(st.sampled_from(LENGTHS) | st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["f8", "f4", "i8", "bool", "const"]),
                              min_size=1, max_size=5)):
        if kind == "const":
            columns.append(draw(floats | st.integers() | st.text("abc_", max_size=3)))
            continue
        if kind == "bool":
            pool = np.array([False, True])
        elif kind == "i8":
            pool = np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=6)))
        else:
            with np.errstate(over="ignore"):  # 1e300 and the like become inf in float32
                pool = np.array(draw(st.lists(floats, min_size=1, max_size=8)), dtype=kind)
        columns.append(pool[rng.integers(0, pool.size, n)])
    if not any(isinstance(c, np.ndarray) for c in columns):
        columns.append(np.arange(n))
    return Table(columns)


@settings(max_examples=60, deadline=None)
@given(tables())
@example(Table([np.array([0.0, -0.0, 0.0, -0.0] * BLOCK), np.array([-0.0, 0.0] * 2 * BLOCK)]))
@example(Table([np.zeros(0), -0.0, np.zeros(0, dtype=bool)]))
def test_column_writer_matches_the_row_wise_formula(tmp_path_factory, table):
    header = [f"c{j}" for j in range(len(table.columns))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, table)
    assert path.read_bytes() == row_wise(header, table)


def test_concat_keeps_shared_constants_and_spreads_the_rest(tmp_path):
    parts = [Table([np.arange(3.0), 1.0, "sample", 0.0]), Table([np.arange(2.0), 4.0, "sample", -0.0])]
    both = Table.concat(parts)
    assert len(both) == 5 and both.columns[2] == "sample"
    assert isinstance(both.columns[1], np.ndarray) and isinstance(both.columns[3], np.ndarray)
    header = ["a", "b", "c", "d"]
    write_csv(tmp_path / "both.csv", header, both)
    bodies = []
    for j, part in enumerate(parts):
        write_csv(tmp_path / f"{j}.csv", header, part)
        bodies.append((tmp_path / f"{j}.csv").read_bytes().split(b"\n", 1)[1])
    assert (tmp_path / "both.csv").read_bytes() == b"a,b,c,d\n" + b"".join(bodies)


def test_header_must_name_every_column(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a"], Table([np.arange(2), np.arange(2)]))
