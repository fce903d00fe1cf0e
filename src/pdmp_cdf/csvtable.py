"""Column-wise CSV writing, shared by every file the package exports.

A `Table` is a list of columns of one length; a column is a 1-D numpy
array or a constant, one value for every row.  Cells follow one rule:
floats are written with ``repr(float(v))`` and everything else with
``str(v)``, and lines end in LF.  Each column is formatted once per
distinct value (floats per distinct bit pattern, so ``-0.0`` and ``0.0``
stay apart) and the strings are gathered back by the inverse index.
Lines are joined a block of rows at a time, so the text of a whole file
is never held at once.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

BLOCK = 4096  # rows joined into text at a time


def cell(value) -> str:
    """The CSV cell of one value: ``repr`` of a float, ``str`` of anything else."""
    return repr(float(value)) if isinstance(value, float) else str(value)


class Table:
    """Equal-length columns; ``len()`` is the row count."""

    def __init__(self, columns):
        self.columns = list(columns)
        lengths = {len(c) for c in self.columns if isinstance(c, np.ndarray)}
        if len(lengths) > 1:
            raise ValueError(f"columns of different lengths {sorted(lengths)}")
        self.n_rows = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self.n_rows

    @classmethod
    def concat(cls, tables: list["Table"]) -> "Table":
        """Stack tables of one column layout; a constant that differs between them becomes an array."""
        columns = []
        for parts in zip(*(t.columns for t in tables)):
            if not any(isinstance(p, np.ndarray) for p in parts) and len(set(map(cell, parts))) == 1:
                columns.append(parts[0])
            else:
                columns.append(np.concatenate([p if isinstance(p, np.ndarray) else np.full(len(t), p)
                                               for p, t in zip(parts, tables)]))
        return cls(columns)


def _distinct_cells(col: np.ndarray, end: str) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct value's cell followed by ``end``, and every row's index into them."""
    if col.dtype.kind == "O":  # arbitrary objects: one at a time
        return np.array([cell(v) + end for v in col.tolist()], dtype=object), np.arange(col.size)
    if col.dtype.kind == "f":
        keys, inverse = np.unique(np.asarray(col, dtype=np.float64).view(np.int64),
                                  return_inverse=True)
        texts = map(float.__repr__, keys.view(np.float64).tolist())
    else:
        keys, inverse = np.unique(col, return_inverse=True)
        texts = map(str, keys.tolist())
    return np.array([t + end for t in texts], dtype=object), inverse


def write_csv(path, header: list[str], table: Table) -> None:
    """Write ``header`` and the rows of ``table`` as one CSV file."""
    if len(header) != len(table.columns):
        raise ValueError(f"{len(header)} header names for {len(table.columns)} columns")
    ends = [","] * (len(table.columns) - 1) + ["\n"]
    columns = [cell(c) + end if not isinstance(c, np.ndarray) else _distinct_cells(c, end)
               for c, end in zip(table.columns, ends)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), BLOCK):
            n = min(BLOCK, len(table) - start)
            block = [repeat(c, n) if isinstance(c, str) else c[0][c[1][start:start + n]].tolist()
                     for c in columns]
            fh.write("".join(chain.from_iterable(zip(*block))))
