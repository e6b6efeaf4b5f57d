"""Text artifact formats: CSV tables and named matrix sections.

Both formats are line-feed terminated and write every float as its
``repr``, so a value read back is bit-identical to the one written. No
command reads the matrix sections back; the test suite's own reader of
them holds that claim for the coefficient writer.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np


def _cell(value: Any) -> Any:
    # numpy floats subclass float, and csv would write their numpy repr
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> None:
    """Comma-delimited table with a header row; floats written repr-exact."""
    with open(path, "w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


def _format_scalar(x) -> str:
    if isinstance(x, complex):
        return repr(x)
    return repr(float(x))


def write_matrix_sections(path: str | Path,
                          sections: list[tuple[str, int, np.ndarray]],
                          header: str) -> None:
    """Text serialization: one `<name> <index> <rows> <cols>` stanza per matrix,
    dense row-major entries, repr-exact scalars."""
    lines = [f"# {header}"]
    for name, index, mat in sections:
        mat = np.atleast_2d(mat)
        complex_out = bool(np.iscomplexobj(mat) and np.any(mat.imag != 0.0))
        rows, cols = mat.shape
        lines.append(f"{name} {index} {rows} {cols}")
        for r in range(rows):
            entries = (
                complex(mat[r, c]) if complex_out else float(np.real(mat[r, c]))
                for c in range(cols)
            )
            lines.append(" ".join(_format_scalar(e) for e in entries))
    Path(path).write_text("\n".join(lines) + "\n")
