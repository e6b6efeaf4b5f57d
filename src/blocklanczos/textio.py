"""Text artifact formats: CSV tables and named matrix sections.

Both formats are line-feed terminated and write every float as its
``repr``, so a value read back is bit-identical to the one written.
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


def _parse_scalar(token: str):
    try:
        return float(token)
    except ValueError:
        return complex(token)


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


def read_matrix_sections(path: str | Path) -> list[tuple[str, int, np.ndarray]]:
    path = Path(path)
    sections: list[tuple[str, int, np.ndarray]] = []
    lines = [
        ln.strip()
        for ln in path.read_text().splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    pos = 0
    while pos < len(lines):
        head = lines[pos].split()
        if len(head) != 4:
            raise ValueError(
                f"{path}: section header {lines[pos]!r} needs 4 columns: "
                "name index rows cols"
            )
        name, index, rows, cols = head[0], int(head[1]), int(head[2]), int(head[3])
        pos += 1
        values = []
        for r in range(rows):
            if pos >= len(lines):
                raise ValueError(f"{path}: truncated section {name} {index}")
            row = [_parse_scalar(tok) for tok in lines[pos].split()]
            if len(row) != cols:
                raise ValueError(
                    f"{path}: section {name} {index} row {r} has {len(row)} of {cols} columns"
                )
            values.append(row)
            pos += 1
        sections.append((name, index, np.array(values)))
    return sections


def read_named_sections(path: str | Path,
                        names: Sequence[str]) -> dict[str, list[np.ndarray]]:
    """Sections grouped by name, each group in index order; any section
    named outside ``names`` is rejected."""
    by_name: dict[str, dict[int, np.ndarray]] = {name: {} for name in names}
    for name, index, mat in read_matrix_sections(path):
        if name not in by_name:
            raise ValueError(f"{path}: unexpected section {name!r}")
        by_name[name][index] = mat
    return {name: [group[k] for k in sorted(group)] for name, group in by_name.items()}
