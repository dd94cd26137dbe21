"""The package's text file formats: every CSV and JSON file goes through here."""

from __future__ import annotations

import json
from pathlib import Path


def write_csv(path: str | Path, columns, rows,
              header_comment: str | None = None) -> None:
    """Write ``rows`` of Python scalars under a ``columns`` header.

    Each cell is written as its ``repr``, so floats round-trip exactly, and
    None as an empty cell; a non-empty ``header_comment`` becomes a first
    ``# `` line.  Convert NumPy arrays with ``tolist`` before passing them.
    """
    write_csv_lines(path, columns,
                    (",".join("" if v is None else repr(v) for v in row) + "\n"
                     for row in rows), header_comment)


def write_csv_lines(path: str | Path, columns, lines,
                    header_comment: str | None = None) -> None:
    """Write already formatted ``lines`` under a ``columns`` header.

    Each item of ``lines`` is written as it is, so it carries its own
    newlines; the ``# `` comment and header lines are as in :func:`write_csv`.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(lines)


def read_json(path: str | Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str | Path, data) -> None:
    """Write ``data`` with indent 2, sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
