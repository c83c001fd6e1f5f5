"""Small shared I/O helpers: repeatable-to-the-byte CSV emission."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["format_rows", "write_csv"]

FLOAT_DIGITS = 17   # round-trips IEEE doubles exactly


def format_rows(rows: Iterable[Sequence], digits: int = FLOAT_DIGITS,
                end: str = "\n") -> str:
    """Render rows as comma-separated lines, each terminated by ``end``.

    This is the one row formatter of every CSV the library writes.  At the
    default 17 digits each value is written with ``str``: for a float that is
    its shortest round-tripping repr (numpy float64 scalars render the same
    way), for anything else its plain text.  With fewer digits floats are
    written with ``digits`` significant digits (``%g``) and everything else,
    integers included, with ``str``.  An ndarray of rows is converted with
    ``tolist`` first.
    """
    if hasattr(rows, "tolist"):
        rows = rows.tolist()
    if digits >= FLOAT_DIGITS:
        lines = [",".join(map(str, row)) for row in rows]
    else:
        spec = f".{digits}g"
        lines = [",".join([format(v, spec) if isinstance(v, float) else str(v)
                           for v in row]) for row in rows]
    return end.join(lines) + end if lines else ""


def write_csv(target, columns: Sequence[str], rows: Iterable[Sequence],
              digits: int = FLOAT_DIGITS) -> None:
    """Write rows as CSV to a path or text stream.

    Floats are rendered with repr (17 significant digits) by default so a
    written table reloads bit-exactly; no quoting is ever needed for numeric
    tables so the writer stays trivially deterministic.
    """
    own = isinstance(target, (str, Path))
    fh = open(target, "w", encoding="utf-8", newline="") if own else target
    try:
        fh.write(",".join(columns) + "\n")
        fh.write(format_rows(rows, digits))
    finally:
        if own:
            fh.close()


def read_csv(source) -> tuple[list[str], list[list[float]]]:
    """Inverse of write_csv for purely numeric tables."""
    own = isinstance(source, (str, Path))
    fh = open(source, "r", encoding="utf-8") if own else source
    try:
        text = fh.read()
    finally:
        if own:
            fh.close()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return header, rows
