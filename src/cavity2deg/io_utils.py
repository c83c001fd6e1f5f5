"""The one CSV row formatter: repeatable-to-the-byte rows."""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_rows"]

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

