"""The one reading rule for the run dir's text artifacts: a file loads only if its
writer's renderer, given what was parsed from it, gives back its exact text."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["read_exact", "csv_text"]


def read_exact(path, what: str, parse, render):
    """parse(text) of the file at `path`, returned only if render() of it gives back
    the text exactly.  Any failure, decoding the bytes as UTF-8 included, raises
    ValueError naming the file as the `what` it should be."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
        obj = parse(text)
        back = render(obj)
    except (ValueError, LookupError, OverflowError) as e:
        raise ValueError(f"malformed {what} {path}: {e}") from None
    if back != text:
        line = os.path.commonprefix([back, text]).count("\n") + 1
        raise ValueError(f"{what} {path}: line {line} is not what its writer writes")
    return obj


def csv_text(header, rows, row_format: str = "") -> str:
    """A CSV artifact's text: the header, then one line per row, with a float (np.float64
    included) as %.17g, None as an empty cell and anything else by str(); or, faster,
    each row as `row_format % row` for a format such as "%.17g,%d"."""
    def cells(row):
        return ",".join("" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
                        for v in row)

    lines = [row_format % row for row in rows] if row_format else map(cells, rows)
    return "\n".join([",".join(header), *lines]) + "\n"
