"""CSV row formatting shared by every table the library writes.

Oracle: the per-value rule the writers used before they shared one
formatter: floats (numpy float64 included) by repr(float(v)) at 17 digits
or '%.{digits}g' below, everything else by str(v).
"""

import numpy as np
import pytest

from cavity2deg.io_utils import FLOAT_DIGITS, format_rows

ROWS = [
    (1, 2.5, "Stable", True, np.float64(1 / 3), 1234567, 1e20, -0.0),
    (np.float32(0.1), np.int64(7), None, 5e-324, 1e16, 123.456, -7, "x"),
]


def per_value(v, digits):
    if isinstance(v, float):
        return repr(float(v)) if digits >= FLOAT_DIGITS else \
            f"{float(v):.{digits}g}"
    return str(v)


@pytest.mark.parametrize("digits", [17, 9, 3, 1])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_rows_match_per_value_rule(digits, end):
    want = "".join(",".join(per_value(v, digits) for v in row) + end
                   for row in ROWS)
    assert format_rows(ROWS, digits, end) == want


def test_array_rows_and_empty_table():
    table = np.array([[0.1, 2.0], [1e-300, -3.5]])
    assert format_rows(table) == "0.1,2.0\n1e-300,-3.5\n"
    assert format_rows([]) == ""

