"""Python 3.12's float `sum`, for interpreters that add left to right.

Python 3.12 and later add floats with Neumaier compensation, and 3.10
and 3.11 add them left to right, so a builtin `sum` over floats can give
other bits on another Python.  `neumaier_sum` follows CPython 3.12:
integers add exactly until the first float; then floats add with a
running compensation and integers within a C long's range without one;
an integer outside that range adds the compensation and ends it, after
which everything adds left to right; a compensation still running at the
end is added when it is finite and nonzero.  Anything but Python ints,
floats and bools goes to the builtin, as does a sum of integers alone,
which no version changes.
"""

import builtins
import math

_builtin_sum = builtins.sum
_LONG = 2 ** 63         # a C long holds -2**63 .. 2**63 - 1


def _compensation(total: float, c: float) -> float:
    return total + c if c and math.isfinite(c) else total


def neumaier_sum(iterable, /, start=0):
    items = list(iterable)
    if any(type(x) not in (int, float, bool) for x in (start, *items)):
        return _builtin_sum(items, start)
    total, rest = start, iter(items)
    if type(total) is not float:
        for x in rest:
            total += x
            if type(total) is float or not (-_LONG <= x < _LONG and -_LONG <= total < _LONG):
                break
        else:
            return total
    compensated, c = type(total) is float, 0.0
    for x in rest:
        if not compensated:
            total += x
        elif type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        elif -_LONG <= x < _LONG:
            total += x
        else:
            total, compensated = _compensation(total, c) + x, False
    return _compensation(total, c) if compensated else total
