"""One rule for the scalar numbers the library reads.

``finite`` passes a finite real number in an optional range and ``count`` an
integer in one; each returns its value unchanged.  Otherwise the
ValueError reads "<name> must be finite, got <value>" for a value that is not a
finite real number (a bool is not one, nor is an int too large for a float),
or "<name> must be <range>, got <value>" with a range such as "positive",
">= 1" or "in (0, 1]".  Arrays are checked where they are used.
"""

from __future__ import annotations

import numbers
import sys

_MAX = sys.float_info.max


def finite(name: str, value, *, gt=None, ge=None, lt=None, le=None):
    """``value`` if it is a finite real number > gt, >= ge, < lt and <= le;
    a bound of None is left out."""
    # A float, numpy's float64 included, skips the abstract-class check, which
    # costs more than the rest of the call.  A comparison, not math.isfinite,
    # which raises OverflowError on an int too large for a float.
    if not (isinstance(value, float) or _is(value, numbers.Real)) or not -_MAX <= value <= _MAX:
        raise _error(name, "finite", value)
    if (
        (gt is None or value > gt) and (ge is None or value >= ge)
        and (lt is None or value < lt) and (le is None or value <= le)
    ):
        return value
    low, high = ge if gt is None else gt, le if lt is None else lt
    if low == 0 and high is None:
        rule = "nonnegative" if gt is None else "positive"
    elif high is None:
        rule = f"{'>=' if gt is None else '>'} {low}"
    elif low is None:
        rule = f"{'<=' if lt is None else '<'} {high}"
    else:
        rule = f"in {'[' if gt is None else '('}{low}, {high}{']' if lt is None else ')'}"
    raise _error(name, rule, value)


def count(name: str, value, low: int | None = 1, high: int | None = None):
    """``value`` if it is an integer >= low and <= high; a bound of None is left out."""
    integer = type(value) is int or _is(value, numbers.Integral)
    if integer and (low is None or value >= low) and (high is None or value <= high):
        return value
    if high is not None:
        raise _error(name, f"an integer in [{low}, {high}]", value)
    raise _error(name, "an integer" + ("" if low is None else f" >= {low}"), value)


def _is(value, kind: type) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _error(name: str, rule: str, value) -> ValueError:
    shown = value if isinstance(value, numbers.Number) else repr(value)
    return ValueError(f"{name} must be {rule}, got {shown}")
