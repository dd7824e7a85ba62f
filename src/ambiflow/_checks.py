"""One rule for the numbers the library and the command line read.

``finite`` passes a finite real number in an optional range and ``count`` an
integer in one; each returns its value unchanged.  No other module tests a
number by hand: they read the scalars of the public API, built-in params,
checkpoints and every config number of the command line.  Otherwise the
ValueError reads "<name> must be finite, got <value>" for a value that is not a
finite real number (a bool is not one, nor is an int too large for a float),
or "<name> must be <range>, got <value>" with a range such as "positive",
">= 1" or "in (0, 1]".  ``finite_array`` reads an array by the same rule and
shows its first entry that fails: NaN, inf, a bool (in a list of numbers
too), a string, a ragged row.  ``times`` reads a row of sample times by that
rule; the row must also hold ``at_least`` times or more, each strictly after
the one before, with no tolerance, and the ValueError shows the first pair
out of order.  ``samples`` reads a set of (t, state) samples pushed to a
horizon: one or more, each time finite and none after the horizon.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np

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


def finite_array(name: str, values) -> np.ndarray:
    """``values`` as ``np.asarray(values, dtype=float)`` converts them, if each entry is finite."""
    # numpy reads a bool among the numbers of a list as 1.0 or 0.0, so a list
    # keeps its entries as they are.  An ndarray of numbers holds no bool.
    listed = isinstance(values, (list, tuple))
    try:
        array = np.asarray(values, dtype=object if listed else None)
    except ValueError:  # ragged: its rows are the entries
        array = np.asarray(values, dtype=object)
    if array.dtype.kind not in "iuf":  # bools, strings and objects, entry by entry
        for value in array.ravel().tolist():
            finite(name, value)
    array = array.astype(float, copy=False)
    if not np.isfinite(array).all():
        raise _error(name, "finite", array[~np.isfinite(array)][0])
    return array


def times(name: str, values, at_least: int = 1) -> np.ndarray:
    """``values`` as a 1-D float array, read by ``finite_array``, if it holds at
    least ``at_least`` times and each is after the one before."""
    row = finite_array(name, values)
    if row.ndim != 1 or len(row) < at_least:
        raise ValueError(f"{name} must be a row of {at_least} or more times, got {row.tolist()}")
    late = np.flatnonzero(row[1:] <= row[:-1])
    if len(late):
        a, b = row[late[0]], row[late[0] + 1]
        raise ValueError(f"{name} must be strictly increasing, got {a} then {b}")
    return row


def samples(samples, horizon: float) -> tuple[tuple, tuple]:
    """The times and the states of ``samples``, (t, state) pairs pushed to
    ``horizon``: one or more, each t finite and none after the horizon."""
    finite("horizon", horizon)
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    for idx, (t, _) in enumerate(samples):
        if finite(f"time of sample {idx}", t) > horizon:
            raise ValueError(f"sample {idx} taken at t={t}, after the horizon {horizon}")
    return tuple(zip(*samples))


def _is(value, kind: type) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _error(name: str, rule: str, value) -> ValueError:
    shown = value if isinstance(value, numbers.Number) else repr(value)
    return ValueError(f"{name} must be {rule}, got {shown}")
