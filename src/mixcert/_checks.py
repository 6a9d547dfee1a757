"""The input rules, one per kind of value a caller, a config or a file
passes in: integers, reals, arrays of numbers, laws, labels, the values a
caller's function returns, objects and class members, config sections and
text fields. Also the one rule for a closed form whose checked arguments
reach the ends of the float range (`_normal`, `_in_logs`)."""
from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterable
from dataclasses import MISSING, fields

import numpy as np

from .errors import BadLabel, DimensionMismatch

_ATOL = 1e-12

_FLOAT_MAX = float(np.finfo(np.float64).max)  # an integer is finite iff |x| <= this
_NORMAL_MIN = float(np.finfo(np.float64).tiny)  # the smallest normal float64
_AXIS_MAX = sys.maxsize // 8  # numpy's limit on an axis of 8-byte entries


def _as_int(value, key: str, low: int, error=ValueError) -> int:
    """`value` as an int if it is a Python or numpy integer >= low; a bool
    is not one, and neither is an integral float. Else `error` naming `key`."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low:
        return int(value)
    raise error(f"{key!r} must be an integer >= {low}, not {value!r}")


def _normal(*values: float) -> bool:
    """Whether every value is a normal float (no zero, subnormal, infinity
    or NaN). A bound helper evaluates its closed form as written only while
    the powers and products in it are normal, so the form lost no range and
    keeps its bits; otherwise it takes `_in_logs`."""
    return all(_NORMAL_MIN <= abs(v) <= _FLOAT_MAX for v in values)


def _in_logs(coef: float, *powers: tuple) -> float:
    """coef * prod(x ** p) over (x, p) pairs, for coef > 0 and x >= 0 of any
    size (an int may exceed every float), computed from logs: 0.0 if some x
    is 0 (its p is > 0), else the value, which rounds to 0.0 or inf where it
    leaves the float range. Never an arithmetic error."""
    if any(x == 0 for x, _ in powers):
        return 0.0
    try:
        return math.exp(math.log(coef) + math.fsum(p * math.log(x) for x, p in powers))
    except OverflowError:
        return math.inf


def _as_times(times, key: str) -> np.ndarray:
    """`times` as a 1-d integer array: `_as_int`'s rule (integers >= 1; a
    bool, a float or a string is not one) applied to the whole array in one
    pass, so a long range of times costs no Python loop. Else ValueError
    naming `key`."""
    arr = np.asarray(times)
    if arr.ndim == 1 and (not arr.size or arr.dtype.kind in "iu" and arr.min() >= 1 and (
            isinstance(times, (np.ndarray, range))
            or not any(isinstance(t, (bool, np.bool_)) for t in times))):
        return arr
    raise ValueError(f"{key!r} must be a 1-d sequence of integers >= 1, not {times!r}")


def _as_float(value, key: str, low: float, high: float = math.inf, closed: bool = False,
              error=ValueError) -> float:
    """`value` as a float if it is a finite Python or numpy number (a bool is
    not one) between low and high, both excluded or, with `closed`, both
    included. Else `error` naming `key`. Finiteness is tested before any
    comparison with the bounds, so NaN is rejected: `math.isfinite` for a
    real of any width, and for an integer, which may exceed every float, its
    size against the largest float64."""
    if (isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
            and (abs(value) <= _FLOAT_MAX if isinstance(value, (int, np.integer))
                 else math.isfinite(value))
            and (low <= value <= high if closed else low < value < high)):
        return float(value)
    if high == math.inf:
        wanted = f"a finite number {'>=' if closed else '>'} {low:g}"
    else:
        left, right = ("[", "]") if closed else ("(", ")")
        wanted = f"a number in {left}{low:g}, {high:g}{right}"
    raise error(f"{key!r} must be {wanted}, not {value!r}")


def _as_floats(values, key: str, low: float, high: float = math.inf, closed: bool = False,
               error=ValueError) -> tuple:
    """`values` as a tuple of floats: a non-empty 1-d array of numbers
    (`_numbers`) whose entries each pass `_as_float`. Each error names `key`."""
    bad = ValueError(f"{key!r} must be a rectangular array of numbers")
    arr = _numbers(values, key, 1, bad=bad)
    if not arr.size:
        raise ValueError(f"{key!r} must be a non-empty array of numbers")
    return tuple(_as_float(v, key, low, high, closed, error) for v in arr.tolist())


def _numbers(value, name: str, ndim: int | None = None, copy: bool = False,
             bad: Exception | None = None) -> np.ndarray:
    """`value` as a float64 array with `ndim` axes (any number for None). A
    float64 ndarray passes on its dtype alone and is returned itself, unless
    `copy`; any other value becomes a new array and must be a rectangular
    array of integers or reals. Ragged rows and string, boolean, None or other
    object entries raise `bad`, by default a ValueError naming `name`; other
    axes raise DimensionMismatch."""
    if isinstance(value, np.ndarray) and value.dtype == np.float64:
        raw = value.copy() if copy else value
    else:
        try:
            raw = np.array(value)
        except ValueError:  # numpy refuses ragged nesting
            raw = np.array(None)
        # numpy reads a boolean among numbers as a number; only a list mixes them
        if raw.dtype.kind not in "iuf" or not isinstance(value, np.ndarray) and any(
                isinstance(v, (bool, np.bool_)) for v in np.array(value, dtype=object).flat):
            raise bad or ValueError(f"{name} must be a rectangular array of numbers")
        raw = raw.astype(np.float64, copy=False)
    if ndim is not None and raw.ndim != ndim:
        raise DimensionMismatch(f"{name} must be a {ndim}-d array, got shape {raw.shape}")
    return raw


def _as_array(value, name: str, ndim: int, low=-math.inf, high=math.inf) -> np.ndarray:
    """A read-only float64 copy of `value` (`_numbers`), so freezing it never
    freezes the caller's array. ValueError naming `name` unless every entry is
    finite and then, so that NaN is named as such, in the closed [low, high]."""
    arr = _numbers(value, name, ndim, copy=True)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if not (np.all(arr >= low) and np.all(arr <= high)):
        raise ValueError(f"{name} entries must lie in [{low:g}, {high:g}]")
    arr.setflags(write=False)
    return arr


def _check_stochastic(value, name: str, ndim: int) -> np.ndarray:
    """`value` as laws within _ATOL: a read-only float64 copy (`_numbers`)
    with the tolerated negative entries set to 0, so every cumulative row is
    nondecreasing; other entries, -0.0 included, keep their bits."""
    rows = _numbers(value, name, ndim, copy=True)
    # negated, so that a NaN (every comparison False) is rejected too
    if not (np.all(rows >= -_ATOL) and np.all(rows <= 1.0 + _ATOL)):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    sums = rows.sum(axis=-1)
    if not np.all(np.abs(sums - 1.0) <= _ATOL):
        raise ValueError(f"{name} rows must sum to 1 within {_ATOL}")
    rows[rows < 0.0] = 0.0
    rows.setflags(write=False)
    return rows


def _as_labels(labels, n: int, K: float = math.inf, name: str = "labels") -> np.ndarray:
    """A read-only int64 copy of `labels`, n numbers (`_numbers`);
    DimensionMismatch for another shape, BadLabel unless every entry is an
    integer (an integral float is one; 1.5, NaN, a string and a boolean are
    not) in 1..K, so no label is ever truncated, parsed or wrapped round to
    the last class. Each error names `name`."""
    raw = _numbers(labels, name, 1, bad=BadLabel(f"{name} must be integers"))
    if raw.shape[0] != n:
        raise DimensionMismatch(f"{name} must be ({n},), got shape {raw.shape}")
    if not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
        raise BadLabel(f"{name} must be integers")
    # a Python float against K: an exact comparison, whatever the size of K
    if raw.size and (raw.min() < 1 or float(raw.max()) > K):
        raise BadLabel(f"{name} must lie in 1..{K}")
    y = raw.astype(np.int64)
    y.setflags(write=False)
    return y


def _unit_values(values, name: str, n: int) -> np.ndarray:
    """What a caller's function returned for n points (`_numbers`), each
    value in [0, 1] within _ATOL: n values are one function's, returned flat;
    otherwise a 2-d result of n columns holds one function's per row and
    keeps its shape. Any other result is a ValueError naming `name`."""
    vals = _numbers(values, name)
    if vals.size == n:
        vals = vals.reshape(-1)
    elif vals.ndim != 2 or vals.shape[1] != n:
        raise ValueError(f"{name} returned {vals.size} values for {n} points "
                         f"(shape {vals.shape})")
    # negated, so that a NaN (every comparison False) is rejected too
    if not (vals.min(initial=0.0) >= -_ATOL and vals.max(initial=0.0) <= 1.0 + _ATOL):
        raise ValueError(f"{name} left [0, 1]")
    return vals


def _one_function(vals: np.ndarray, name: str) -> np.ndarray:
    """`_unit_values`' result where one function's values are wanted:
    ValueError naming `name` for a block of one row per function."""
    if vals.ndim != 1:
        raise ValueError(f"{name} returned {vals.shape[0]} rows, one per function, "
                         "where one function is wanted")
    return vals


def _instance(value, key: str, kind: type):
    """`value` itself if it is a `kind` instance; else TypeError naming
    `key`, so a wrong object fails where it is passed."""
    if not isinstance(value, kind):
        raise TypeError(f"{key} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _instances(values, key: str, kind: type) -> tuple:
    """`values` as a tuple of `kind` instances (`_instance`); TypeError
    naming `key` if it is not a sequence, and `key[i]` for the first entry
    that is not one."""
    if not isinstance(values, Iterable):
        raise TypeError(f"{key} must be a sequence, not {type(values).__name__}")
    return tuple(_instance(value, f"{key}[{i}]", kind) for i, value in enumerate(values))


def _field_names(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


def _check_keys(section: dict, cls, name: str, allowed=None) -> dict:
    """Return a config section for the dataclass `cls`. ValueError for a
    field of cls with no default that the section lacks, and for a key not
    in `allowed` (default: every field of cls), so that no key (a misspelt
    one, another emission mode's) is silently dropped. Before that,
    ValueError naming the section if it is not a JSON object, and naming the
    key if a field annotated `tuple` holds something other than an array."""
    if not isinstance(section, dict):
        raise ValueError(f"config section {name} must be a JSON object, "
                         f"not {type(section).__name__}")
    for f in fields(cls):
        if f.type == "tuple" and not isinstance(section.get(f.name, ()), (list, tuple)):
            raise ValueError(f"key {f.name!r} in config section {name} must be a JSON "
                             f"array, not {type(section[f.name]).__name__}")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in section:
            raise ValueError(f"missing key {f.name!r} in config section {name}")
    allowed = _field_names(cls) if allowed is None else allowed
    for key in section:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in config section {name}")
    return section


def _count(text: str, low: int = 0, high: float = math.inf) -> int:
    """A text field of decimal digits as an int in low..high; ValueError
    for any other text, a sign included."""
    if not (text.isdigit() and low <= int(text) <= high):
        raise ValueError(f"not an integer >= {low}" if high == math.inf
                         else f"not an integer in {low}..{high}")
    return int(text)


def _length(text: str) -> int:
    """A text field that counts rows or fields of a file: `_count` up to
    _AXIS_MAX, the longest axis a float64 array can have."""
    return _count(text, high=_AXIS_MAX)


def _fields(raw: list, i: int, fields: tuple, each: tuple | None = None, count: int = 0) -> list:
    """raw[i], line i + 1 of a text file, read as `count` whitespace-separated
    fields of the (name, read) pair `each`, then one field per (name, read)
    pair of `fields`. ValueError naming the line if the file ends before it
    or the line holds another number of fields, and naming the field too if
    `read` rejects its text. The number of fields is compared before any
    is read, so a count far past the line's costs nothing."""
    if i >= len(raw):
        raise ValueError(f"missing line {i + 1}: the file ends at line {len(raw)}")
    parts = raw[i].split()
    if len(parts) != count + len(fields):
        named = ((each,) if count else ()) + fields
        names = " ".join(dict.fromkeys(name for name, _ in named))
        raise ValueError(f"line {i + 1} has {len(parts)} fields, wanted {count + len(fields)} "
                         f"({names})")
    out = []
    for (name, read), text in zip(itertools.chain(itertools.repeat(each, count), fields), parts):
        try:
            out.append(read(text))
        except ValueError as err:
            raise ValueError(f"line {i + 1}: {name} {text!r}: {err}") from None
    return out


def _reject_trailing(raw: list, start: int) -> None:
    """Raise ValueError at the first non-blank line of raw[start:], the
    lines after a text file's declared content."""
    for i in range(start, len(raw)):
        if raw[i].strip():
            raise ValueError(f"unexpected content at line {i + 1}: {raw[i][:40]!r}")
