"""Load-profile ingestion: CSV parsing, grid validation, resampling.

The on-disk format is a UTF-8 CSV with the exact header ``timestamp,power_kw``,
one row per sample. Timestamps are ISO-8601 or epoch seconds, strictly
increasing on a uniform grid; powers are finite kilowatts.

Parsing has two paths with one result. A seekable text source (a file opened
by :func:`parse_profile_file`, or ``str``/``bytes`` input) is first read by
``numpy.loadtxt`` and checked in numpy (a regular file's rows by its path,
which numpy reads in chunks, not line by line); anything that path cannot
take as it is (ISO timestamps, quoting, a bad or odd row, a failed check) is
re-read from the start by the row parser, which is the reference: it alone
writes error messages, and it alone reads ISO timestamps. Other iterables of
lines go to the row parser directly.

Every CSV this package writes is rendered by :func:`csv_bytes`, a few
thousand rows at a time, from numpy columns. Each field is the ``repr`` of
its value. Float fields come from a numpy kernel that computes the digits
``repr`` prints, block by block (:func:`_fixed_digits` holds the argument
that they are exactly those digits); the few values it does not take, and
integer columns, are given ``repr`` itself. A long column that repeats a
few values (a dispatch trace's flags, powers and states) may be rendered
from a table of its distinct fields, by the rule :func:`_column_renderer`
states. A time column (a profile's timestamps, a trace's ``t``) is never
held whole: each block computes its own rows as :func:`_sample_times` does.

A profile's sample interval decides which storage component can use it: the
supercapacitor needs 10 s resolution or better, outage (UPS) studies need
better than 30 s, and anything coarser is battery-only territory.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import stat
import sys
import warnings
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, fields
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    EmptyInputError,
    InvalidProfileError,
    MalformedRowError,
    NegativePowerError,
    NonUniformGridError,
    NotAMultipleError,
    UpsamplingForbiddenError,
)

#: Coarsest sample interval (seconds) still usable for supercapacitor control.
SC_MAX_DT_S = 10.0
#: Sample intervals at or above this (seconds) cannot build outage scenarios.
UPS_MAX_DT_S = 30.0
#: Allowed deviation of any timestamp gap from the inferred interval.
GRID_TOLERANCE_S = 1e-3

CSV_HEADER = ("timestamp", "power_kw")


def freeze_arrays(obj, dtype, *names: str, copy: bool = True) -> None:
    """Replace each named field of a frozen dataclass with a read-only copy.

    With ``copy=False`` an array that already has ``dtype`` is adopted: made
    read-only in place. The array holders (:class:`LoadProfile`,
    ``NormalizedProfile``, ``DerivativeSeries``, ``DispatchResult``) pass
    ``copy=not _owned``, and only library code sets their private ``_owned``
    InitVar: the code that has just built the arrays and keeps no other
    reference to them (both parse paths, ``normalize``, ``derivative``,
    ``dispatch``). Nothing can then write to an adopted array, and a long
    series is held once instead of twice. An array a caller passes in is
    always copied, since the caller may still change it.
    """
    for name in names:
        arr = getattr(obj, name)
        arr = np.array(arr, dtype=dtype) if copy else np.asarray(arr, dtype=dtype)
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def float_array(values, error: type[Exception]) -> np.ndarray:
    """``values`` as float64, the same array where they already are; a complex
    value (numpy would drop its imaginary part) or a non-number raises ``error``."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":
            raise TypeError("got complex values")
        return arr.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise error(f"values must be real numbers: {exc}") from None


def freeze_numbers(obj, error: type[Exception], check: Callable[[], None] = lambda: None) -> None:
    """Store a frozen dataclass's float fields as Python floats, its enum fields as members.

    The fields are those annotated ``float`` or ``Optional[float]``. Each
    must hold a real number; a bool, a non-real or an int or ``Fraction``
    beyond float range raises ``error``, and ``None`` passes where it is
    the default. Each is stored as ``float(v)`` before ``check`` runs, so
    the check reads, and its messages show, the value the object keeps:
    ``5``, ``5.0``, ``np.float32(5.0)`` and ``Fraction(5)`` are one value
    to the check and to every expression that reads it later.

    An enum field is one whose default is an enum member. It takes a member
    or a member's value and stores the member; anything else raises ``error``.
    """
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(f.default, Enum):
            try:
                object.__setattr__(obj, f.name, type(f.default)(v))
            except ValueError:
                values = [m.value for m in type(f.default)]
                raise error(f"{f.name} must be one of {values}, got {v!r}") from None
        elif f.type in ("float", "Optional[float]") and not (v is None and f.default is None):
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or isinstance(v, numbers.Rational) and abs(v) > sys.float_info.max):
                raise error(f"{f.name} must be a number, got {v!r}")
            object.__setattr__(obj, f.name, float(v))
    check()


#: Rows per block of :func:`csv_bytes`, and values per block of
#: ``metrics.blocked_histogram``. This bounds a block's text and fields, not a
#: render: deciding on a table sorts a whole column (see :func:`_column_renderer`).
CSV_BLOCK_ROWS = 4096
#: Keys of a long column sampled before it may be sorted for a table.
_TABLE_SAMPLE = 1024
#: A table holds at most one distinct value per this many rows.
_TABLE_FRACTION = 8

# Tables of the float kernel, indexed by the scale exponent j of _fixed_digits.
_J = np.arange(23)
#: ``10**j`` as floats, every one exact.
_POW10 = np.array([float(10 ** j) for j in range(23)])
#: Veltkamp's split of each ``10**j`` into a 26-bit high part and the rest.
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
#: ``10**min(j, 18)`` as int64: splits a candidate into integer and fraction.
_IPOW10 = 10 ** np.minimum(_J, 18)
#: A fraction of j digits becomes 20 digits, 8 high and 12 low:
#: ``hi = frac // DIV * MUL`` and ``lo = frac % DIV * LO_MUL``.
_FRAC_DIV = 10 ** np.maximum(_J - 8, 0)
_FRAC_MUL = 10 ** np.maximum(8 - _J, 0)
_FRAC_LO_MUL = np.where(_J > 8, 10 ** np.clip(20 - _J, 0, 18), 0)


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The glyph words and the trailing zero digits of 0..9999 (four for 0).

    Each glyph word is four ASCII bytes: ``0000``-``9999`` at 0, the sign
    word ``0ddd`` or ``-ddd`` at 10000 or 11000, and ``ddd.`` at 12000.
    """
    digit = np.arange(10, dtype=np.uint8)
    axes = [digit.reshape((10,) + (1,) * (3 - k)) for k in range(4)]  # most significant first
    glyphs = np.empty((13000, 4), np.uint8)
    for k, axis in enumerate(axes):
        glyphs[:10000].reshape(10, 10, 10, 10, 4)[..., k] = axis + ord("0")
    zero = [axis == 0 for axis in axes]
    trailing_zeros = zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0].astype(np.int64))))
    glyphs[10000:11000] = glyphs[11000:12000] = glyphs[:1000]
    glyphs[11000:12000, 0] = ord("-")
    glyphs[12000:, :3] = glyphs[:1000, 1:]
    glyphs[12000:, 3] = ord(".")
    return glyphs.view(np.uint32).ravel(), trailing_zeros.ravel()


def _keep_table() -> np.ndarray:
    """Keep flags of a float field, one row per ``(negative, integer digits,
    fraction digits)`` at ``(neg * 15 + nint) * 21 + nfrac``."""
    neg, nint, nfrac, pos = np.ogrid[:2, :15, :21, :36]
    keep = (pos == 0) & (neg == 1) | (pos >= 15 - nint) & (pos < 16 + nfrac)
    return (keep.reshape(-1, 36) * np.uint8(255)).view(np.uint32)


_GLYPHS, _TRAILING_ZEROS = _digit_tables()
_KEEPS = _keep_table()


def _fixed_digits(a: np.ndarray, bits: np.ndarray):
    """The digits ``repr`` prints for each ``|x|`` in ``a``, in fixed notation.

    ``bits`` is the int64 view of each x. Returns ``(whole, frac, j, nint,
    nfrac, fallback)``: the decimal is ``whole + frac / 10**j``, to be printed
    with ``nint`` integer and ``nfrac`` fraction digits (leading and
    trailing zeros dropped, at least one each), and ``fallback`` indexes the
    values this kernel does not take. Those are the values outside
    ``1e-4 <= |x| < 1e14`` other than zero (NaN and infinities among them),
    mantissas that are a power of two, and exact ties between two
    candidates; the caller gives them ``repr``.

    Why the digits are exactly those of ``repr``. ``repr`` prints the shortest
    decimal that reads back as x and, among the shortest, the one nearest x.
    A decimal reads back as x when it lies in x's rounding interval, which
    reaches half an ulp to each side (closed for an even mantissa, open for
    an odd one; a power-of-two mantissa has a narrower lower side and is
    left to ``repr``).

    1. Scale: with ``E = floor(log10 |x|)`` and ``j = 16 - E`` (3 to 20),
       ``V = |x| * 10**j`` lies in ``[1e16, 1e17)``. ``10**j`` is an exact
       double, and Dekker's TwoProduct gives ``V = hi + lo`` exactly: the
       split parts of both factors multiply exactly, and nothing overflows
       or underflows at these magnitudes. ``log10`` may put E one off near a
       power of ten; the exact test of ``hi + lo`` against 1e16 and 1e17
       moves j until V is in range. ``hi >= 1e16 > 2**53`` is an integer,
       so ``V = F + f`` with ``F = hi + floor(lo)`` an int64 and
       ``0 <= f < 1`` exact.
    2. Exactness of every compare: all of ``lo``, ``f`` and the half-ulp
       ``h = 2**(e-1) * 10**j`` (x's ulp is ``2**e``) are multiples of
       ``2**(e+j-1)``, which is at least ``2**-48`` here. ``h`` is an exact
       double (a power of two times ``5**j < 2**53``), and so is any such
       multiple below 32 in magnitude. Each distance below (an integer under
       17 plus or minus f) is one of those, and distances of 16 or more are
       clipped to 16 or 17, which no interval reaches: ``h < 11.2``.
    3. Candidates: the nearest multiple of 100, 10 and 1 to V, that is x
       rounded to 15, 16 and 17 significant digits. The first that lies
       within ``h`` of V (strictly, for an odd mantissa) is ``repr``'s:
       - 15 digits: multiples of 100 are further apart than the interval is
         wide (``2h < 23``), so at most one fits. If some decimal of 15 or
         fewer digits fits, it is that one (its digits padded with zeros), and
         being the only one it is also the nearest. Printing drops its
         trailing zeros, which gives the shortest.
       - 16 digits: the interval is symmetric, so if any 16-digit decimal
         fits, the nearest does; ``repr`` takes the nearest.
       - 17 digits: ``V / h < 2**54`` gives ``h >= 0.555 > 0.5``, so the
         nearest integer always fits.
       A candidate exactly halfway between two (``f == 0.5`` or ``V`` a
       multiple of 5) is a tie that ``repr`` breaks by its own rule; it is
       left to ``repr``.
    4. The candidate ``C`` (at most ``10**17``) stands for ``C / 10**j``.
       Its integer part has at most 14 digits: 1e14 is a double, so no
       rounding interval of a smaller double holds it. Its fraction has at
       most ``j <= 20`` digits.
    """
    mantissa = bits & (2 ** 52 - 1)
    zero = a == 0.0
    ok = (a >= 1e-4) & (a < 1e14) & (mantissa != 0)
    a = np.where(ok, a, 1.5)  # a placeholder where the kernel does not apply
    j = 16 - np.floor(np.log10(a)).astype(np.int64)
    split = a * 134217729.0  # Veltkamp: 2**27 + 1
    a_hi = split - (split - a)
    a_lo = a - a_hi
    while True:
        p, p_hi, p_lo = _POW10[j], _POW10_HI[j], _POW10_LO[j]
        hi = a * p
        lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
        if not ((hi <= 1e16) | (hi >= 1e17)).any():
            break
        low = (hi < 1e16) | (hi == 1e16) & (lo < 0.0)
        high = (hi > 1e17) | (hi == 1e17) & (lo >= 0.0)
        if not (low.any() or high.any()):
            break
        j += low
        j -= high
    floor = np.floor(lo)
    v = hi.astype(np.int64) + floor.astype(np.int64)
    f = lo - floor
    # half an ulp of a, from its exponent bits; then h, lowered by one ulp of
    # h for an odd mantissa, so that "dist <= h" is the strict bound there
    half_ulp = ((a.view(np.int64) & (0x7FF << 52)) - (53 << 52)).view(np.float64)
    h = ((half_ulp * p).view(np.int64) - (mantissa & 1)).view(np.float64)
    r2 = v - v // 100 * 100
    r1 = r2 - r2 // 10 * 10
    up15 = np.minimum(100 - r2, 17) - f <= h
    fit15 = up15 | (np.minimum(r2, 16) + f <= h)
    down16 = r1 + f
    up16 = (10 - r1) - f
    fit16 = np.minimum(down16, up16) <= h
    c = np.where(fit15, v - r2 + 100 * up15,
                 np.where(fit16, v - r1 + 10 * (up16 < down16), v + (f > 0.5)))
    tie = ~fit15 & np.where(fit16, down16 == up16, f == 0.5)
    fallback = np.flatnonzero(~zero & (~ok | tie))
    c[zero] = 0

    whole, frac = np.divmod(c, _IPOW10[j])
    nint = np.maximum(17 - j + (c >= 10 ** 17), 1)
    rest = c // 10000
    tz = _TRAILING_ZEROS[c - rest * 10000]
    more = np.flatnonzero(tz == 4)
    for _ in range(4):  # c < 10**18 has at most five groups of four digits
        if not more.size:
            break
        rest[more], last = np.divmod(rest[more], 10000)
        zeros = _TRAILING_ZEROS[last]
        tz[more] += zeros
        more = more[zeros == 4]
    return whole, frac, j, nint, np.maximum(j - tz, 1), fallback


def _digit_groups(value: np.ndarray, out: np.ndarray) -> None:
    """Write the last ``4 * len(out)`` digits of ``value`` into the rows of
    ``out``, four digits per row, most significant first."""
    for row in out[:0:-1]:
        rest = value // 10000
        np.subtract(value, rest * 10000, out=row)
        value = rest
    out[0] = value


def _float_fields(x: np.ndarray) -> np.ndarray:
    """The ``repr`` of each float64 of ``x`` as a row of ASCII bytes, NUL
    where the ``repr`` has no byte.

    A row is a sign byte, 14 integer digits, ``.`` and 20 fraction digits,
    built four bytes at a time from the words of :data:`_GLYPHS` and masked
    by a row of :data:`_KEEPS`, which clears the sign of a positive value,
    leading zeros of the integer part and trailing zeros of the fraction,
    but keeps one digit on each side of the point. When every value is a
    whole number below ``1e14`` the digits are the integer itself;
    otherwise :func:`_fixed_digits` computes them, and the rows of the
    values it does not take are overwritten with their ``repr``. Byte
    columns that no row uses are cut off at both ends.
    """
    a = np.abs(x)
    negative = np.signbit(x)
    groups = np.empty((9, len(x)), np.int64)
    if (a < 1e14).all() and (np.trunc(a) == a).all():  # NaN fails the first test
        whole = a.astype(np.int64)
        nint = np.searchsorted(_IPOW10[1:15], whole, side="right") + 1
        nfrac, fallback = 1, ()
        groups[4:] = 0
    else:
        whole, frac, j, nint, nfrac, fallback = _fixed_digits(a, x.view(np.int64))
        high, low = np.divmod(frac, _FRAC_DIV[j])  # 20 fraction digits: 8 + 12
        _digit_groups(high * _FRAC_MUL[j], groups[4:6])
        _digit_groups(low * _FRAC_LO_MUL[j], groups[6:])
    thousands = whole // 1000
    groups[3] = whole - thousands * 1000 + 12000  # "ddd."
    top = thousands // 10 ** 8
    groups[0] = top + 10000 + 1000 * negative  # "0ddd" or "-ddd"
    _digit_groups(thousands - top * 10 ** 8, groups[1:3])
    words = np.ascontiguousarray(_GLYPHS[groups.T])
    words &= _KEEPS[(negative * 15 + nint) * 21 + nfrac]
    text = words.view(np.uint8)
    if len(fallback):
        text[fallback] = _repr_fields(x[fallback], 36)
        return text
    start = 0 if negative.any() else 15 - np.max(nint, initial=1)
    return text[:, start:16 + np.max(nfrac, initial=1)]


def _repr_fields(values: np.ndarray, width: int = 0) -> np.ndarray:
    """The ``repr`` of each ``tolist()`` scalar as a row of ASCII bytes,
    left-aligned and padded with NUL bytes, ``width`` bytes long or as long
    as the longest ``repr``."""
    raw = np.array(list(map(repr, values.tolist())), dtype=f"S{width or ''}")
    return raw.view(np.uint8).reshape(len(values), raw.dtype.itemsize)


def _fields(values: np.ndarray) -> np.ndarray:
    """The field of every value as a NUL-padded byte row: the float kernel
    for float64, ``repr`` for the rest."""
    if values.dtype == np.float64:
        return _float_fields(values)
    return _repr_fields(values)


def _left_aligned(text: np.ndarray) -> np.ndarray:
    """The non-NUL bytes of each row moved to its start, in rows as long as
    the longest, padded with NUL bytes."""
    keep = text != 0
    lengths = keep.sum(axis=1)
    packed = np.zeros((len(text), int(lengths.max(initial=0))), np.uint8)
    packed[np.arange(packed.shape[1]) < lengths[:, None]] = text[keep]
    return packed


@dataclass(frozen=True)
class _TimeColumn:
    """The CSV column ``_sample_times(t0, dt, n)``, given to :func:`csv_bytes`
    in place of the array: each block computes its own rows."""

    t0: float
    dt: float
    n: int

    def __len__(self) -> int:
        return self.n


def _column_renderer(col: Union[np.ndarray, _TimeColumn]) -> Callable[[int, int], np.ndarray]:
    """A ``(start, end) -> text`` function giving the fields of rows
    ``start:end`` of one column as NUL-padded byte rows (see :func:`_fields`).

    A float column of any width is rendered as float64, whose ``tolist()``
    scalars are the same Python floats. A :class:`_TimeColumn` is rendered
    from the block's own :func:`_sample_times`, the same floats as the
    whole column's rows, and is never sorted or tabled. Other dtypes raise
    ``TypeError``.

    The table rule. A column of at least :data:`CSV_BLOCK_ROWS` values is
    keyed by its bits: a float column by its ``int64`` view, so ``-0.0`` and
    ``0.0`` stay apart and so do NaN payloads, an integer column as it is.
    If more than 7 in 8 of a strided sample of about :data:`_TABLE_SAMPLE`
    keys are distinct, the column is not sorted. Otherwise a sort of the keys
    counts the distinct ones, and if there are at most ``n // _TABLE_FRACTION``
    the rows come from a table: the fields of the distinct keys read back as
    values, left-aligned, looked up one block at a time with
    ``np.searchsorted``. Every other column renders each block's values.
    Values with equal bits have equal fields, so a tabled row's text is its own.

    Deciding on a table costs memory in proportion to the whole column, not
    to a block: one sorted copy of the keys and a byte mask. The distinct
    keys are compacted only once the count has passed.
    """
    if isinstance(col, _TimeColumn):
        return lambda s, e: _fields(_sample_times(col.t0, col.dt, e, s))
    if col.dtype.kind == "f":
        col = col.astype(np.float64, copy=False)
        keys = col.view(np.int64)
    elif col.dtype.kind in "biu":
        keys = col
    else:
        raise TypeError(f"a CSV column must hold numbers, not {col.dtype}")

    def plain(s, e):
        return _fields(col[s:e])

    n = len(col)
    if n < CSV_BLOCK_ROWS:
        return plain
    sample = keys[:: n // _TABLE_SAMPLE]
    if len(set(sample.tolist())) * 8 > len(sample) * 7:  # more than 7 in 8 distinct
        return plain
    distinct = np.sort(keys)
    run_start = np.ones(n, bool)
    np.not_equal(distinct[1:], distinct[:-1], out=run_start[1:])
    if np.count_nonzero(run_start) > n // _TABLE_FRACTION:
        return plain
    distinct = distinct[run_start]
    table = _left_aligned(_fields(distinct.view(col.dtype)))

    def tabled(s, e):
        return table[np.searchsorted(distinct, keys[s:e])]

    return tabled


def csv_bytes(header: Sequence[str], columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """Yield the UTF-8 bytes of :func:`write_csv`: the header row, then blocks
    of :data:`CSV_BLOCK_ROWS` rows, each rendered from one slice of every column.

    How to render each column is decided once per call by
    :func:`_column_renderer`. A block is one matrix of bytes: each column's
    fields in a run of byte columns, NUL where a field has no byte, then a
    separator column, with ``\r\n`` after the last field. One boolean
    compaction, which drops the NUL bytes, turns it into the block's bytes;
    the fields are released before it, so a block's text is all it holds.
    """
    yield (",".join(header) + "\r\n").encode("utf-8")
    renderers = list(map(_column_renderer, columns))
    n = len(columns[0])
    for s in range(0, n, CSV_BLOCK_ROWS):
        e = min(s + CSV_BLOCK_ROWS, n)
        fields = [render(s, e) for render in renderers]
        text = np.empty((e - s, sum(f.shape[1] for f in fields) + len(fields) + 1), np.uint8)
        at = 0
        for field in fields:
            w = field.shape[1]
            text[:, at:at + w] = field
            text[:, at + w] = ord(",")
            at += w + 1
        del fields, field  # the compaction below needs only the text
        text[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
        yield text[text != 0].tobytes()


def write_csv(
    target: Union[str, Path, IO], header: Sequence[str], columns: Sequence[np.ndarray]
) -> None:
    r"""Write ``header`` and then equal-length ``columns``, row by row, as CSV.

    Columns hold numbers: bools, integers or floats. Every field is the
    ``repr`` of the Python scalar ``tolist()`` gives (a float at full
    precision, an integer as plain digits), fields are joined by ``,`` and
    every row ends in ``\r\n``: byte for byte what ``csv.writer`` writes for
    the same ``repr`` strings, none of which needs quoting. Header names are
    written as they are. The text comes from :func:`csv_bytes`, which
    computes float fields in numpy and may take a column's fields from a
    table (see :func:`_column_renderer`): the same strings.

    A path is opened in binary mode, written those bytes and closed again;
    an open file is written each block decoded as text and left open.
    """
    if isinstance(target, (str, Path)):
        with open(target, "wb") as fh:
            fh.writelines(csv_bytes(header, columns))
        return
    for block in csv_bytes(header, columns):
        target.write(block.decode("utf-8"))


def write_json(payload, target: Union[str, Path, IO]) -> None:
    """Write ``payload`` as indented JSON and a newline to a path or an open file.

    The JSON is strict: a non-finite float raises ``ValueError`` instead of
    turning into ``Infinity`` or ``NaN``, which are not JSON.
    """
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    else:
        target.write(text)


class Category(Enum):
    """Application categories for storage deployment."""

    PS = "PS"          # peak shaving
    WDG = "WDG"        # weak distribution grid balancing
    UPS = "UPS"        # uninterruptible power supply
    VI = "VI"          # virtual inertia (taxonomy label only)
    UNKNOWN = "Unknown"


@dataclass(frozen=True, eq=False)
class LoadProfile:
    """Uniformly sampled power time series in kilowatts.

    Attributes
    ----------
    site_id : str
        Identifier of the metering site.
    category_hint : Category
        Declared application category, if known.
    t0 : float
        Epoch seconds (UTC) of the first sample; finite.
    dt : float
        Sample interval in seconds, > 0, with a finite ``1 / dt``.
    samples : numpy.ndarray
        Power values in kW; finite, non-negative, at least two samples. Their
        sum must be within half the float range, and the sum times ``dt`` finite.

    ``t0`` and ``dt`` are stored as floats, so a profile built from ints has
    the canonical CSV and ``input_sha256`` of its float twin.
    """

    site_id: str
    t0: float
    dt: float
    samples: np.ndarray
    category_hint: Category = Category.UNKNOWN
    _owned: InitVar[bool] = False  # see freeze_arrays

    def __post_init__(self, _owned):
        object.__setattr__(self, "samples", float_array(self.samples, InvalidProfileError))
        freeze_arrays(self, np.float64, "samples", copy=not _owned)
        freeze_numbers(self, InvalidProfileError, self._check)

    def _check(self):
        arr = self.samples
        if arr.ndim != 1:
            raise InvalidProfileError("samples must be a one-dimensional sequence")
        if arr.size < 2:
            raise InvalidProfileError("a load profile needs at least 2 samples")
        if not np.all(np.isfinite(arr)):
            raise InvalidProfileError("samples must all be finite")
        if np.any(arr < 0.0):
            raise InvalidProfileError("samples must be non-negative kilowatts")
        if not math.isfinite(self.t0):
            raise InvalidProfileError(f"t0 must be a finite number of seconds, got {self.t0}")
        check_dt(self.dt)
        with np.errstate(over="ignore"):  # an infinite timestamp fails the grid check
            times = _sample_times(self.t0, self.dt, arr.size)
        if not _uniform_grid(times):  # the canonical CSV would not read back
            raise InvalidProfileError(
                f"t0={self.t0!r} and dt={self.dt!r} s do not give {arr.size} finite, evenly "
                f"spaced timestamps: gaps must stay within {GRID_TOLERANCE_S} s of dt")
        with np.errstate(over="ignore"):
            total = float(arr.sum())
        # Half the float range leaves room for the few ulps by which a rescaled
        # copy of the samples (dispatch's pu * P) may sum higher.
        if not (total <= sys.float_info.max / 2 and math.isfinite(total * self.dt)):
            raise InvalidProfileError("samples too large: their total energy overflows a float")

    def __eq__(self, other):
        if not isinstance(other, LoadProfile):
            return NotImplemented
        # np.array_equal compares samples elementwise and any other field by ==
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        """Total time span covered, counting each sample as one interval."""
        return self.samples.size * self.dt

    @property
    def max_kw(self) -> float:
        return float(self.samples.max())


def check_dt(dt: float) -> None:
    """Reject a sample interval that is not positive or whose ``1 / dt`` overflows."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidProfileError(f"dt must be a positive number of seconds, got {dt}")
    if not math.isfinite(1.0 / dt):  # the derivative divides pu steps (<= 1) by dt
        raise InvalidProfileError(f"dt={dt!r} s is too short: 1/dt overflows a float")


def _sample_times(t0: float, dt: float, n: int, start: int = 0) -> np.ndarray:
    """``t0 + i * dt`` for every ``start <= i < n``; each ``i`` is an exact
    float, so a row's value does not depend on ``start``."""
    times = np.arange(start, n, dtype=np.float64)
    times *= dt
    times += t0
    return times


def _uniform_grid(t: np.ndarray) -> bool:
    """Whether two or more timestamps pass the row parser's grid checks: all
    finite, the first gap above 0, and every gap within
    :data:`GRID_TOLERANCE_S` of the first."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing gap fails below
        gaps = np.diff(t)
        first = gaps[0]
        gaps -= first  # a later timestamp is finite when t[0] and every gap are
        return bool(np.isfinite(t[0]) and first > 0.0
                    and np.abs(gaps, out=gaps).max() <= GRID_TOLERANCE_S)


@dataclass(frozen=True)
class ResolutionVerdict:
    """Which storage components a profile's time resolution can serve."""

    sc_suitable: bool
    ups_usable: bool
    vrfb_only: bool
    reason: str


def _parse_timestamp(text: str, row_number: int) -> float:
    """Epoch seconds from an epoch literal or an ISO-8601 string."""
    try:
        t = float(text)
    except ValueError:
        pass
    else:
        if not math.isfinite(t):
            raise MalformedRowError(row_number, f"timestamp must be finite, got {text!r}")
        return t
    iso = text.strip()
    if iso.endswith(("Z", "z")):
        iso = iso[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(iso)
    except ValueError:
        raise MalformedRowError(row_number, f"unparseable timestamp {text!r}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


@contextmanager
def _text_lines(source: Union[bytes, str, IO, Iterable[str]]) -> Iterator[Iterable[str]]:
    """The source as lines of text.

    A binary file is wrapped in a decoder that is detached again on exit,
    on success and on error, so the caller's file stays open. ``str`` and
    ``bytes`` end their lines where a file opened as :func:`parse_profile_file`
    opens it does: at ``\n``, ``\r\n`` or a lone ``\r``.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        yield io.StringIO(source, newline="")
    elif hasattr(source, "read") and isinstance(source.read(0), bytes):
        wrapper = io.TextIOWrapper(source, encoding="utf-8")
        try:
            yield wrapper
        finally:
            wrapper.detach()
    else:
        yield source


def parse_profile(
    source: Union[bytes, str, IO, Iterable[str]],
    *,
    site_id: str = "",
    category_hint: Category = Category.UNKNOWN,
    clamp_negative: bool = False,
) -> LoadProfile:
    """Parse a ``timestamp,power_kw`` CSV into a validated :class:`LoadProfile`.

    The sample interval is inferred from the first two rows; every later gap
    must match it within :data:`GRID_TOLERANCE_S`.

    ``str`` and ``bytes`` input and seekable text files are read with
    ``numpy.loadtxt`` when they hold epoch-second rows that pass every check;
    any other input, or any row that path rejects, goes through the row
    parser from the first line. Both paths give the same profile, bit for
    bit; the row parser is the reference for every error message and the
    only reader of ISO timestamps.

    Parameters
    ----------
    source
        CSV bytes, string, open file, or an iterable of lines.
    site_id, category_hint
        Metadata attached to the parsed profile (not stored in the CSV).
    clamp_negative
        Replace negative powers (reverse flow) with 0 instead of rejecting.

    Raises
    ------
    EmptyInputError, MalformedRowError, NonUniformGridError, NegativePowerError
    """
    with _text_lines(source) as lines:
        t0, dt, samples = _parse_text(lines, clamp_negative)
    return LoadProfile(
        site_id=site_id, category_hint=category_hint, t0=t0, dt=dt, samples=samples, _owned=True,
    )


def _parse_text(
    lines, clamp_negative: bool, path: Optional[str] = None
) -> tuple[float, float, np.ndarray]:
    """``(t0, dt, samples)`` by the numpy path where ``lines`` can take it, else by
    the row parser from where ``lines`` stood; ``path`` as :func:`_parse_loadtxt` takes it."""
    start = _start_position(lines)
    if start is not None:
        parsed = _parse_loadtxt(lines, clamp_negative, path)
        if parsed is not None:
            return parsed
        lines.seek(start)
    return _parse_rows(lines, clamp_negative)


def _start_position(lines) -> Optional[int]:
    """Where the row parser would restart after the numpy path; None: no numpy path."""
    if not (isinstance(lines, io.TextIOBase) and lines.seekable()):
        return None
    try:
        return lines.tell()
    except OSError:  # a text file part-way through ``next()`` cannot tell
        return None


def _parse_loadtxt(
    fh: IO[str], clamp_negative: bool, path: Optional[str] = None
) -> Optional[tuple[float, float, np.ndarray]]:
    """``(t0, dt, samples)`` read by ``numpy.loadtxt``, or None to fall back.

    None whenever the header or any row is not plain epoch-second numbers
    that pass every check of :func:`_parse_rows`; the stream is then left
    part-read. The header is read from ``fh``; the rows from ``fh`` too, or,
    given ``path`` (the file ``fh`` reads, see :func:`_loadtxt_path`), from
    that path past its first line, which ``numpy.loadtxt`` reads in chunks
    rather than line by line.
    """
    line = fh.readline()
    if tuple(h.strip().lstrip("\ufeff") for h in line.split(",")) != CSV_HEADER:
        return None
    rows, skip = (fh, 0) if path is None else (path, 1)
    try:
        with warnings.catch_warnings():
            # a header-only file is the row parser's EmptyInputError
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(rows, delimiter=",", dtype=np.float64, comments=None, ndmin=2,
                               skiprows=skip, encoding="utf-8")
    except ValueError:
        return None
    if table.shape[1:] != (2,) or table.shape[0] < 2:
        return None
    t, p = table[:, 0], table[:, 1]
    if not (_uniform_grid(t) and np.isfinite(p).all()):
        return None
    dt = t[1] - t[0]
    if clamp_negative:
        p = np.where(p < 0.0, 0.0, p)
    elif (p < 0.0).any():
        return None
    # a contiguous copy of the column: the (n, 2) table is freed on return
    return float(t[0]), float(dt), np.ascontiguousarray(p)


def _parse_rows(
    source: Union[bytes, str, IO, Iterable[str]], clamp_negative: bool
) -> tuple[float, float, np.ndarray]:
    """``(t0, dt, samples)`` from the CSV, one row at a time, with row-numbered errors."""
    with _text_lines(source) as lines:
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError("no header row") from None
        header = [h.strip().lstrip("\ufeff") for h in header]
        if tuple(header) != CSV_HEADER:
            raise MalformedRowError(
                1, f"header must be 'timestamp,power_kw', got {','.join(header)!r}")

        times: list[float] = []
        powers: list[float] = []
        rows: list[int] = []  # each sample's row number, for the grid checks
        row_number = 1
        for row in reader:
            row_number += 1
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # tolerate a trailing blank line
            if len(row) != 2:
                raise MalformedRowError(row_number, f"expected 2 fields, got {len(row)}")
            t = _parse_timestamp(row[0], row_number)
            try:
                p = float(row[1])
            except ValueError:
                raise MalformedRowError(row_number, f"unparseable power {row[1]!r}") from None
            if not math.isfinite(p):
                raise MalformedRowError(row_number, f"power must be finite, got {row[1]!r}")
            if p < 0.0:
                if not clamp_negative:
                    raise NegativePowerError(
                        f"row {row_number}: negative power {p} kW "
                        "(pass clamp_negative=True to zero reverse flow)"
                    )
                p = 0.0
            times.append(t)
            powers.append(p)
            rows.append(row_number)

    if not times:
        raise EmptyInputError("no data rows")
    if len(times) < 2:
        raise InvalidProfileError("a load profile needs at least 2 samples")

    dt = times[1] - times[0]
    if dt <= 0.0:
        raise NonUniformGridError(
            f"timestamps not strictly increasing at row {rows[1]} (dt={dt})")
    for i in range(2, len(times)):  # the first gap is dt itself
        gap = times[i] - times[i - 1]
        if not abs(gap - dt) <= GRID_TOLERANCE_S:
            raise NonUniformGridError(
                f"row {rows[i]}: gap {gap} s deviates from inferred interval {dt} s"
            )
    return times[0], dt, np.array(powers)


def parse_profile_file(
    path: Union[str, Path],
    *,
    site_id: Optional[str] = None,
    category_hint: Category = Category.UNKNOWN,
    clamp_negative: bool = False,
) -> LoadProfile:
    """Parse a profile CSV from disk; site_id defaults to the file stem.

    As :func:`parse_profile` on the open file, except that the numpy path
    reads the rows of a regular file by its path (see :func:`_loadtxt_path`).
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        t0, dt, samples = _parse_text(fh, clamp_negative, _loadtxt_path(fh, path))
    return LoadProfile(
        site_id=path.stem if site_id is None else site_id, category_hint=category_hint,
        t0=t0, dt=dt, samples=samples, _owned=True,
    )


def _loadtxt_path(fh: IO[str], path: Path) -> Optional[str]:
    """The absolute path ``numpy.loadtxt`` may read for ``fh``, or None.

    Only a regular file qualifies (a second open of a FIFO or a device would
    not read the same bytes), and only under a name whose suffix numpy's
    ``DataSource`` would not decompress.
    """
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return None
    if path.suffix in (".gz", ".bz2", ".xz", ".lzma"):
        return None
    return os.path.abspath(path)


def _profile_columns(profile: LoadProfile) -> tuple[_TimeColumn, np.ndarray]:
    return _TimeColumn(profile.t0, profile.dt, profile.n_samples), profile.samples


def write_profile_csv(profile: LoadProfile, target: Union[str, Path, IO]) -> None:
    """Serialize a profile to the standard CSV format (full float precision)."""
    write_csv(target, CSV_HEADER, _profile_columns(profile))


def profile_csv_bytes(profile: LoadProfile) -> Iterator[bytes]:
    """The canonical CSV of :func:`write_profile_csv`, as :func:`csv_bytes`."""
    return csv_bytes(CSV_HEADER, _profile_columns(profile))


def profile_to_csv(profile: LoadProfile) -> str:
    return "".join(block.decode("ascii") for block in profile_csv_bytes(profile))


def validate_resolution(profile: LoadProfile) -> ResolutionVerdict:
    """Gate a profile by its sample interval.

    Pure function of ``dt``: supercapacitor studies need dt <= 10 s, outage
    scenario construction needs dt < 30 s, anything coarser than 10 s is
    battery-only.
    """
    dt = profile.dt
    sc = dt <= SC_MAX_DT_S
    ups = dt < UPS_MAX_DT_S
    if sc:
        reason = f"dt={dt:g} s <= {SC_MAX_DT_S:g} s: fine enough for supercapacitor control"
    elif ups:
        reason = (
            f"dt={dt:g} s exceeds {SC_MAX_DT_S:g} s (battery-only) but stays below "
            f"{UPS_MAX_DT_S:g} s, so outage scenarios remain usable"
        )
    else:
        reason = (
            f"dt={dt:g} s is {UPS_MAX_DT_S:g} s or coarser: peaks average out and "
            "only battery-scale balancing remains meaningful"
        )
    return ResolutionVerdict(sc_suitable=sc, ups_usable=ups, vrfb_only=not sc, reason=reason)


def resample(profile: LoadProfile, target_dt: float) -> LoadProfile:
    """Average a profile down to a coarser uniform grid.

    Each output sample is the arithmetic mean of one window of input samples, so peaks can
    only shrink; a short trailing window is dropped, not padded. No command calls it: it is
    the library's one way to the coarser timescales of a multi-timescale study.

    Raises
    ------
    UpsamplingForbiddenError
        If ``target_dt <= profile.dt`` (fabricating resolution).
    NotAMultipleError
        If ``target_dt`` is not an integer multiple of ``profile.dt``.
    """
    if target_dt <= profile.dt:
        raise UpsamplingForbiddenError(
            f"target interval {target_dt} s must be coarser than the source {profile.dt} s"
        )
    ratio = target_dt / profile.dt
    factor = int(round(ratio)) if ratio < math.inf else 0  # 0: inf and nan are no multiple
    if not factor or abs(factor * profile.dt - target_dt) > 1e-9 * target_dt:
        raise NotAMultipleError(
            f"target interval {target_dt} s is not an integer multiple of {profile.dt} s"
        )
    n_windows = profile.n_samples // factor
    if n_windows < 2:
        raise InvalidProfileError(
            f"resampling {profile.n_samples} samples by {factor} leaves fewer than 2"
        )
    used = profile.samples[: n_windows * factor]
    means = used.reshape(n_windows, factor).mean(axis=1)
    return LoadProfile(
        site_id=profile.site_id, category_hint=profile.category_hint,
        t0=profile.t0, dt=factor * profile.dt, samples=means,
    )


# --- local profile catalog ---

@dataclass(frozen=True)
class CatalogEntry:
    """One entry of a catalog manifest: where a profile lives and what it is."""

    path: str
    site_id: str
    category_hint: Category = Category.UNKNOWN


def read_catalog(manifest_path: Union[str, Path]) -> list[CatalogEntry]:
    """Read a JSON manifest listing ``{path, site_id, category_hint}`` entries."""
    manifest_path = Path(manifest_path)
    try:
        raw = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedRowError(exc.lineno, f"catalog manifest is not valid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise MalformedRowError(1, "catalog manifest must be a JSON array")
    entries = []
    for i, item in enumerate(raw):
        try:
            if not isinstance(item, dict):
                raise TypeError(f"expected a JSON object, got {item!r}")
            path, site_id = item["path"], item["site_id"]
            if not (isinstance(path, str) and isinstance(site_id, str)):
                raise TypeError(f"path and site_id must be strings, got {path!r} and {site_id!r}")
            if "\x00" in path:
                raise ValueError(f"path contains a NUL character: {path!r}")
            os.fsencode(path)  # a lone surrogate raises UnicodeEncodeError, a ValueError
            hint = Category(item.get("category_hint", "Unknown"))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRowError(i + 1, f"bad catalog entry: {exc}") from None
        entries.append(CatalogEntry(path=path, site_id=site_id, category_hint=hint))
    return entries


def _catalog_profiles(manifest_path: Path, clamp_negative: bool) -> Iterator[LoadProfile]:
    """Each profile of a manifest, parsed when it is reached: one is held at a time.

    The whole manifest is read and checked before the first profile is parsed.
    Relative entry paths are resolved against the manifest's directory.
    """
    for entry in read_catalog(manifest_path):
        yield parse_profile_file(
            manifest_path.parent / entry.path, site_id=entry.site_id,
            category_hint=entry.category_hint, clamp_negative=clamp_negative,
        )
