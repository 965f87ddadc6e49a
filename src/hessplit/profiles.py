"""Load-profile ingestion: CSV parsing, grid validation, resampling.

The on-disk format is a UTF-8 CSV with the exact header ``timestamp,power_kw``,
one row per sample. Timestamps are ISO-8601 or epoch seconds, strictly
increasing on a uniform grid; powers are finite kilowatts.

Parsing has two paths with one result. A seekable text source (a file opened
by :func:`parse_profile_file`, or ``str``/``bytes`` input) is first read by
``numpy.loadtxt`` and checked in numpy; anything that path cannot take as it
is (ISO timestamps, quoting, a bad or odd row, a failed check) is re-read
from the start by the row parser, which is the reference: it alone writes
error messages, and it alone reads ISO timestamps. Other iterables of lines
go to the row parser directly.

Every CSV this package writes is rendered by :func:`csv_blocks`, a few
thousand rows at a time, from numpy columns. Each field is the ``repr`` of
its value. A long column that repeats a few values (a dispatch trace's
flags, powers and states) is rendered from a table holding the ``repr`` of
each distinct value once; every other column takes the ``repr`` of each
value. The text is the same either way, since equal bits give an equal
``repr``.

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
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
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

    With ``copy=False`` an array that already has ``dtype`` is made read-only
    in place, for arrays that nothing else holds.
    """
    for name in names:
        arr = getattr(obj, name)
        arr = np.array(arr, dtype=dtype) if copy else np.asarray(arr, dtype=dtype)
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def freeze_numbers(obj, error: type[Exception], check: Callable[[], None] = lambda: None) -> None:
    """Store each field of a frozen dataclass annotated ``float`` as a Python float.

    The fields are those annotated ``float`` or ``Optional[float]``. Each
    must hold a real number; a bool, a non-real or an int or ``Fraction``
    beyond float range raises ``error``, and ``None`` passes where it is
    the default. ``check`` then validates the values as given, so its
    messages show them as the caller wrote them, and only then is each
    stored as ``float(v)``. From there on ``5``, ``5.0``, ``np.float32(5.0)``
    and ``Fraction(5)`` are one value to every expression that reads it.
    """
    floats = [f for f in fields(obj) if f.type in ("float", "Optional[float]")]
    for f in floats:
        v = getattr(obj, f.name)
        if v is None and f.default is None:
            continue
        if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                or isinstance(v, numbers.Rational) and abs(v) > sys.float_info.max):
            raise error(f"{f.name} must be a number, got {v!r}")
    check()
    for f in floats:
        v = getattr(obj, f.name)
        if v is not None:
            object.__setattr__(obj, f.name, float(v))


#: Rows per text block of :func:`csv_blocks`; bounds the memory of a render.
CSV_BLOCK_ROWS = 4096
#: Values of a long column counted before it may be sorted for a table.
_TABLE_SAMPLE = 1024
#: A column is tabled when it has at most ``n // _TABLE_FRACTION`` distinct values.
_TABLE_FRACTION = 8


def _column_renderer(col: np.ndarray) -> Callable[[int, int], list]:
    """A ``(start, end) -> list`` function giving the text of rows
    ``start:end`` of one column: the ``repr`` of each value.

    A column of at least :data:`CSV_BLOCK_ROWS` values is keyed by its bits:
    a float column by its ``int64`` view, so ``-0.0`` and ``0.0`` stay
    apart and so do NaN payloads, an integer column as it is. If a strided
    sample of about :data:`_TABLE_SAMPLE` keys is not nearly all distinct
    (counted with a ``set``: no sort for a column that cannot qualify), and
    ``np.unique`` then finds at most ``n // _TABLE_FRACTION`` distinct keys,
    the text comes from a table: the ``repr`` of the ``tolist()`` scalar at
    each key's first occurrence, looked up one block at a time with
    ``np.searchsorted``. Every other column takes the ``repr`` of each
    ``tolist()`` scalar.
    """
    def plain(s, e):
        return list(map(repr, col[s:e].tolist()))

    n = len(col)
    if n < CSV_BLOCK_ROWS:
        return plain
    if col.dtype == np.float64:
        keys = col.view(np.int64)
    elif col.dtype.kind in "biu":
        keys = col
    else:
        return plain
    sample = keys[:: n // _TABLE_SAMPLE].tolist()
    if len(set(sample)) * 8 > len(sample) * 7:  # more than 7 in 8 distinct
        return plain
    distinct, first = np.unique(keys, return_index=True)
    if len(distinct) > n // _TABLE_FRACTION:
        return plain
    texts = np.array(list(map(repr, col[first].tolist())), dtype=object)
    return lambda s, e: texts[np.searchsorted(distinct, keys[s:e])].tolist()


def csv_blocks(header: Sequence[str], columns: Sequence[np.ndarray]) -> Iterator[str]:
    """Yield the text of :func:`write_csv`: the header row, then blocks of
    :data:`CSV_BLOCK_ROWS` rows, each rendered from one slice of every column.

    How to render each column is decided once per call by
    :func:`_column_renderer`. A long column with few distinct values (at
    most one per :data:`_TABLE_FRACTION` rows) is rendered from a table of
    the ``repr`` of each distinct value, computed once; every other column
    takes the ``repr`` of each value. Values with equal bits have an equal
    ``repr``, so the tabled text is the ``repr`` of every row's value. Each
    block's fields are then joined into rows and the rows into the block
    with ``str.join``.
    """
    yield ",".join(header) + "\r\n"
    renderers = list(map(_column_renderer, columns))
    for s in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        e = s + CSV_BLOCK_ROWS
        yield "\r\n".join(map(",".join, zip(*(f(s, e) for f in renderers)))) + "\r\n"


def write_csv(
    target: Union[str, Path, IO], header: Sequence[str], columns: Sequence[np.ndarray]
) -> None:
    r"""Write ``header`` and then equal-length ``columns``, row by row, as CSV.

    Every field is the ``repr`` of the Python scalar ``tolist()`` gives (a
    float at full precision, an integer as plain digits), fields are joined
    by ``,`` and every row ends in ``\r\n``: byte for byte what ``csv.writer``
    writes for the same ``repr`` strings, none of which needs quoting. Header
    names are written as they are. The text comes from :func:`csv_blocks`,
    which takes the ``repr`` of a long column's repeated values from a table
    built once per distinct bit pattern: the same strings, since values with
    equal bits have an equal ``repr``.

    A path is opened as UTF-8 with ``newline=""`` and closed again; an open
    file is written as it is and left open.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, header, columns)
        return
    for block in csv_blocks(header, columns):
        target.write(block)


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

    def __post_init__(self):
        freeze_arrays(self, np.float64, "samples")
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
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InvalidProfileError(f"dt must be a positive number of seconds, got {self.dt}")
        dt = float(self.dt)  # a numpy scalar would compute in its own precision
        if not math.isfinite(1.0 / dt):  # the derivative divides pu steps (<= 1) by dt
            raise InvalidProfileError(f"dt={self.dt!r} s is too short: 1/dt overflows a float")
        with np.errstate(over="ignore"):
            total = float(arr.sum())
        # Half the float range leaves room for the few ulps by which a rescaled
        # copy of the samples (dispatch's pu * P) may sum higher.
        if not (total <= sys.float_info.max / 2 and math.isfinite(total * dt)):
            raise InvalidProfileError("samples too large: their total energy overflows a float")

    def __eq__(self, other):
        if not isinstance(other, LoadProfile):
            return NotImplemented
        return (
            self.site_id == other.site_id
            and self.category_hint == other.category_hint
            and self.t0 == other.t0
            and self.dt == other.dt
            and np.array_equal(self.samples, other.samples)
        )

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

    def times(self) -> np.ndarray:
        """Epoch seconds of every sample."""
        # t0 + i * dt for every i, bit for bit: arange's int-to-float is exact
        return self.t0 + np.arange(self.samples.size) * self.dt


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
    on success and on error, so the caller's file stays open.
    """
    if isinstance(source, bytes):
        yield io.StringIO(source.decode("utf-8"))
    elif isinstance(source, str):
        yield io.StringIO(source)
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
        parsed = None
        start = _start_position(lines)
        if start is not None:
            parsed = _parse_loadtxt(lines, clamp_negative)
            if parsed is None:
                lines.seek(start)
        if parsed is None:
            parsed = _parse_rows(lines, clamp_negative)
    t0, dt, samples = parsed
    return LoadProfile(
        site_id=site_id, category_hint=category_hint, t0=t0, dt=dt, samples=samples,
    )


def _start_position(lines) -> Optional[int]:
    """Where the row parser would restart after the numpy path; None: no numpy path."""
    if not (isinstance(lines, io.TextIOBase) and lines.seekable()):
        return None
    try:
        return lines.tell()
    except OSError:  # a text file part-way through ``next()`` cannot tell
        return None


def _parse_loadtxt(
    fh: IO[str], clamp_negative: bool
) -> Optional[tuple[float, float, np.ndarray]]:
    """``(t0, dt, samples)`` read by ``numpy.loadtxt``, or None to fall back.

    None whenever the header or any row is not plain epoch-second numbers
    that pass every check of :func:`_parse_rows`; the stream is then left
    part-read.
    """
    line = fh.readline()
    if tuple(h.strip().lstrip("\ufeff") for h in line.split(",")) != CSV_HEADER:
        return None
    try:
        with warnings.catch_warnings():
            # a header-only file is the row parser's EmptyInputError
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(fh, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1:] != (2,) or table.shape[0] < 2 or not np.isfinite(table).all():
        return None
    t, p = table[:, 0], table[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing gap fails below
        dt = t[1] - t[0]
        if not dt > 0.0 or not (np.abs(np.diff(t) - dt) <= GRID_TOLERANCE_S).all():
            return None
    if clamp_negative:
        p = np.where(p < 0.0, 0.0, p)
    elif (p < 0.0).any():
        return None
    return float(t[0]), float(dt), p


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
    """Parse a profile CSV from disk; site_id defaults to the file stem."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        return parse_profile(
            fh,
            site_id=path.stem if site_id is None else site_id,
            category_hint=category_hint,
            clamp_negative=clamp_negative,
        )


def write_profile_csv(profile: LoadProfile, target: Union[str, Path, IO]) -> None:
    """Serialize a profile to the standard CSV format (full float precision)."""
    write_csv(target, CSV_HEADER, (profile.times(), profile.samples))


def profile_csv_blocks(profile: LoadProfile) -> Iterator[str]:
    """The canonical CSV of :func:`write_profile_csv`, as :func:`csv_blocks`."""
    return csv_blocks(CSV_HEADER, (profile.times(), profile.samples))


def profile_to_csv(profile: LoadProfile) -> str:
    return "".join(profile_csv_blocks(profile))


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

    Each output sample is the arithmetic mean of one window of input samples,
    so peaks can only shrink. A trailing window with fewer than the full
    number of input samples is dropped rather than padded.

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


def load_catalog(
    manifest_path: Union[str, Path], *, clamp_negative: bool = False
) -> list[LoadProfile]:
    """Parse every profile referenced by a manifest.

    Relative entry paths are resolved against the manifest's directory.
    """
    manifest_path = Path(manifest_path)
    profiles = []
    for entry in read_catalog(manifest_path):
        p = Path(entry.path)
        if not p.is_absolute():
            p = manifest_path.parent / p
        profiles.append(
            parse_profile_file(
                p, site_id=entry.site_id, category_hint=entry.category_hint,
                clamp_negative=clamp_negative,
            )
        )
    return profiles
