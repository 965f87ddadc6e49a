"""Load-profile ingestion: CSV parsing, grid validation, resampling.

The on-disk format is a UTF-8 CSV with the exact header ``timestamp,power_kw``,
one row per sample. Timestamps are ISO-8601 or epoch seconds, strictly
increasing on a uniform grid; powers are finite kilowatts.

A profile's sample interval decides which storage component can use it: the
supercapacitor needs 10 s resolution or better, outage (UPS) studies need
better than 30 s, and anything coarser is battery-only territory.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence, Union

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


def freeze_arrays(obj, dtype, *names: str) -> None:
    """Replace each named field of a frozen dataclass with a read-only copy."""
    for name in names:
        arr = np.array(getattr(obj, name), dtype=dtype)
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def write_csv(target: Union[str, Path, IO], header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header row and then ``rows`` as CSV.

    A path is opened as UTF-8 with ``newline=""`` and closed again; an open
    file is written as it is and left open.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, header, rows)
        return
    writer = csv.writer(target)
    writer.writerow(header)
    writer.writerows(rows)


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
        Epoch seconds (UTC) of the first sample.
    dt : float
        Sample interval in seconds, > 0.
    samples : numpy.ndarray
        Power values in kW; finite, non-negative, at least two samples.
    """

    site_id: str
    t0: float
    dt: float
    samples: np.ndarray
    category_hint: Category = Category.UNKNOWN

    def __post_init__(self):
        freeze_arrays(self, np.float64, "samples")
        arr = self.samples
        if arr.ndim != 1:
            raise InvalidProfileError("samples must be a one-dimensional sequence")
        if arr.size < 2:
            raise InvalidProfileError("a load profile needs at least 2 samples")
        if not np.all(np.isfinite(arr)):
            raise InvalidProfileError("samples must all be finite")
        if np.any(arr < 0.0):
            raise InvalidProfileError("samples must be non-negative kilowatts")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InvalidProfileError(f"dt must be a positive number of seconds, got {self.dt}")

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
        return float(text)
    except ValueError:
        pass
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


def _as_text_lines(source: Union[bytes, str, IO, Iterable[str]]) -> Iterable[str]:
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, str):
        return io.StringIO(source)
    if hasattr(source, "read"):
        first = source.read(0)
        if isinstance(first, bytes):
            return io.TextIOWrapper(source, encoding="utf-8")
        return source
    return source


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
    reader = csv.reader(_as_text_lines(source))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError("no header row") from None
    header = [h.strip().lstrip("﻿") for h in header]
    if tuple(header) != CSV_HEADER:
        raise MalformedRowError(1, f"header must be 'timestamp,power_kw', got {','.join(header)!r}")

    times: list[float] = []
    powers: list[float] = []
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

    if not times:
        raise EmptyInputError("no data rows")
    if len(times) < 2:
        raise InvalidProfileError("a load profile needs at least 2 samples")

    dt = times[1] - times[0]
    if dt <= 0.0:
        raise NonUniformGridError(f"timestamps not strictly increasing at row 3 (dt={dt})")
    for i in range(1, len(times)):
        gap = times[i] - times[i - 1]
        if abs(gap - dt) > GRID_TOLERANCE_S:
            raise NonUniformGridError(
                f"row {i + 2}: gap {gap} s deviates from inferred interval {dt} s"
            )

    return LoadProfile(
        site_id=site_id, category_hint=category_hint, t0=times[0], dt=dt,
        samples=np.array(powers),
    )


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
    write_csv(target, CSV_HEADER, (
        [repr(profile.t0 + i * profile.dt), repr(float(p))]
        for i, p in enumerate(profile.samples)
    ))


def profile_to_csv(profile: LoadProfile) -> str:
    buf = io.StringIO()
    write_profile_csv(profile, buf)
    return buf.getvalue()


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
    factor = int(round(ratio))
    if abs(factor * profile.dt - target_dt) > 1e-9 * target_dt:
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
        t0=profile.t0, dt=float(factor * profile.dt), samples=means,
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
