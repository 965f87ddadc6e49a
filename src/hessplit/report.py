"""Whole-profile analysis bundled into one JSON-serializable report.

``analyze_profile`` runs the full chain — resolution gate, normalization,
metrics, derivative, histograms, symmetry, classification — and packs the
results together with everything needed to reproduce the run: the tool
version, the option echo, and a hash of the input in its canonical CSV
form. Reports round-trip losslessly through their dict/JSON form.

Profiles too coarse for the supercapacitor carry no transient analysis:
the derivative histogram, symmetry report, and classification stay null.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, is_dataclass
from enum import Enum, EnumMeta
from pathlib import Path
from typing import IO, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .errors import MalformedReportError
from .metrics import ProfileMetrics, _base_level, _check_base_bins, _compute_metrics, normalize
from .profiles import (
    Category,
    LoadProfile,
    ResolutionVerdict,
    profile_csv_bytes,
    validate_resolution,
    write_json,
)
from .rules import ClassificationReport, Relevance, RuleThresholds, classify
from .transient import (
    DERIVATIVE_BINS,
    LOAD_BINS,
    TAIL_LEVEL,
    Histogram,
    SymmetryReport,
    check_bins,
    check_tail_level,
    derivative,
    histogram,
    symmetry_report,
)


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Everything the analysis pipeline knows about one profile."""

    site_id: str
    tool_version: str
    input_sha256: str
    resolution: ResolutionVerdict
    metrics: ProfileMetrics
    load_hist: Histogram
    derivative_hist: Optional[Histogram]
    symmetry: Optional[SymmetryReport]
    classification: Optional[ClassificationReport]
    config: dict


def analyze_profile(
    profile: LoadProfile,
    *,
    bins: int = LOAD_BINS,
    derivative_bins: int = DERIVATIVE_BINS,
    tail_level: float = TAIL_LEVEL,
    hint: Optional[Category] = None,
    rules: RuleThresholds = RuleThresholds(),
) -> AnalysisReport:
    """Run the full analysis chain over one profile.

    The classification hint falls back to the profile's own category hint.
    The input hash is the SHA-256 of the profile's canonical CSV rendering,
    so a report can be matched against a regenerated profile byte-for-byte.
    """
    # both are recorded in the config, also where the transient analysis does not run
    check_bins(derivative_bins)
    check_tail_level(tail_level)
    # hashed first, so the timestamps and text blocks are gone before pu exists
    input_sha256 = _csv_sha256(profile)
    verdict = validate_resolution(profile)
    norm = normalize(profile)
    _check_base_bins(norm, bins)  # the base-load estimate's checks come before the histogram's
    load_hist = histogram(norm.pu, bins=bins, range=(0.0, 1.0))
    # the estimate counts pu as the load histogram does: the same call, the same counts
    metrics = _compute_metrics(profile, norm, _base_level(norm, load_hist.counts, load_hist.edges))

    derivative_hist = symmetry = classification = None
    if verdict.sc_suitable:
        normalized = derivative(norm).normalized
        derivative_hist = histogram(normalized, bins=derivative_bins, symmetric=True)
        symmetry = symmetry_report(derivative_hist, tail_level)
        classification = classify(metrics, symmetry, load_hist, rules=rules,
                                  hint=hint if hint is not None else profile.category_hint)

    return AnalysisReport(
        site_id=profile.site_id,
        tool_version=__version__,
        input_sha256=input_sha256,
        resolution=verdict,
        metrics=metrics,
        load_hist=load_hist,
        derivative_hist=derivative_hist,
        symmetry=symmetry,
        classification=classification,
        config={
            "bins": int(bins),  # a numpy integer is no JSON number
            "derivative_bins": int(derivative_bins),
            "tail_level": tail_level,
            "hint": hint.value if hint is not None else None,
            "rules": asdict(rules),
        },
    )


def _csv_sha256(profile: LoadProfile) -> str:
    """SHA-256 of ``profile_to_csv(profile)``, fed one rendered block at a time."""
    digest = hashlib.sha256()
    for block in profile_csv_bytes(profile):
        digest.update(block)
    return digest.hexdigest()


def report_to_dict(report: AnalysisReport) -> dict:
    """Plain-dict form of a report (JSON-ready, lossless).

    The layout is the dataclass tree itself, field by field in declaration
    order: each nested dataclass becomes an object, an array a list, a
    :class:`Relevance` grade its label and any other enum its value. A
    section that did not run is ``null``.
    """
    return _plain(asdict(report))


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Relevance):
        return value.label
    if isinstance(value, Enum):
        return value.value
    return value


def report_from_dict(d: dict) -> AnalysisReport:
    """Rebuild a report from its dict form (inverse of :func:`report_to_dict`)."""
    return _typed(AnalysisReport, d)


#: The JSON type each plain field type of a report is read from.
_JSON_TYPES = {str: "a string", bool: "true or false", int: "an integer", float: "a number",
               list: "an array"}


def _typed(tp, value, path: str = "report"):
    """``value`` read back as type ``tp``, by the field types of each dataclass.
    A value that does not fit raises ``MalformedReportError`` naming its ``path``.

    A ``float`` is any JSON number and is stored as a float; a bool is no number."""
    if get_origin(tp) is Union:  # Optional[X]; the reports hold no other union
        if value is None:
            return None
        (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
    kind = get_origin(tp) or tp  # list for list[str]
    try:
        if kind in _JSON_TYPES:
            if isinstance(value, bool) != (kind is bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise MalformedReportError(f"{path} must be {_JSON_TYPES[kind]}, got {value!r:.40}")
            if kind is list:  # the rationale, a list[str]
                return [_typed(get_args(tp)[0], v, f"{path}[{k}]") for k, v in enumerate(value)]
            return float(value) if kind is float else value  # an int past the float range overflows
        if is_dataclass(tp):
            if not isinstance(value, dict):
                raise MalformedReportError(f"{path} must be a JSON object, got {value!r:.40}")
            missing = [f.name for f in fields(tp) if f.name not in value]
            if missing:
                raise MalformedReportError(f"{path} has no field {missing[0]!r}")
            hints = get_type_hints(tp)
            return tp(**{f.name: _typed(hints[f.name], value[f.name], f"{path}.{f.name}")
                         for f in fields(tp)})
        if tp is Relevance:
            return Relevance[value.upper()]
        if isinstance(tp, EnumMeta):
            return tp(value)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise MalformedReportError(f"bad field {path}: {exc!r}") from None
    return value  # a list goes to Histogram as it is: its fields freeze it to typed arrays


def write_report_json(report: AnalysisReport, target: Union[str, Path, IO]) -> None:
    write_json(report_to_dict(report), target)


def read_report_json(source: Union[str, Path, IO]) -> AnalysisReport:
    """A report as :func:`write_report_json` wrote it; else ``MalformedReportError``."""
    try:  # a JSONDecodeError, or from a file a UnicodeDecodeError
        d = json.loads(Path(source).read_text(encoding="utf-8")
                       if isinstance(source, (str, Path)) else source.read())
    except ValueError as exc:
        raise MalformedReportError(f"not a JSON report: {exc}") from None
    return report_from_dict(d)
