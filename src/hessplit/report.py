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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Optional, Union

import numpy as np

from . import __version__
from .classify import ClassificationReport, Relevance, RuleThresholds, classify
from .metrics import ProfileMetrics, _compute_metrics, normalize
from .profiles import (
    Category,
    LoadProfile,
    ResolutionVerdict,
    profile_csv_blocks,
    validate_resolution,
)
from .transient import (
    DERIVATIVE_BINS,
    LOAD_BINS,
    TAIL_LEVEL,
    Histogram,
    SymmetryReport,
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
    check_tail_level(tail_level)  # also recorded where symmetry_report does not run
    verdict = validate_resolution(profile)
    norm = normalize(profile)
    metrics = _compute_metrics(profile, norm, bins)
    load_hist = histogram(norm.pu, bins=bins, range=(0.0, 1.0))

    derivative_hist = None
    symmetry = None
    classification = None
    if verdict.sc_suitable:
        deriv = derivative(norm)
        derivative_hist = histogram(deriv.normalized, bins=derivative_bins, symmetric=True)
        symmetry = symmetry_report(derivative_hist, tail_level)
        effective_hint = hint
        if effective_hint is None and profile.category_hint is not Category.UNKNOWN:
            effective_hint = profile.category_hint
        classification = classify(metrics, symmetry, load_hist, hint=effective_hint, rules=rules)

    return AnalysisReport(
        site_id=profile.site_id,
        tool_version=__version__,
        input_sha256=_csv_sha256(profile),
        resolution=verdict,
        metrics=metrics,
        load_hist=load_hist,
        derivative_hist=derivative_hist,
        symmetry=symmetry,
        classification=classification,
        config={
            "bins": bins,
            "derivative_bins": derivative_bins,
            "tail_level": tail_level,
            "hint": hint.value if hint is not None else None,
            "rules": asdict(rules),
        },
    )


def _csv_sha256(profile: LoadProfile) -> str:
    """SHA-256 of ``profile_to_csv(profile)``, fed one rendered block at a time."""
    digest = hashlib.sha256()
    for block in profile_csv_blocks(profile):
        digest.update(block.encode("utf-8"))
    return digest.hexdigest()


def _hist_to_dict(h: Histogram) -> dict:
    return {
        "edges": [float(x) for x in h.edges],
        "counts": [int(c) for c in h.counts],
        "total": h.total,
        "symmetric": h.symmetric,
    }


def _hist_from_dict(d: dict) -> Histogram:
    return Histogram(
        edges=np.asarray(d["edges"], dtype=np.float64),
        counts=np.asarray(d["counts"], dtype=np.int64),
        total=int(d["total"]),
        symmetric=bool(d["symmetric"]),
    )


def report_to_dict(report: AnalysisReport) -> dict:
    """Plain-dict form of a report (JSON-ready, lossless)."""
    cls = report.classification
    return {
        "site_id": report.site_id,
        "tool_version": report.tool_version,
        "input_sha256": report.input_sha256,
        "resolution": asdict(report.resolution),
        "metrics": asdict(report.metrics),
        "load_hist": _hist_to_dict(report.load_hist),
        "derivative_hist": (
            _hist_to_dict(report.derivative_hist) if report.derivative_hist else None
        ),
        "symmetry": asdict(report.symmetry) if report.symmetry else None,
        "classification": None if cls is None else {
            "category": cls.category.value,
            "hess_compliant": cls.hess_compliant,
            "sc_relevance": cls.sc_relevance.label,
            "vrfb_relevance": cls.vrfb_relevance.label,
            "rationale": list(cls.rationale),
        },
        "config": report.config,
    }


def report_from_dict(d: dict) -> AnalysisReport:
    """Rebuild a report from its dict form (inverse of :func:`report_to_dict`)."""
    cls = d["classification"]
    return AnalysisReport(
        site_id=d["site_id"],
        tool_version=d["tool_version"],
        input_sha256=d["input_sha256"],
        resolution=ResolutionVerdict(**d["resolution"]),
        metrics=ProfileMetrics(**d["metrics"]),
        load_hist=_hist_from_dict(d["load_hist"]),
        derivative_hist=(
            _hist_from_dict(d["derivative_hist"]) if d["derivative_hist"] else None
        ),
        symmetry=SymmetryReport(**d["symmetry"]) if d["symmetry"] else None,
        classification=None if cls is None else ClassificationReport(
            category=Category(cls["category"]),
            hess_compliant=cls["hess_compliant"],
            sc_relevance=Relevance[cls["sc_relevance"].upper()],
            vrfb_relevance=Relevance[cls["vrfb_relevance"].upper()],
            rationale=list(cls["rationale"]),
        ),
        config=d["config"],
    )


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


def write_report_json(report: AnalysisReport, target: Union[str, Path, IO]) -> None:
    write_json(report_to_dict(report), target)


def read_report_json(source: Union[str, Path, IO]) -> AnalysisReport:
    if isinstance(source, (str, Path)):
        return report_from_dict(json.loads(Path(source).read_text(encoding="utf-8")))
    return report_from_dict(json.load(source))
