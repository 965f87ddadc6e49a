"""Full-pipeline analysis reports and their JSON round trip."""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from hessplit import (
    Category,
    Relevance,
    analyze_profile,
    read_report_json,
    write_report_json,
)
from hessplit import metrics, report
from hessplit.errors import MalformedReportError
from hessplit.metrics import ProfileMetrics, compute_metrics
from hessplit.profiles import ResolutionVerdict, profile_to_csv
from hessplit.report import AnalysisReport, report_from_dict, report_to_dict
from hessplit.rules import ClassificationReport
from hessplit.synth import MachineSpec, generate
from hessplit.transient import Histogram, SymmetryReport


@pytest.fixture
def busy_profile(rng, make_profile):
    samples = rng.uniform(2.0, 6.0, size=2000)
    samples[rng.integers(0, 2000, size=40)] = 20.0
    return make_profile(samples, dt=1.0, site_id="busy")


def test_analyze_fine_profile_has_all_sections(busy_profile):
    rep = analyze_profile(busy_profile)
    assert rep.site_id == "busy"
    assert rep.resolution.sc_suitable
    assert rep.metrics.base_power_kw == 20.0
    assert rep.load_hist.total == 2000
    assert rep.derivative_hist is not None
    assert rep.derivative_hist.total == 1999
    assert rep.symmetry is not None
    assert rep.classification is not None
    assert rep.classification.rationale


def test_analyze_coarse_profile_skips_transients(rng, make_profile):
    profile = make_profile(rng.uniform(1.0, 10.0, size=300), dt=900.0)
    rep = analyze_profile(profile)
    assert rep.resolution.vrfb_only
    assert rep.derivative_hist is None
    assert rep.symmetry is None
    assert rep.classification is None
    assert rep.metrics.energy_kwh > 0.0  # slow metrics still computed


def test_input_hash_matches_canonical_csv(busy_profile):
    rep = analyze_profile(busy_profile)
    expected = hashlib.sha256(profile_to_csv(busy_profile).encode()).hexdigest()
    assert rep.input_sha256 == expected


def test_analyze_normalizes_once(monkeypatch, busy_profile):
    expected = repr(asdict(compute_metrics(busy_profile, bins=50)))
    original = metrics.normalize
    calls = []

    def counting(profile):
        calls.append(profile)
        return original(profile)

    monkeypatch.setattr(metrics, "normalize", counting)
    monkeypatch.setattr(report, "normalize", counting)
    rep = analyze_profile(busy_profile, bins=50)
    assert calls == [busy_profile]
    assert repr(asdict(rep.metrics)) == expected


def test_config_echo(busy_profile):
    rep = analyze_profile(busy_profile, bins=50, tail_level=0.4, hint=Category.PS)
    assert rep.config["bins"] == 50
    assert rep.config["tail_level"] == 0.4
    assert rep.config["hint"] == "PS"
    assert rep.config["rules"]["min_symmetry_index"] == 0.8
    assert rep.load_hist.n_bins == 50
    assert rep.symmetry.tail_level == 0.4
    numpy_bins = analyze_profile(busy_profile, bins=np.int64(50), derivative_bins=np.int64(31))
    assert type(numpy_bins.config["bins"]) is type(numpy_bins.config["derivative_bins"]) is int
    write_report_json(numpy_bins, io.StringIO())


def test_hint_falls_back_to_profile_hint(rng, make_profile):
    samples = rng.uniform(1.0, 10.0, size=200)
    profile = make_profile(samples, site_id="x", category_hint=Category.UPS)
    assert analyze_profile(profile).classification.category is Category.UPS
    # an explicit argument wins over the profile's own hint
    rep = analyze_profile(profile, hint=Category.WDG)
    assert rep.classification.category is Category.WDG


def test_dict_round_trip_is_lossless(busy_profile):
    rep = analyze_profile(busy_profile, hint=Category.VI)
    back = report_from_dict(report_to_dict(rep))
    assert back.site_id == rep.site_id
    assert back.input_sha256 == rep.input_sha256
    assert back.resolution == rep.resolution
    assert back.metrics == rep.metrics
    assert np.array_equal(back.load_hist.edges, rep.load_hist.edges)
    assert np.array_equal(back.load_hist.counts, rep.load_hist.counts)
    assert np.array_equal(back.derivative_hist.counts, rep.derivative_hist.counts)
    assert back.symmetry == rep.symmetry
    assert back.classification == rep.classification
    assert back.classification.sc_relevance is rep.classification.sc_relevance
    assert back.config == rep.config


def test_dict_round_trip_with_null_sections(rng, make_profile):
    profile = make_profile(rng.uniform(1.0, 10.0, size=300), dt=900.0)
    rep = analyze_profile(profile)
    back = report_from_dict(report_to_dict(rep))
    assert back.derivative_hist is None
    assert back.symmetry is None
    assert back.classification is None


def test_json_round_trip_through_file(tmp_path, busy_profile):
    rep = analyze_profile(busy_profile)
    path = tmp_path / "report.json"
    write_report_json(rep, path)
    back = read_report_json(path)
    assert back.metrics == rep.metrics
    assert back.classification == rep.classification
    # and the serialized form is plain JSON with stable keys
    data = json.loads(path.read_text())
    assert set(data) == {
        "site_id", "tool_version", "input_sha256", "resolution", "metrics",
        "load_hist", "derivative_hist", "symmetry", "classification", "config",
    }
    assert data["classification"]["sc_relevance"] in {"Low", "Medium", "High"}


def test_json_round_trip_through_stream(busy_profile):
    rep = analyze_profile(busy_profile)
    buf = io.StringIO()
    write_report_json(rep, buf)
    buf.seek(0)
    assert read_report_json(buf).metrics == rep.metrics


def test_read_report_json_rejects_what_is_not_a_report(busy_profile):
    for text, match in [('{"a": 1}', "report has no field 'site_id'"),
                        ("[]", "report must be a JSON object"), ("{", "not a JSON report")]:
        with pytest.raises(MalformedReportError, match=match):
            read_report_json(io.StringIO(text))
    # a nested error keeps the path of the field that holds it
    d = report_to_dict(analyze_profile(busy_profile))
    d["classification"]["sc_relevance"] = "Huge"
    with pytest.raises(MalformedReportError, match=r"^bad field report\.classification\.sc_rel"):
        read_report_json(io.StringIO(json.dumps(d)))
    # a leaf of another JSON type than its field's is no report either
    machine = report_to_dict(analyze_profile(generate(MachineSpec(days=1))[0]))
    for keys, value, match in [
            (("metrics", "load_factor"), "high", r"report\.metrics\.load_factor must be a number"),
            (("site_id",), 5, r"report\.site_id must be a string"),
            (("resolution", "sc_suitable"), "no", r"sc_suitable must be true or false"),
            (("metrics", "dt"), True, r"report\.metrics\.dt must be a number"),
            (("metrics", "peak_count"), 3.0, r"report\.metrics\.peak_count must be an integer"),
            (("load_hist", "total"), False, r"report\.load_hist\.total must be an integer"),
            (("classification", "rationale"), ["x", 1], r"rationale\[1\] must be a string"),
            (("classification", "rationale"), "x", r"rationale must be an array"),
            (("metrics", "energy_kwh"), 10 ** 400, r"^bad field report\.metrics\.energy_kwh")]:
        edited = json.loads(json.dumps(machine))
        *parents, key = keys
        leaf = edited
        for name in parents:
            leaf = leaf[name]
        leaf[key] = value
        with pytest.raises(MalformedReportError, match=match):
            read_report_json(io.StringIO(json.dumps(edited)))
    # an integer in a float field is a number, read back as a float
    machine["metrics"]["dt"] = 1
    assert repr(read_report_json(io.StringIO(json.dumps(machine))).metrics.dt) == "1.0"


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_write_json_refuses_non_finite_floats(tmp_path, value):
    # JSON has no Infinity or NaN: a writer that printed them would give
    # output that strict parsers reject
    with pytest.raises(ValueError):
        report.write_json({"x": [1.0, value]}, io.StringIO())
    path = tmp_path / "x.json"
    report.write_json({"x": [1.0, -0.0]}, path)
    assert path.read_text() == '{\n  "x": [\n    1.0,\n    -0.0\n  ]\n}\n'


def test_relevance_labels_round_trip():
    for rel in Relevance:
        d = {"category": "PS", "hess_compliant": True,
             "sc_relevance": rel.label, "vrfb_relevance": rel.label,
             "rationale": ["x"]}
        rep_dict = {
            "site_id": "s", "tool_version": "0", "input_sha256": "0" * 64,
            "resolution": {"sc_suitable": True, "ups_usable": True,
                           "vrfb_only": False, "reason": "r"},
            "metrics": {
                "site_id": "s", "dt": 1.0, "base_power_kw": 1.0,
                "energy_kwh": 1.0, "load_factor": 0.5, "base_load_pu": 0.5,
                "peak_count": 0, "mean_peak_duration_s": 0.0,
                "max_peak_duration_s": 0.0, "time_above_base_fraction": 0.0,
                "energy_above_base_pu_h": 0.0,
            },
            "load_hist": {"edges": [0.0, 1.0], "counts": [1], "total": 1,
                          "symmetric": False},
            "derivative_hist": None, "symmetry": None,
            "classification": d, "config": {},
        }
        assert report_from_dict(rep_dict).classification.sc_relevance is rel


# Every key, its place and its JSON type; a change here changes what analyze prints.
_LAYOUT = """\
{
  "site_id": "site",
  "tool_version": "0.1.0",
  "input_sha256": "abababababababababababababababababababababababababababababababab",
  "resolution": {
    "sc_suitable": true,
    "ups_usable": true,
    "vrfb_only": false,
    "reason": "r"
  },
  "metrics": {
    "site_id": "site",
    "dt": 1.0,
    "base_power_kw": 8.0,
    "energy_kwh": 0.5,
    "load_factor": 0.25,
    "base_load_pu": 0.75,
    "peak_count": 2,
    "mean_peak_duration_s": 1.5,
    "max_peak_duration_s": 2.0,
    "time_above_base_fraction": 0.125,
    "energy_above_base_pu_h": 0.0625
  },
  "load_hist": {
    "edges": [
      0.0,
      0.5,
      1.0
    ],
    "counts": [
      3,
      1
    ],
    "total": 4,
    "symmetric": false
  },
  "derivative_hist": {
    "edges": [
      -1.0,
      -0.5,
      0.5,
      1.0
    ],
    "counts": [
      1,
      0,
      2
    ],
    "total": 3,
    "symmetric": true
  },
  "symmetry": {
    "symmetry_index": 0.5,
    "positive_tail_mass": 0.375,
    "negative_tail_mass": 0.125,
    "tail_level": 0.5,
    "probe_level": 0.1,
    "probe_positive_mass": 0.625,
    "probe_negative_mass": 0.25,
    "total": 3
  },
  "classification": {
    "category": "PS",
    "hess_compliant": true,
    "sc_relevance": "High",
    "vrfb_relevance": "Low",
    "rationale": [
      "a",
      "b"
    ]
  },
  "config": {
    "bins": 2,
    "hint": "PS"
  }
}"""


def _literal_report():
    return AnalysisReport(
        site_id="site", tool_version="0.1.0", input_sha256="ab" * 32,
        resolution=ResolutionVerdict(sc_suitable=True, ups_usable=True, vrfb_only=False,
                                     reason="r"),
        metrics=ProfileMetrics(
            site_id="site", dt=1.0, base_power_kw=8.0, energy_kwh=0.5, load_factor=0.25,
            base_load_pu=0.75, peak_count=2, mean_peak_duration_s=1.5, max_peak_duration_s=2.0,
            time_above_base_fraction=0.125, energy_above_base_pu_h=0.0625,
        ),
        load_hist=Histogram(edges=[0.0, 0.5, 1.0], counts=[3, 1], total=4),
        derivative_hist=Histogram(edges=[-1.0, -0.5, 0.5, 1.0], counts=[1, 0, 2], total=3,
                                  symmetric=True),
        symmetry=SymmetryReport(
            symmetry_index=0.5, positive_tail_mass=0.375, negative_tail_mass=0.125,
            tail_level=0.5, probe_level=0.1, probe_positive_mass=0.625,
            probe_negative_mass=0.25, total=3,
        ),
        classification=ClassificationReport(
            category=Category.PS, hess_compliant=True, sc_relevance=Relevance.HIGH,
            vrfb_relevance=Relevance.LOW, rationale=["a", "b"],
        ),
        config={"bins": 2, "hint": "PS"},
    )


def test_report_layout_is_pinned():
    # literal inputs, so the text does not depend on what numpy computes
    full = _literal_report()
    skipped = replace(full, derivative_hist=None, symmetry=None, classification=None)
    null_layout = (
        _LAYOUT[:_LAYOUT.index('  "derivative_hist"')]
        + '  "derivative_hist": null,\n  "symmetry": null,\n  "classification": null,\n'
        + _LAYOUT[_LAYOUT.index('  "config"'):]
    )
    for rep, expected in [(full, _LAYOUT), (skipped, null_layout)]:
        text = json.dumps(report_to_dict(rep), indent=2)
        assert text == expected
        assert json.dumps(report_to_dict(report_from_dict(json.loads(text))), indent=2) == text
