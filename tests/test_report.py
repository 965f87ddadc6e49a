"""Full-pipeline analysis reports and their JSON round trip."""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict

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
from hessplit.metrics import compute_metrics
from hessplit.profiles import profile_to_csv
from hessplit.report import report_from_dict, report_to_dict


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
