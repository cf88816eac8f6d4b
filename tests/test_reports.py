"""Report containers: validation, JSON round trips, digests, CSV shapes."""

import json

import pytest

from pqcdiag.reports import (DiagnosticConfig, EstimateReport,
                             InterventionPlan, PlanStep, SensitivityMap,
                             SiteGradient, canonical_json, payload_digest)


class TestDiagnosticConfig:
    def test_defaults_and_coercion(self):
        cfg = DiagnosticConfig(n_theta="200", threads=0)
        assert cfg.n_theta == 200 and cfg.threads == 1

    @pytest.mark.parametrize("kw", [{"n_theta": 0}, {"n_tau": -1},
                                    {"n_sigma": 0}, {"epsilon": 0.0},
                                    {"epsilon": 1.0}, {"delta": 2.0}])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            DiagnosticConfig(**kw)

    @pytest.mark.parametrize("name", ["n_theta", "n_tau", "n_sigma", "seed",
                                      "threads"])
    @pytest.mark.parametrize("value", [40.9, 2.5, True, "40.9"])
    def test_rejects_non_integral_counts(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            DiagnosticConfig(**{name: value})

    def test_integral_floats_are_exact(self):
        cfg = DiagnosticConfig(n_theta=40.0, seed=2.0)
        assert (cfg.n_theta, cfg.seed) == (40, 2)
        assert type(cfg.n_theta) is int and type(cfg.seed) is int

    def test_as_dict_hides_execution_details(self):
        cfg = DiagnosticConfig(n_theta=10, threads=8, epsilon=0.1, delta=0.05)
        d = cfg.as_dict()
        assert "threads" not in d
        assert d["epsilon"] == 0.1 and d["delta"] == 0.05
        assert "epsilon" not in DiagnosticConfig().as_dict()

    def test_replaced_ignores_none(self):
        cfg = DiagnosticConfig(n_theta=7, seed=3)
        r = cfg.replaced(n_theta=None, seed=4)
        assert (r.n_theta, r.seed) == (7, 4)
        assert (cfg.n_theta, cfg.seed) == (7, 3)  # original untouched


class TestDigests:
    def test_wall_time_is_volatile(self):
        a = {"quantity": "mse", "mean": 0.5, "wall_time_s": 1.0}
        b = {"quantity": "mse", "mean": 0.5, "wall_time_s": 99.0}
        assert payload_digest(a) == payload_digest(b)
        c = {"quantity": "mse", "mean": 0.6, "wall_time_s": 1.0}
        assert payload_digest(a) != payload_digest(c)

    def test_canonical_json_sorted_and_compact(self):
        s = canonical_json({"b": 1, "a": [1, 2]})
        assert s == '{"a":[1,2],"b":1}'


def sample_report():
    return EstimateReport(quantity="mse", mean=0.01, stderr=0.001,
                          n_theta=100, n_tau=4, n_sigma=1, seed=7,
                          wall_time_s=0.25,
                          config={"n_theta": 100, "n_tau": 4, "n_sigma": 1,
                                  "seed": 7},
                          stats={"negative_fraction": 0.0})


class TestEstimateReport:
    def test_round_trip(self):
        rep = sample_report()
        back = EstimateReport.from_json_dict(
            json.loads(json.dumps(rep.to_json_dict())))
        assert back == rep

    def test_empty_stats_omitted(self):
        rep = sample_report()
        rep.stats = {}
        assert "stats" not in rep.to_json_dict()
        assert EstimateReport.from_json_dict(rep.to_json_dict()).stats == {}

    def test_digest_tracks_payload_not_time(self):
        a, b = sample_report(), sample_report()
        b.wall_time_s = 123.0
        assert a.digest() == b.digest()
        b.mean = 0.02
        assert a.digest() != b.digest()


def sample_map():
    entries = [
        SiteGradient(layer=0, element=1, qubits=(2,), channel="depolarizing",
                     param="lambda", gradient=0.3, stderr=0.01),
        SiteGradient(layer=1, element=0, qubits=(0, 1), channel="thermal",
                     param="gamma", gradient=-0.05, stderr=0.02),
    ]
    return SensitivityMap(entries=entries, n_theta=50, n_tau=2, seed=1,
                          wall_time_s=0.5, config={"seed": 1})


class TestSensitivityMap:
    def test_round_trip(self):
        m = sample_map()
        back = SensitivityMap.from_json_dict(
            json.loads(json.dumps(m.to_json_dict())))
        assert back.to_json_dict() == m.to_json_dict()

    def test_csv_layout(self):
        lines = sample_map().to_csv().strip().split("\n")
        assert lines[0] == "layer,element,qubits,gradient,stderr"
        assert lines[1] == "0,1,2,0.3,0.01"
        assert lines[2].startswith("1,0,0;1,-0.05")

    def test_digest_stable(self):
        a, b = sample_map(), sample_map()
        b.wall_time_s = 9.0
        assert a.digest() == b.digest()


def make_plan(new_value=0.05):
    step = PlanStep(layer=0, element=2, qubits=(1,), channel="depolarizing",
                    param="lambda", old_value=0.2, new_value=new_value,
                    mse_after=0.004, mse_stderr=0.0005)
    return InterventionPlan(baseline_mse=0.02, baseline_stderr=0.001,
                            steps=[step], seed=3, wall_time_s=1.0,
                            config={"seed": 3})


class TestInterventionPlan:
    def test_round_trip(self):
        p = make_plan()
        back = InterventionPlan.from_json_dict(
            json.loads(json.dumps(p.to_json_dict())))
        assert back.to_json_dict() == p.to_json_dict()

    def test_refuses_strength_increase(self):
        with pytest.raises(ValueError, match="must not raise"):
            make_plan(new_value=0.3)

    def test_trajectory_csv(self):
        lines = make_plan().trajectory_csv().strip().split("\n")
        assert lines[0] == "step,layer,element,qubits,param,new_value,mse,stderr"
        assert lines[1] == "0,,,,,,0.02,0.001"
        assert lines[2] == "1,0,2,1,lambda,0.05,0.004,0.0005"
