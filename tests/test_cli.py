"""End-to-end CLI runs through main(argv): products, manifests, exit codes."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from pqcdiag.cli import build_parser, main
from pqcdiag.circuits import load_bundle, serialize
from pqcdiag.reports import VOLATILE_FIELDS


def read_json(path):
    with open(path) as f:
        return json.load(f)


def stable(payload):
    return {k: v for k, v in payload.items() if k not in VOLATILE_FIELDS}


def gen_toy(tmp_path, name="toy", lam=0.1):
    """1-qubit line-of-one stand-in: ring is too big, so write by hand."""
    spec = {
        "format": 1, "n": 1,
        "gates": [{"gate": "rx", "qubits": [0], "param": 0}],
        "noise": [{"after": 0, "site_id": [0, 0], "noise_param": "lambda",
                   "channel": {"kind": "depolarizing", "support": [0],
                               "lambda": lam}}],
        "observable": [{"coeff": 1.0, "pauli": "Z"}],
        "identity_offset": 0.0,
        "initial_state": "zero",
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestGen:
    def test_ring_bundle_round_trips(self, tmp_path):
        out = str(tmp_path / "ring")
        rc = main(["gen", "ring", "--n", "4", "--blocks", "1",
                   "--noise", "amp:0.1", "--obs", "ZIII", "-o", out])
        assert rc == 0
        spec = read_json(out + ".json")
        circuit, obs, state = load_bundle(spec)
        assert circuit.n == 4 and len(circuit.noise_sites) == 16
        # re-serializing reproduces the file minus the run bookkeeping
        spec.pop("run_id")
        assert serialize(circuit, obs, state) == spec

    def test_line_family_and_manifest(self, tmp_path):
        out = str(tmp_path / "line")
        assert main(["gen", "line", "--n", "4", "--p", "2", "-o", out]) == 0
        man = read_json(out + ".manifest.json")
        assert man["command"][:2] == ["gen", "line"]
        assert man["inputs"] == []
        assert [o["path"] for o in man["outputs"]] == [out + ".json"]
        assert man["versions"]["numpy"] == np.__version__
        assert man["run_id"] == read_json(out + ".json")["run_id"]

    def test_missing_n_is_validation_error(self, tmp_path):
        rc = main(["gen", "ring", "-o", str(tmp_path / "x")])
        assert rc == 2

    def test_bad_noise_spec(self, tmp_path):
        rc = main(["gen", "ring", "--n", "4", "--noise", "dep0.1",
                   "-o", str(tmp_path / "x")])
        assert rc == 2

    def test_term_flags(self, tmp_path):
        out = str(tmp_path / "terms")
        rc = main(["gen", "ring", "--n", "4", "--term", "0.5:ZIII",
                   "--term", "-1.0:IXXI", "-o", out])
        assert rc == 0
        _, obs, _ = load_bundle(read_json(out + ".json"))
        assert {w.to_text(): c for c, w in obs.terms} \
            == {"+ZIII": 0.5, "+IXXI": -1.0}


def gen_two_param(tmp_path):
    """Noiseless rx(t0) rx(t1) on one qubit: <Z> = cos(t0 + t1)."""
    spec = {
        "format": 1, "n": 1,
        "gates": [{"gate": "rx", "qubits": [0], "param": 0},
                  {"gate": "rx", "qubits": [0], "param": 1}],
        "noise": [],
        "observable": [{"coeff": 1.0, "pauli": "Z"}],
        "identity_offset": 0.0,
        "initial_state": "zero",
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestSignedValues:
    @pytest.mark.parametrize("coeff", ["-2", "-.5", "-1e-3"])
    def test_negative_term_coefficients(self, tmp_path, coeff):
        out = str(tmp_path / "neg")
        assert main(["gen", "ring", "--n", "4", "--term", coeff + ":ZIII",
                     "-o", out]) == 0
        _, obs, _ = load_bundle(read_json(out + ".json"))
        assert [(c, w.to_text()) for c, w in obs.terms] \
            == [(float(coeff), "+ZIII")]

    def test_negative_theta_list(self, tmp_path):
        circ = gen_two_param(tmp_path)
        out = str(tmp_path / "oexp")
        assert main(["oracle", "expectation", circ, "--theta", "-0.5,0.2",
                     "-o", out]) == 0
        assert read_json(out + ".json")["value"] \
            == pytest.approx(np.cos(-0.3))

    def test_negative_theta_exponent(self, tmp_path):
        circ = gen_toy(tmp_path)
        out = str(tmp_path / "oexp")
        assert main(["oracle", "expectation", circ, "--theta", "-5e-2",
                     "-o", out]) == 0
        assert read_json(out + ".json")["value"] \
            == pytest.approx(0.9 * np.cos(-0.05))

    def test_option_after_term_is_not_swallowed(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["gen", "ring", "--n", "4", "--term", "-o",
                  str(tmp_path / "x")])
        assert e.value.code == 2


class TestRecordedCommand:
    """The manifest's command parses back to the arguments of the run."""

    @staticmethod
    def replay(argv, out):
        command = read_json(out + ".manifest.json")["command"]
        ran = vars(build_parser().parse_args(argv))
        replayed = vars(build_parser().parse_args(command))
        del ran["func"], replayed["func"]
        assert replayed == ran
        return command

    def test_gen_line(self, tmp_path):
        out = str(tmp_path / "line")
        argv = ["gen", "line", "--n", "4", "--p", "2", "-o", out]
        assert main(argv) == 0
        assert self.replay(argv, out)[:2] == ["gen", "line"]

    def test_gen_ring_negative_term(self, tmp_path):
        out = str(tmp_path / "ring")
        argv = ["gen", "ring", "--n", "4", "--term", "0.5:ZIII",
                "--term", "-1.0:IXXI", "-o", out]
        assert main(argv) == 0
        command = self.replay(argv, out)
        assert command[:2] == ["gen", "ring"]
        assert "--term=-1.0:IXXI" in command

    def test_diagnose_mse_file(self, tmp_path):
        circ = gen_toy(tmp_path)
        out = str(tmp_path / "mse")
        argv = ["diagnose", "mse", circ, "--n-theta", "50", "--seed", "3",
                "-o", out]
        assert main(argv) == 0
        assert self.replay(argv, out)[:3] == ["diagnose", "mse", circ]

    def test_oracle_negative_theta(self, tmp_path):
        circ = gen_two_param(tmp_path)
        out = str(tmp_path / "oexp")
        argv = ["oracle", "expectation", circ, "--theta", "-0.5,0.2",
                "-o", out]
        assert main(argv) == 0
        command = self.replay(argv, out)
        assert command[:3] == ["oracle", "expectation", circ]
        assert "--theta=-0.5,0.2" in command

    def test_plan_without_circuit(self, tmp_path):
        out = str(tmp_path / "plan")
        argv = ["plan", "--epsilon", "0.1", "--delta", "0.1",
                "--pauli-l1", "2.0", "-o", out]
        assert main(argv) == 0
        assert self.replay(argv, out)[1].startswith("--")


class TestDiagnose:
    def test_mse_product_and_value(self, tmp_path):
        circ = gen_toy(tmp_path)
        out = str(tmp_path / "mse")
        rc = main(["diagnose", "mse", circ, "--n-theta", "4000",
                   "--seed", "7", "-o", out])
        assert rc == 0
        rep = read_json(out + ".json")
        assert rep["quantity"] == "mse"
        assert abs(rep["mean"] - 0.005) < max(4 * rep["stderr"], 1e-12)
        assert rep["run_id"] == read_json(out + ".manifest.json")["run_id"]

    def test_rerun_identity_ignores_threads_and_paths(self, tmp_path):
        circ = gen_toy(tmp_path)
        out_a, out_b = str(tmp_path / "a" / "r"), str(tmp_path / "b" / "r")
        assert main(["diagnose", "mse", circ, "--n-theta", "200",
                     "--threads", "1", "-o", out_a]) == 0
        assert main(["diagnose", "mse", circ, "--n-theta", "200",
                     "--threads", "4", "-o", out_b]) == 0
        a, b = read_json(out_a + ".json"), read_json(out_b + ".json")
        assert stable(a) == stable(b)
        assert a["run_id"] == b["run_id"]
        ma = read_json(out_a + ".manifest.json")
        mb = read_json(out_b + ".manifest.json")
        assert [o.get("payload_digest") for o in ma["outputs"]] \
            == [o.get("payload_digest") for o in mb["outputs"]]

    def test_input_content_feeds_run_id(self, tmp_path):
        circ1 = gen_toy(tmp_path, "t1", lam=0.1)
        circ2 = gen_toy(tmp_path, "t2", lam=0.2)  # different content
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        main(["diagnose", "mse", circ1, "--n-theta", "100", "-o", out1])
        main(["diagnose", "mse", circ2, "--n-theta", "100", "-o", out2])
        assert read_json(out1 + ".json")["run_id"] \
            != read_json(out2 + ".json")["run_id"]

    def test_sensitivity_writes_csv(self, tmp_path):
        circ = gen_toy(tmp_path)
        out = str(tmp_path / "sens")
        assert main(["diagnose", "sensitivity", circ, "--n-theta", "500",
                     "-o", out]) == 0
        lines = Path(out + ".csv").read_text().splitlines()
        assert lines[0].startswith("# run_id: ")
        assert lines[1] == "layer,element,qubits,gradient,stderr"
        assert len(lines) == 3

    def test_gradvar_all_params_csv(self, tmp_path):
        out_c = str(tmp_path / "ring2")
        main(["gen", "ring", "--n", "4", "--blocks", "1", "--obs", "ZIII",
              "-o", out_c])
        out = str(tmp_path / "gv")
        rc = main(["diagnose", "gradvar", out_c + ".json", "--n-theta", "64",
                   "--param", "all", "-o", out])
        assert rc == 0
        doc = read_json(out + ".json")
        assert doc["quantity"] == "gradient_variance_set"
        assert len(doc["reports"]) == 8
        lines = Path(out + ".csv").read_text().splitlines()
        assert lines[1] == "param,mean,stderr"
        assert lines[-1].startswith("sum,")

    def test_gradvar_single_param(self, tmp_path):
        circ = gen_toy(tmp_path)
        out = str(tmp_path / "gv1")
        rc = main(["diagnose", "gradvar", circ, "--param", "0",
                   "--n-theta", "200", "-o", out])
        assert rc == 0
        assert main(["diagnose", "gradvar", circ, "--param", "9",
                     "--n-theta", "50", "-o", out]) == 2

    def test_expressibility_prs1_redirect(self, tmp_path):
        out_c = str(tmp_path / "ampring")
        main(["gen", "ring", "--n", "4", "--noise", "amp:0.2", "-o", out_c])
        rc = main(["diagnose", "expressibility", out_c + ".json",
                   "--n-theta", "16", "-o", str(tmp_path / "x")])
        assert rc == 2
        rc = main(["diagnose", "expressibility-lb", out_c + ".json",
                   "--n-theta", "8", "--n-sigma", "8", "--n-tau", "2",
                   "-o", str(tmp_path / "lb")])
        assert rc == 0
        assert read_json(str(tmp_path / "lb") + ".json")["quantity"] \
            .startswith("expressibility")

    def test_missing_observable(self, tmp_path):
        out_c = str(tmp_path / "noobs")
        main(["gen", "ring", "--n", "4", "--noise", "dep:0.1", "-o", out_c])
        spec = read_json(out_c + ".json")
        spec.pop("observable")
        with open(out_c + ".json", "w") as f:
            json.dump(spec, f)
        rc = main(["diagnose", "mse", out_c + ".json",
                   "-o", str(tmp_path / "x")])
        assert rc == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["diagnose", "mse", str(bad),
                     "-o", str(tmp_path / "x")]) == 2


class TestConfigResolution:
    def test_file_then_flag_precedence(self, tmp_path):
        circ = gen_toy(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_theta": 123, "seed": 9}))
        out = str(tmp_path / "c1")
        main(["diagnose", "mse", circ, "--config", str(cfg), "-o", out])
        rep = read_json(out + ".json")
        assert rep["n_theta"] == 123 and rep["seed"] == 9
        out2 = str(tmp_path / "c2")
        main(["diagnose", "mse", circ, "--config", str(cfg),
              "--n-theta", "77", "-o", out2])
        assert read_json(out2 + ".json")["n_theta"] == 77

    def test_unknown_config_key(self, tmp_path):
        circ = gen_toy(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_theta": 10, "shots": 5}))
        assert main(["diagnose", "mse", circ, "--config", str(cfg),
                     "-o", str(tmp_path / "x")]) == 2

    def test_config_file_content_enters_run_id(self, tmp_path):
        circ = gen_toy(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_theta": 50}))
        out1 = str(tmp_path / "v1")
        main(["diagnose", "mse", circ, "--config", str(cfg), "-o", out1])
        cfg.write_text(json.dumps({"n_theta": 60}))
        out2 = str(tmp_path / "v2")
        main(["diagnose", "mse", circ, "--config", str(cfg), "-o", out2])
        assert read_json(out1 + ".json")["run_id"] \
            != read_json(out2 + ".json")["run_id"]

    def test_threads_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PQCDIAG_THREADS", "3")
        circ = gen_toy(tmp_path)
        out = str(tmp_path / "env")
        assert main(["diagnose", "mse", circ, "--n-theta", "64",
                     "-o", out]) == 0
        # threads are an execution detail: never in the payload
        assert "threads" not in read_json(out + ".json")["config"]


class TestBenchmarkPlanOracle:
    def test_benchmark_single_trial_csv(self, tmp_path):
        out = str(tmp_path / "bench")
        rc = main(["benchmark", "--n", "3", "--p", "2",
                   "--samples", "50,100", "--seed", "1", "-o", out])
        assert rc == 0
        lines = Path(out + ".csv").read_text().splitlines()
        assert lines[1] == "n_samples,mean,std,rel_error"
        assert len(lines) == 4
        assert all(row.split(",")[2] == "" for row in lines[2:])
        doc = read_json(out + ".json")
        assert doc["target"] == pytest.approx(2.0 / 5.0)

    def test_benchmark_trials_fill_std(self, tmp_path):
        out = str(tmp_path / "bench3")
        main(["benchmark", "--n", "3", "--p", "2", "--samples", "50",
              "--trials", "3", "--seed", "1", "-o", out])
        rows = Path(out + ".csv").read_text().splitlines()[2:]
        assert all(float(r.split(",")[2]) > 0 for r in rows)

    def test_benchmark_bad_samples(self, tmp_path):
        assert main(["benchmark", "--n", "3", "--samples", "ten",
                     "-o", str(tmp_path / "x")]) == 2

    def test_plan_reference_counts(self, tmp_path):
        out = str(tmp_path / "plan")
        rc = main(["plan", "--epsilon", "0.05", "--delta", "0.01",
                   "--pauli-l1", "1.0", "-o", out])
        assert rc == 0
        doc = read_json(out + ".json")
        assert doc["n_tau"] == 4239 and doc["n_theta"] == 67819

    def test_plan_from_circuit_file(self, tmp_path):
        circ = gen_toy(tmp_path)
        out = str(tmp_path / "plan2")
        assert main(["plan", circ, "--epsilon", "0.1", "--delta", "0.1",
                     "-o", out]) == 0
        assert read_json(out + ".json")["pauli_l1"] == 1.0

    def test_oracle_kinds(self, tmp_path):
        circ = gen_toy(tmp_path)
        out = str(tmp_path / "omse")
        assert main(["oracle", "mse", circ, "-o", out]) == 0
        assert read_json(out + ".json")["value"] == pytest.approx(0.005)
        out = str(tmp_path / "ogv")
        assert main(["oracle", "gradvar", circ, "--param-k", "0",
                     "-o", out]) == 0
        assert read_json(out + ".json")["value"] == pytest.approx(0.405)
        out = str(tmp_path / "oexp")
        assert main(["oracle", "expectation", circ, "--theta", "0.7",
                     "-o", out]) == 0
        assert read_json(out + ".json")["value"] \
            == pytest.approx(0.9 * np.cos(0.7))

    def test_oracle_theta_length_checked(self, tmp_path):
        circ = gen_toy(tmp_path)
        assert main(["oracle", "expectation", circ, "--theta", "0.1,0.2",
                     "-o", str(tmp_path / "x")]) == 2


class TestBottleneck:
    def test_products(self, tmp_path):
        circ = gen_toy(tmp_path)
        out = str(tmp_path / "bn")
        rc = main(["bottleneck", circ, "--budget", "1", "--n-theta", "400",
                   "-o", out])
        assert rc == 0
        plan = read_json(out + ".plan.json")
        assert plan["quantity"] == "intervention_plan"
        assert len(plan["steps"]) == 1
        traj = Path(out + ".trajectory.csv").read_text().splitlines()
        assert traj[1] == "step,layer,element,qubits,param,new_value,mse,stderr"
        hot = Path(out + ".hotspots.csv").read_text().splitlines()
        assert hot[1] == "layer,element,qubits,gradient,stderr"
        man = read_json(out + ".manifest.json")
        assert len(man["outputs"]) == 3


def test_unknown_subcommand_exits_2(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


def test_missing_file_is_validation_error(tmp_path):
    assert main(["diagnose", "mse", str(tmp_path / "nope.json"),
                 "-o", str(tmp_path / "x")]) == 2
