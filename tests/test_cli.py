"""End-to-end CLI runs through main(argv): products, manifests, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pqcdiag import cli
from pqcdiag import estimators as est
from pqcdiag.cli import build_parser, main
from pqcdiag.circuits import load_bundle, serialize
from pqcdiag.reports import VOLATILE_FIELDS, DiagnosticConfig


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
        # 0.3.0 draws its random Pauli words from the plane-major sigma
        # stream (v2), as 0.2.0 drew its grid angles from the plane-major
        # angle stream (v3): the same seed gives other expressibility
        # numbers than 0.2.0 did, and other numbers than 0.1.0 everywhere
        assert man["versions"]["pqcdiag"] == "0.3.0"
        assert man["run_id"] == read_json(out + ".json")["run_id"]

    def test_missing_n_is_validation_error(self, tmp_path):
        rc = main(["gen", "ring", "-o", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("family", [["chip"], ["ring", "--n", "4"]])
    def test_blocks_below_one_is_validation_error(self, tmp_path, family,
                                                  capsys):
        assert main(["gen", *family, "--blocks", "-1",
                     "-o", str(tmp_path / "x")]) == 2
        assert "blocks >= 1" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("flag", [["--noise", "amp:0.3"],
                                      ["--obs", "XXXX"],
                                      ["--term", "0.5:ZIII"]])
    def test_line_refuses_noise_and_observable(self, tmp_path, flag, capsys):
        # the chain is noiseless and carries its own observable
        assert main(["gen", "line", "--n", "4", *flag,
                     "-o", str(tmp_path / "line")]) == 2
        assert "do not apply" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, stray", [
        (["line", "--n", "4", "--p", "2", "--blocks", "7",
          "--two-qubit", "cz", "--noise-mode", "qubit"],
         "--blocks, --noise-mode, --two-qubit"),
        (["ring", "--n", "4", "--p", "9"], "--p"),
        (["chip", "--n", "5"], "--n")])
    def test_refuses_options_of_other_families(self, tmp_path, argv, stray,
                                               capsys):
        assert main(["gen", *argv, "-o", str(tmp_path / "x")]) == 2
        assert f"do not apply to gen {argv[0]}: {stray}" \
            in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_manifest_records_only_given_options(self, tmp_path):
        out = str(tmp_path / "chip")
        assert main(["gen", "chip", "--rows", "2", "--cols", "2",
                     "-o", out]) == 0
        assert read_json(out + ".manifest.json")["command"] \
            == ["gen", "chip", "--cols=2", f"--out={out}", "--rows=2"]
        circuit, _, _ = load_bundle(read_json(out + ".json"))
        assert circuit.n == 4 and not circuit.noise_sites  # the defaults

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

    @pytest.mark.parametrize("kind", ["expressibility", "expressibility-lb"])
    def test_expressibility_refuses_accuracy_targets(self, tmp_path, kind):
        circ = gen_toy(tmp_path)
        assert main(["diagnose", kind, circ, "--epsilon", "0.01",
                     "--delta", "0.1", "-o", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("target", [["--epsilon", "0.1"],
                                        ["--delta", "0.1"]])
    def test_lone_accuracy_target_is_validation_error(self, tmp_path, target,
                                                      capsys):
        circ = gen_toy(tmp_path)
        assert main(["diagnose", "mse", circ, *target, "--n-theta", "50",
                     "-o", str(tmp_path / "x")]) == 2
        assert "both epsilon and delta" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

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

    @pytest.mark.parametrize("key", ["coeff", "identity_offset"])
    def test_non_finite_observable_is_validation_error(self, tmp_path, key,
                                                       capsys):
        spec = read_json(gen_toy(tmp_path))
        if key == "coeff":
            spec["observable"][0]["coeff"] = float("nan")
        else:
            spec[key] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(spec))  # json writes the token NaN
        assert main(["diagnose", "mse", str(bad), "--n-theta", "8",
                     "-o", str(tmp_path / "x")]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["diagnose", "mse", str(bad),
                     "-o", str(tmp_path / "x")]) == 2


#: the type each DiagnosticConfig field's flag parses its value to
CONFIG_FLAG_TYPES = {"n_theta": int, "n_tau": int, "n_sigma": int, "seed": int,
                     "threads": int, "epsilon": float, "delta": float}
CONFIG_COMMANDS = {"diagnose": ["diagnose", "mse", "c.json", "-o", "x"],
                   "bottleneck": ["bottleneck", "c.json", "--budget", "1",
                                  "-o", "x"]}


class TestConfigFlags:
    def test_every_field_has_a_typed_flag(self):
        assert [f.name for f in dataclasses.fields(DiagnosticConfig)] \
            == list(CONFIG_FLAG_TYPES)

    @pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
    @pytest.mark.parametrize("name", sorted(CONFIG_FLAG_TYPES))
    def test_flag_parses_to_the_field_type(self, command, name):
        flag = "--" + name.replace("_", "-")
        args = build_parser().parse_args(
            [*CONFIG_COMMANDS[command], flag, "3"])
        value = getattr(args, name)
        assert type(value) is CONFIG_FLAG_TYPES[name] and value == 3

    @pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
    def test_help_describes_epsilon(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--epsilon EPSILON additive error target; with --delta this " \
               "overrides the sample counts via the planner" in out


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

    @pytest.mark.parametrize("top", [5, None, ["n_theta"], "abc"])
    def test_config_file_must_hold_an_object(self, tmp_path, capsys, top):
        circ = gen_toy(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(top))
        assert main(["diagnose", "mse", circ, "--config", str(cfg),
                     "-o", str(tmp_path / "x")]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("spec", [{"n_theta": 40.9}, {"seed": 2.5},
                                      {"n_tau": True}])
    def test_non_integral_config_value(self, tmp_path, spec):
        circ = gen_toy(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "x"
        assert main(["diagnose", "mse", circ, "--config", str(cfg),
                     "-o", str(out)]) == 2
        assert not (tmp_path / "x.json").exists()

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

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_set_threads_ignore_a_bad_threads_env(self, tmp_path, monkeypatch,
                                                  how):
        # the environment is only the default: a flag or a config file
        # that sets threads never reads it
        monkeypatch.setenv("PQCDIAG_THREADS", "abc")
        circ = gen_toy(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 1}))
        extra = ["--threads", "1"] if how == "flag" else ["--config",
                                                          str(cfg)]
        out = str(tmp_path / "set")
        assert main(["diagnose", "mse", circ, "--n-theta", "16", *extra,
                     "-o", out]) == 0
        assert read_json(out + ".json")["n_theta"] == 16

    def test_bad_threads_env_alone_is_validation_error(self, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.setenv("PQCDIAG_THREADS", "abc")
        circ = gen_toy(tmp_path)
        assert main(["diagnose", "mse", circ, "--n-theta", "16",
                     "-o", str(tmp_path / "x")]) == 2
        assert "PQCDIAG_THREADS must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


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

    @pytest.mark.parametrize("size", [["--n", "2"], ["--n", "3", "--p", "0"]])
    def test_benchmark_bad_chain_size(self, tmp_path, size, capsys):
        # the chain generator's refusal is invalid input, not a crash
        assert main(["benchmark", *size, "--samples", "10",
                     "-o", str(tmp_path / "x")]) == 2
        assert "need n >= 3" in capsys.readouterr().err

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

    def test_oracle_identity_only_observable(self, tmp_path):
        circ = str(tmp_path / "idchip")
        assert main(["gen", "chip", "--rows", "2", "--cols", "2",
                     "--noise", "dep:0.1", "--term", "1.0:IIII",
                     "-o", circ]) == 0
        out = str(tmp_path / "oid")
        assert main(["oracle", "mse", circ + ".json", "-o", out]) == 0
        assert read_json(out + ".json")["value"] == 0.0

    def test_oracle_theta_length_checked(self, tmp_path):
        circ = gen_toy(tmp_path)
        assert main(["oracle", "expectation", circ, "--theta", "0.1,0.2",
                     "-o", str(tmp_path / "x")]) == 2


class TestLibraryInputErrors:
    """A ValueError the library raises is an input error: exit code 2, an
    ``error:`` line on stderr, and no product or manifest written."""

    @staticmethod
    def gen_shared(tmp_path):
        # two rotations driven by one parameter: no closed-form grid average
        spec = {"format": 1, "n": 1,
                "gates": [{"gate": "rx", "qubits": [0], "param": 0},
                          {"gate": "rz", "qubits": [0], "param": 0}],
                "noise": [], "observable": [{"coeff": 1.0, "pauli": "Z"}]}
        path = tmp_path / "shared.json"
        path.write_text(json.dumps(spec))
        return str(path)

    @pytest.mark.parametrize("argv, message", [
        (["plan", "--epsilon", "2", "--delta", "0.1", "--pauli-l1", "1"],
         "epsilon must lie in (0,1)"),
        (["bottleneck", "{toy}", "--budget", "-1", "--n-theta", "8"],
         "budget must be >= 0"),
        (["oracle", "mse", "{shared}"], "parameter 0 appears 2 times"),
    ], ids=["plan", "bottleneck", "oracle"])
    def test_exit_2_and_nothing_written(self, tmp_path, capsys, argv,
                                        message):
        files = {"toy": gen_toy(tmp_path),
                 "shared": self.gen_shared(tmp_path)}
        out = tmp_path / "products" / "run"
        assert main([a.format(**files) for a in argv]
                    + ["-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not list(tmp_path.glob("products/*"))


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

    @pytest.mark.parametrize("budget, target, maps, steps",
                             [(0, "0.0", 1, 0), (1, "0.0", 1, 1),
                              (2, "0.0", 2, 2), (2, "0.5", 1, 0)])
    def test_round_one_map_is_estimated_once(self, tmp_path, monkeypatch,
                                             budget, target, maps, steps):
        # every site has gamma = 0.1, so target 0.5 leaves none above it
        circ = str(tmp_path / "chip")
        assert main(["gen", "chip", "--rows", "2", "--cols", "2",
                     "--blocks", "1", "--noise", "amp:0.1", "--obs", "ZIII",
                     "-o", circ]) == 0
        original = est.estimate_sensitivity_map
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "estimate_sensitivity_map", counted)
        monkeypatch.setattr(est, "estimate_sensitivity_map", counted)
        out = str(tmp_path / "bn")
        assert main(["bottleneck", circ + ".json", "--budget", str(budget),
                     "--target", target, "--n-theta", "32", "--n-tau", "2",
                     "--seed", "5", "-o", out]) == 0
        assert len(calls) == maps
        assert len(read_json(out + ".plan.json")["steps"]) == steps
        circuit, obs, state = load_bundle(read_json(circ + ".json"))
        hot = original(circuit, obs, state,
                       DiagnosticConfig(n_theta=32, n_tau=2, seed=5))
        assert Path(out + ".hotspots.csv").read_text().split("\n", 1)[1] \
            == hot.to_csv()

    @pytest.mark.parametrize("limits, message", [
        (["--budget", "-1"], "budget must be >= 0"),
        (["--budget", "1", "--target", "1.5"],
         "target strength must lie in [0, 1]")])
    def test_limits_are_checked_before_any_map(self, tmp_path, monkeypatch,
                                               capsys, limits, message):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a map was estimated")

        monkeypatch.setattr(cli, "estimate_sensitivity_map", counted)
        monkeypatch.setattr(est, "estimate_sensitivity_map", counted)
        out = tmp_path / "products" / "bn"
        assert main(["bottleneck", gen_toy(tmp_path), *limits,
                     "--n-theta", "1000000", "-o", str(out)]) == 2
        assert calls == []
        assert message in capsys.readouterr().err
        assert not (tmp_path / "products").exists()


def test_unknown_subcommand_exits_2(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert capsys.readouterr().out.strip() == "0.3.0"


def test_missing_file_is_validation_error(tmp_path):
    assert main(["diagnose", "mse", str(tmp_path / "nope.json"),
                 "-o", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("argv, code", [(["--help"], 0),
                                        (["benchmark", "--n", "2"], 2)])
def test_package_runs_as_a_module(argv, code):
    # ``python -m pqcdiag`` from a checkout, without the console script
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "pqcdiag", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    assert "usage: pqcdiag" in done.stdout + done.stderr
