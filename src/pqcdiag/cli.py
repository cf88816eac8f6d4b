"""Command-line front end: generation, diagnostics, benchmarks, oracles.

Every run writes a ``<out>.manifest.json`` beside its products recording the
command, input file digests, seed, library versions, wall-clock timestamps and
the payload digest of each output, so a re-run with the same inputs can be
checked for identical results (timestamps aside).  The recorded command is the
normalized, replayable form of the run: the subcommand, its positionals as bare
tokens in parser order, then every set option as a sorted ``--key=value`` flag
with the defaults filled in; ``pqcdiag <command...>`` parses it back to the
same arguments.  Each product embeds the deterministic ``run_id`` of its
manifest.

Option values that begin with a minus sign are accepted space-separated for
``--term`` (``--term -1.0:IXXI``) and ``--theta`` (``--theta -0.5,0.2``).

Exit codes: 0 success, 1 runtime failure, 2 invalid input or configuration.
Any ``ValueError``, whether the CLI or the library raises it, is an input
error: :func:`main` maps it to exit code 2 in one place, so a subcommand
catches one only to add context to its message.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .channels import make_amplitude_damping, make_depolarizing
from .circuits import (gen_grid_chip, gen_line_benchmark, gen_ring,
                       load_bundle, observable_from_terms, serialize)
from .estimators import (bottleneck_first_plan, check_plan_limits,
                         estimate_expressibility_hs,
                         estimate_expressibility_lower_bound,
                         estimate_gradient_variance, estimate_mse,
                         estimate_sensitivity_map, line_variance_benchmark,
                         line_variance_target, plan_samples,
                         sum_gradient_variance)
from .oracle import dense_expectation, grid_enumerate
from .reports import DiagnosticConfig, canonical_json, payload_digest

#: environment variable read for the default worker count
THREADS_ENV = "PQCDIAG_THREADS"

_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(DiagnosticConfig))


class CliError(ValueError):
    """Invalid input or configuration, worded by the CLI; exit code 2 like
    any ValueError."""


# ---------------------------------------------------------------------------
# config resolution: flags > config file > defaults
# ---------------------------------------------------------------------------

def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{THREADS_ENV} must be an integer, got {raw!r}")


def resolve_config(args) -> DiagnosticConfig:
    """Merge CLI flags over a config file over the defaults; the threads
    default is read from the environment only when neither sets threads."""
    merged = {}
    if getattr(args, "config", None):
        spec = _read_json(args.config)
        unknown = set(spec) - set(_CONFIG_KEYS)
        if unknown:
            raise CliError(f"unknown config keys {sorted(unknown)!r} in "
                           f"{args.config} (known: {list(_CONFIG_KEYS)})")
        merged.update(spec)
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if "threads" not in merged:
        merged["threads"] = _default_threads()
    try:
        return DiagnosticConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad configuration: {exc}")


def add_config_flags(sub) -> None:
    sub.add_argument("--config", metavar="FILE",
                     help="JSON file with any of %s" % (", ".join(_CONFIG_KEYS)))
    for f in dataclasses.fields(DiagnosticConfig):
        sub.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                         type=int if f.type == "int" else float,
                         help=f.metadata.get("help"))


# ---------------------------------------------------------------------------
# manifest plumbing
# ---------------------------------------------------------------------------

def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_json(path: str) -> dict:
    """The JSON object a config or circuit file holds; CliError when the
    file is missing, is not JSON or holds something else."""
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON "
                       f"({exc.msg})")
    if not isinstance(spec, dict):
        raise CliError(f"{path} must hold a JSON object, got "
                       f"{type(spec).__name__}")
    return spec


class RunWriter:
    """Collects a run's products and finishes with the manifest file.

    ``run_id`` hashes the semantic command, the input digests and the seed —
    no paths, thread counts or clock values — so a rerun of the same work
    produces identical ids and payloads wherever it lands, and its manifest
    differs only in the timestamps.
    """

    def __init__(self, args, inputs: list, seed, out_base: str):
        self.command = _reconstruct(args, for_identity=False)
        self.inputs = [{"path": p, "sha256": _sha256_file(p)} for p in inputs]
        self.seed = seed
        self.out_base = out_base
        self.started = _utc_now()
        self.outputs = []
        ident = {"command": _reconstruct(args, for_identity=True),
                 "inputs": [i["sha256"] for i in self.inputs],
                 "seed": seed}
        self.run_id = hashlib.sha256(
            canonical_json(ident).encode()).hexdigest()[:16]
        parent = os.path.dirname(os.path.abspath(out_base))
        os.makedirs(parent, exist_ok=True)

    def write_json(self, suffix: str, payload: dict) -> str:
        payload = dict(payload)
        payload["run_id"] = self.run_id
        path = self.out_base + suffix
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        self.outputs.append({"path": path, "sha256": _sha256_file(path),
                             "payload_digest": payload_digest(payload)})
        return path

    def write_csv(self, suffix: str, body: str) -> str:
        path = self.out_base + suffix
        text = f"# run_id: {self.run_id}\n" + body
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        self.outputs.append({"path": path, "sha256": _sha256_file(path)})
        return path

    def finish(self) -> str:
        manifest = {
            "run_id": self.run_id,
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "versions": {"pqcdiag": __version__,
                         "python": sys.version.split()[0],
                         "numpy": np.__version__},
            "started": self.started,
            "finished": _utc_now(),
            "outputs": self.outputs,
        }
        path = self.out_base + ".manifest.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
        for out in self.outputs:
            print(out["path"])
        print(path)
        return path


def _load_bundle_file(path: str):
    spec = _read_json(path)
    try:
        return load_bundle(spec)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"{path}: bad circuit bundle: {exc}")


def _require_observable(obs, path: str):
    if obs is None:
        raise CliError(f"{path} carries no observable; regenerate with --obs "
                       f"or add an 'observable' list to the file")
    return obs


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def cmd_diagnose(args) -> int:
    circuit, obs, state = _load_bundle_file(args.circuit)
    cfg = resolve_config(args)
    inputs = [args.circuit] + ([args.config] if args.config else [])
    run = RunWriter(args, inputs, cfg.seed, args.out)

    if args.kind == "mse":
        rep = estimate_mse(circuit, _require_observable(obs, args.circuit),
                           state, cfg)
        run.write_json(".json", rep.to_json_dict())
    elif args.kind == "sensitivity":
        smap = estimate_sensitivity_map(
            circuit, _require_observable(obs, args.circuit), state, cfg)
        run.write_json(".json", smap.to_json_dict())
        run.write_csv(".csv", smap.to_csv())
    elif args.kind == "gradvar":
        _diagnose_gradvar(args, run, circuit,
                          _require_observable(obs, args.circuit), state, cfg)
    elif args.kind == "expressibility":
        if not circuit.is_prs1():
            raise CliError("a noise channel fails the row-sum condition; "
                           "run 'pqcdiag diagnose expressibility-lb' on "
                           "this circuit instead")
        rep = estimate_expressibility_hs(circuit, cfg)
        run.write_json(".json", rep.to_json_dict())
    else:  # expressibility-lb
        rep = estimate_expressibility_lower_bound(circuit, cfg)
        run.write_json(".json", rep.to_json_dict())
    run.finish()
    return 0


def _diagnose_gradvar(args, run, circuit, obs, state, cfg) -> None:
    lines = ["param,mean,stderr"]
    payloads = []
    if args.param == "all":
        ks = range(circuit.n_params)
    elif args.param == "sum":
        ks = ()
    else:
        try:
            ks = [int(args.param)]
        except ValueError:
            raise CliError(f"--param must be an index, 'all' or 'sum', "
                           f"got {args.param!r}")
    try:
        for k in ks:
            rep = estimate_gradient_variance(circuit, obs, state, k, cfg)
            payloads.append(rep.to_json_dict())
            lines.append(f"{k},{rep.mean!r},{rep.stderr!r}")
    except IndexError as exc:
        raise CliError(str(exc))
    total = None
    if args.param in ("all", "sum"):
        total = sum_gradient_variance(circuit, obs, state, cfg).to_json_dict()
        lines.append(f"sum,{total['mean']!r},{total['stderr']!r}")
    doc = {"quantity": "gradient_variance_set", "reports": payloads}
    if total is not None:
        doc["sum"] = total
    run.write_json(".json", doc)
    run.write_csv(".csv", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def cmd_benchmark(args) -> int:
    if args.trials < 1:
        raise CliError("--trials must be at least 1")
    sample_counts = _parse_counts(args.samples)
    seed = args.seed if args.seed is not None else 0
    threads = args.threads if args.threads is not None else _default_threads()
    run = RunWriter(args, [], seed, args.out)
    target = line_variance_target(args.n)

    lines = ["n_samples,mean,std,rel_error"]
    table = []
    for count in sample_counts:
        vals = np.array([
            line_variance_benchmark(args.n, args.p, count,
                                    seed=seed + t, threads=threads).mean
            for t in range(args.trials)])
        mean = float(vals.mean())
        std = float(vals.std(ddof=1)) if args.trials > 1 else None
        rel = (mean - target) / target
        table.append({"n_samples": count, "mean": mean, "std": std,
                      "rel_error": rel})
        std_cell = "" if std is None else repr(std)
        lines.append(f"{count},{mean!r},{std_cell},{rel!r}")

    run.write_json(".json", {
        "quantity": "benchmark_convergence", "n": args.n, "p": args.p,
        "trials": args.trials, "seed": seed, "target": target,
        "rows": table,
    })
    run.write_csv(".csv", "\n".join(lines) + "\n")
    run.finish()
    return 0


def _parse_counts(raw: str) -> list:
    try:
        counts = [int(tok) for tok in raw.split(",") if tok]
    except ValueError:
        raise CliError(f"--samples wants comma-separated integers, got {raw!r}")
    if not counts or any(c < 2 for c in counts):
        raise CliError("--samples entries must be at least 2")
    return counts


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def cmd_plan(args) -> int:
    if args.circuit is not None:
        _, obs, _ = _load_bundle_file(args.circuit)
        l1 = _require_observable(obs, args.circuit).pauli_l1
        inputs = [args.circuit]
    elif args.pauli_l1 is not None:
        l1, inputs = args.pauli_l1, []
    else:
        raise CliError("plan needs a circuit file or --pauli-l1")
    n_theta, n_tau = plan_samples(args.epsilon, args.delta, l1)
    run = RunWriter(args, inputs, None, args.out)
    run.write_json(".json", {
        "quantity": "sample_plan", "epsilon": args.epsilon,
        "delta": args.delta, "pauli_l1": l1,
        "n_theta": n_theta, "n_tau": n_tau,
    })
    run.finish()
    return 0


# ---------------------------------------------------------------------------
# bottleneck
# ---------------------------------------------------------------------------

def cmd_bottleneck(args) -> int:
    circuit, obs, state = _load_bundle_file(args.circuit)
    obs = _require_observable(obs, args.circuit)
    cfg = resolve_config(args)
    check_plan_limits(args.target, args.budget)
    inputs = [args.circuit] + ([args.config] if args.config else [])
    run = RunWriter(args, inputs, cfg.seed, args.out)
    smap = estimate_sensitivity_map(circuit, obs, state, cfg)
    plan = bottleneck_first_plan(circuit, obs, state, cfg, target=args.target,
                                 budget=args.budget, first_map=smap)
    run.write_json(".plan.json", plan.to_json_dict())
    run.write_csv(".trajectory.csv", plan.trajectory_csv())
    run.write_csv(".hotspots.csv", smap.to_csv())
    run.finish()
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    circuit, obs, state = _load_bundle_file(args.circuit)
    run = RunWriter(args, [args.circuit], None, args.out)
    if args.kind == "expectation":
        if args.theta is None:
            raise CliError("oracle expectation needs --theta")
        theta = np.array([float(t) for t in args.theta.split(",")])
        if theta.size != circuit.n_params:
            raise CliError(f"--theta has {theta.size} angles, circuit "
                           f"has {circuit.n_params} parameters")
        value = dense_expectation(
            circuit, theta, _require_observable(obs, args.circuit), state)
    else:
        functional = args.kind
        if args.kind == "gradvar":
            functional = f"gradvar({args.param_k})"
        if args.kind != "moment2":
            obs = _require_observable(obs, args.circuit)
        value = grid_enumerate(circuit, obs, functional, state)
    doc = {"quantity": f"oracle_{args.kind}", "value": value}
    if args.kind == "gradvar":
        doc["param_k"] = args.param_k
    run.write_json(".json", doc)
    run.finish()
    return 0


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _parse_noise(raw: str):
    if raw == "none":
        return None
    kind, _, val = raw.partition(":")
    try:
        strength = float(val)
    except ValueError:
        raise CliError(f"bad noise spec {raw!r} (want dep:S, amp:S or none)")
    if kind == "dep":
        return make_depolarizing(strength)
    if kind == "amp":
        return make_amplitude_damping(strength)
    raise CliError(f"unknown noise kind {kind!r} (want dep, amp or none)")


def _parse_terms(args, n: int):
    if args.term:
        terms = []
        for raw in args.term:
            coeff, _, pauli = raw.partition(":")
            try:
                terms.append((float(coeff), pauli))
            except ValueError:
                raise CliError(f"bad --term {raw!r} (want COEFF:PAULIS)")
    elif args.obs:
        terms = [(1.0, args.obs)]
    else:
        terms = [(1.0, "Z" + "I" * (n - 1))]
    return observable_from_terms(terms, n=n)


#: the options each ``gen`` family takes, with their defaults (None: none);
#: the parser's defaults are all None, so an option given to a family that
#: does not take it is refused rather than ignored and recorded
_GEN_OPTIONS = {
    "line": {"n": None, "p": 8},
    "ring": {"n": None, "blocks": 1, "noise": "none", "noise_mode": "gate",
             "obs": None, "term": None},
    "chip": {"rows": 3, "cols": 3, "blocks": 1, "two_qubit": "rzz",
             "noise": "none", "noise_mode": "gate", "obs": None,
             "term": None},
}


def cmd_gen(args) -> int:
    takes = _GEN_OPTIONS[args.family]
    stray = [f"--{key.replace('_', '-')}"
             for key in dict.fromkeys(k for opts in _GEN_OPTIONS.values()
                                      for k in opts)
             if key not in takes and getattr(args, key) is not None]
    if stray:
        raise CliError(f"options that do not apply to gen {args.family}: "
                       f"{', '.join(stray)}")
    opt = {key: default if getattr(args, key) is None else getattr(args, key)
           for key, default in takes.items()}
    if args.family in ("line", "ring") and opt["n"] is None:
        raise CliError(f"gen {args.family} needs --n")
    if args.family == "line":
        circuit, obs, state = gen_line_benchmark(opt["n"], opt["p"])
    else:
        noise = _parse_noise(opt["noise"])
        if args.family == "ring":
            circuit = gen_ring(opt["n"], opt["blocks"], noise,
                               opt["noise_mode"])
        else:
            circuit = gen_grid_chip(opt["rows"], opt["cols"], opt["blocks"],
                                    opt["two_qubit"], noise,
                                    opt["noise_mode"])
        obs = _parse_terms(args, circuit.n)
        state = None
    run = RunWriter(args, [], None, args.out)
    run.write_json(".json", serialize(circuit, obs, state))
    run.finish()
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _reconstruct(args, for_identity: bool) -> list:
    """Normalized, replayable command tokens.

    The subcommand comes first, then its positionals as bare tokens in parser
    order, then every other set argument as a ``--key=value`` flag sorted by
    key, defaults included (a list value gives one flag per item).  The
    ``=`` form keeps values such as ``-1.0:IXXI`` attached to their flag, so
    ``build_parser().parse_args(tokens)`` gives back the run's arguments.

    ``gen`` has no parser defaults (its families' defaults differ, see
    ``_GEN_OPTIONS``), so only the options given are recorded for it.

    The manifest records the full command; the run identity instead drops
    everything that cannot change the numbers — the thread count, the output
    base, and input path strings (their content hashes enter separately), so
    a rerun to a new directory keeps its run_id.
    """
    drop = {"func", "command", "positionals"}
    if for_identity:
        drop |= {"threads", "out", "circuit", "config"}
    params = {k: v for k, v in vars(args).items()
              if k not in drop and v is not None}
    out = [args.command]
    out.extend(str(params.pop(key))
               for key in getattr(args, "positionals", ()) if key in params)
    for key, val in sorted(params.items()):
        vals = val if isinstance(val, list) else [val]
        out.extend(f"--{key.replace('_', '-')}={v}" for v in vals)
    return out


#: options whose value may begin with a minus sign
_SIGNED_VALUE_FLAGS = ("--term", "--theta")


def _attach_signed_values(argv: list) -> list:
    """Rewrite ``--term -1.0:IXXI`` as ``--term=-1.0:IXXI``.

    argparse takes a token that starts with ``-`` for an option unless the
    whole token looks like a negative number, so ``-1.0:IXXI``, ``-.5:ZIII``
    or ``-0.5,0.2`` would leave the flag without its value.  A value that
    starts with ``-`` and then a digit or a dot is joined to its flag before
    argparse sees it.
    """
    out = list(argv)
    for i in range(len(out) - 1, 0, -1):
        if out[i - 1] in _SIGNED_VALUE_FLAGS and re.match(r"-[\d.]", out[i]):
            out[i - 1:i + 1] = [f"{out[i - 1]}={out[i]}"]
    return out


class _Parser(argparse.ArgumentParser):
    """``ArgumentParser`` for a replayable CLI with signed option values.

    - Each positional's dest is appended, in declaration order, to the
      ``positionals`` default of its parser, which :func:`_reconstruct`
      reads to replay positionals as bare tokens.
    - Arguments pass through :func:`_attach_signed_values` before parsing.
    """

    def add_argument(self, *names, **kwargs):
        action = super().add_argument(*names, **kwargs)
        if not action.option_strings:
            known = self.get_default("positionals") or ()
            self.set_defaults(positionals=known + (action.dest,))
        return action

    def parse_known_args(self, args=None, namespace=None):
        if args is None:
            args = sys.argv[1:]
        return super().parse_known_args(_attach_signed_values(args),
                                        namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pqcdiag",
        description="Pauli-path diagnostics for noisy parameterized circuits")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("diagnose", help="run an estimator on a circuit file")
    d.add_argument("kind", choices=["mse", "sensitivity", "gradvar",
                                    "expressibility", "expressibility-lb"])
    d.add_argument("circuit", help="circuit bundle JSON")
    d.add_argument("-o", "--out", required=True,
                   help="output base path (suffixes are appended)")
    d.add_argument("--param", default="all",
                   help="gradvar target: index, 'all' or 'sum'")
    add_config_flags(d)
    d.set_defaults(func=cmd_diagnose)

    b = sub.add_parser("benchmark",
                       help="line-circuit variance convergence table")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--p", type=int, default=512, help="blocks (default 512)")
    b.add_argument("--samples", default="100,1000,10000",
                   help="comma-separated sample counts")
    b.add_argument("--trials", type=int, default=1)
    b.add_argument("--seed", type=int)
    b.add_argument("--threads", type=int)
    b.add_argument("-o", "--out", required=True)
    b.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("plan", help="Hoeffding sample counts for a target")
    p.add_argument("circuit", nargs="?",
                   help="circuit bundle (for the observable's weight)")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--pauli-l1", dest="pauli_l1", type=float,
                   help="observable coefficient l1-norm, if no file given")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_plan)

    t = sub.add_parser("bottleneck",
                       help="greedy noise-site interventions plus hotspot map")
    t.add_argument("circuit")
    t.add_argument("--budget", type=int, required=True,
                   help="number of sites to intervene on")
    t.add_argument("--target", type=float, default=0.0,
                   help="strength each chosen site is lowered to")
    t.add_argument("-o", "--out", required=True)
    add_config_flags(t)
    t.set_defaults(func=cmd_bottleneck)

    o = sub.add_parser("oracle",
                       help="exact small-circuit references (dense/grid)")
    o.add_argument("kind", choices=["mse", "gradvar", "moment2",
                                    "expectation"])
    o.add_argument("circuit")
    o.add_argument("--param-k", dest="param_k", type=int, default=0)
    o.add_argument("--theta",
                   help="comma-separated radians, negative ones allowed, "
                        "e.g. --theta -0.5,0.2 (expectation)")
    o.add_argument("-o", "--out", required=True)
    o.set_defaults(func=cmd_oracle)

    g = sub.add_parser("gen", help="write a circuit bundle")
    g.add_argument("family", choices=["ring", "chip", "line"])
    g.add_argument("--n", type=int, help="qubits (ring, line)")
    g.add_argument("--rows", type=int, help="grid rows (chip; default 3)")
    g.add_argument("--cols", type=int, help="grid columns (chip; default 3)")
    g.add_argument("--blocks", type=int, help="blocks (ring, chip; default 1)")
    g.add_argument("--p", type=int, help="blocks (line; default 8)")
    g.add_argument("--two-qubit", dest="two_qubit", choices=["rzz", "cz"],
                   help="entangler (chip; default rzz)")
    g.add_argument("--noise", help="dep:S, amp:S or none (ring, chip; "
                                   "default none)")
    g.add_argument("--noise-mode", dest="noise_mode",
                   choices=["gate", "qubit"],
                   help="noise per gate qubit or per qubit and layer (ring, "
                        "chip; default gate)")
    g.add_argument("--obs", help="single Pauli term, e.g. ZIIZ (ring, chip)")
    g.add_argument("--term", action="append",
                   help="COEFF:PAULIS, repeatable (overrides --obs); COEFF "
                        "may be negative, e.g. --term -1.0:IXXI (ring, chip)")
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # invalid input, CliError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 — the CLI boundary
        print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
