"""Result containers: estimate reports, sensitivity maps, intervention plans.

Every container serializes to a plain JSON dict and back.  A "canonical
payload" is the same dict minus volatile fields (wall-clock time), dumped
with sorted keys — two runs with the same inputs and seed must produce the
same canonical payload byte for byte, whatever the thread count, and its
SHA-256 is what run manifests record.
"""

from __future__ import annotations

import hashlib
import io
import json
import numbers
from dataclasses import MISSING, dataclass, field, fields, replace

VOLATILE_FIELDS = ("wall_time_s",)


def exact_int(value, name: str) -> int:
    """``value`` as an ``int``, refusing (ValueError) a bool and any value
    ``int()`` would truncate, such as 40.9: counts, seeds and indices read
    from JSON are taken as written or not at all."""
    if isinstance(value, bool) or (
            isinstance(value, numbers.Real)
            and not isinstance(value, numbers.Integral)
            and not float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {value!r}") \
            from None


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def payload_digest(payload: dict) -> str:
    """SHA-256 over the canonical form with volatile fields removed."""
    trimmed = {k: v for k, v in payload.items() if k not in VOLATILE_FIELDS}
    return hashlib.sha256(canonical_json(trimmed).encode()).hexdigest()


class _JsonRecord:
    """JSON form derived from the dataclass fields, in field order.

    A class-level ``QUANTITY`` leads the dict as its ``quantity`` tag.
    Tuples become lists (and lists tuples again on the way back), a field
    named in ``ITEMS`` holds a list of that record type, and a field with a
    default is left out while it is empty.
    """

    QUANTITY = None
    ITEMS: dict = {}

    def to_json_dict(self) -> dict:
        out = {} if self.QUANTITY is None else {"quantity": self.QUANTITY}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.default_factory is not MISSING and not v:
                continue
            if f.name in self.ITEMS:
                v = [e.to_json_dict() for e in v]
            elif isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out

    @classmethod
    def from_json_dict(cls, d: dict):
        kw = {}
        for f in fields(cls):
            if f.name not in d:
                continue
            v = d[f.name]
            if f.name in cls.ITEMS:
                v = [cls.ITEMS[f.name].from_json_dict(e) for e in v]
            elif isinstance(v, list):
                v = tuple(v)
            elif isinstance(v, dict):
                v = dict(v)
            kw[f.name] = v
        return cls(**kw)

    def digest(self) -> str:
        return payload_digest(self.to_json_dict())


@dataclass
class DiagnosticConfig:
    """Sample budgets and seed for one estimator run.

    n_theta counts outer parameter draws, n_tau inner path replicates per
    draw, n_sigma Pauli-word draws (expressibility only).  epsilon/delta are
    optional accuracy targets that, when both are given, override the
    counts via the Hoeffding planner downstream; the expressibility
    estimators have no planner and refuse them.
    """

    n_theta: int = 1000
    n_tau: int = 16
    n_sigma: int = 64
    seed: int = 0
    threads: int = field(default=1, metadata={
        "help": "worker threads; a run is walked in jobs of up to 65536 "
                "lanes, so threads act only on runs longer than one job, "
                "and they never change results"})
    epsilon: "float | None" = field(default=None, metadata={
        "help": "additive error target; with --delta this overrides the "
                "sample counts via the planner"})
    delta: "float | None" = None

    def __post_init__(self) -> None:
        for name in ("n_theta", "n_tau", "n_sigma"):
            v = exact_int(getattr(self, name), name)
            if v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
            setattr(self, name, v)
        self.seed = exact_int(self.seed, "seed")
        self.threads = max(1, exact_int(self.threads, "threads"))
        for name in ("epsilon", "delta"):
            v = getattr(self, name)
            if v is not None and not 0.0 < float(v) < 1.0:
                raise ValueError(f"{name} must lie in (0,1), got {v}")

    def as_dict(self) -> dict:
        """Every field that is not None but ``threads``, an execution detail
        that never enters payloads (or digests)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "threads" and getattr(self, f.name) is not None}

    def replaced(self, **kw) -> "DiagnosticConfig":
        return replace(self, **{k: v for k, v in kw.items() if v is not None})


@dataclass
class EstimateReport(_JsonRecord):
    """One scalar diagnostic: mean +- stderr plus full sampling provenance.

    ``stats`` carries auxiliary consistency statistics the estimator wants
    on record (mean-gradient check, negative-estimate flag for quantities
    that are non-negative in exact arithmetic, ...).
    """

    quantity: str
    mean: float
    stderr: float
    n_theta: int
    n_tau: int
    n_sigma: int
    seed: int
    wall_time_s: float
    config: dict
    stats: dict = field(default_factory=dict)


@dataclass
class SiteGradient(_JsonRecord):
    """Sensitivity of the MSE to one noise site's strength parameter."""

    layer: int
    element: int
    qubits: tuple
    channel: str
    param: str
    gradient: float
    stderr: float


@dataclass
class SensitivityMap(_JsonRecord):
    """Per-site MSE gradients, one entry per noise site of the circuit."""

    QUANTITY = "sensitivity_map"
    ITEMS = {"entries": SiteGradient}

    entries: list
    n_theta: int
    n_tau: int
    seed: int
    wall_time_s: float
    config: dict

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("layer,element,qubits,gradient,stderr\n")
        for e in self.entries:
            qs = ";".join(str(q) for q in e.qubits)
            buf.write(f"{e.layer},{e.element},{qs},"
                      f"{e.gradient!r},{e.stderr!r}\n")
        return buf.getvalue()


@dataclass
class PlanStep(_JsonRecord):
    """One greedy intervention: a site's strength lowered to a new value."""

    layer: int
    element: int
    qubits: tuple
    channel: str
    param: str
    old_value: float
    new_value: float
    mse_after: float
    mse_stderr: float


@dataclass
class InterventionPlan(_JsonRecord):
    """Ordered bottleneck-first interventions with the measured MSE path."""

    QUANTITY = "intervention_plan"
    ITEMS = {"steps": PlanStep}

    baseline_mse: float
    baseline_stderr: float
    steps: list
    seed: int
    wall_time_s: float
    config: dict

    def __post_init__(self) -> None:
        for s in self.steps:
            if s.new_value > s.old_value + 1e-15:
                raise ValueError("interventions must not raise a site's "
                                 "noise strength")

    def trajectory_csv(self) -> str:
        """MSE after each intervention, step 0 being the untouched circuit."""
        buf = io.StringIO()
        buf.write("step,layer,element,qubits,param,new_value,mse,stderr\n")
        buf.write(f"0,,,,,,{self.baseline_mse!r},{self.baseline_stderr!r}\n")
        for i, s in enumerate(self.steps, start=1):
            qs = ";".join(str(q) for q in s.qubits)
            buf.write(f"{i},{s.layer},{s.element},{qs},{s.param},"
                      f"{s.new_value!r},{s.mse_after!r},{s.mse_stderr!r}\n")
        return buf.getvalue()
