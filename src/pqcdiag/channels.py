"""Local noise channels as Pauli transfer matrices.

A channel on m <= 3 qubits is stored as its 4^m x 4^m transfer matrix over
the *normalized* local Pauli basis,

    S[i, j] = tr( E(sigma_i) sigma_j ),    sigma_i = P_i / 2^{m/2},

rows indexed by the input word, columns by the output component, both by
local word index on the support (:meth:`PauliString.local_index`:
support[0] in the lowest base-4 digit).

Observable back-propagation consumes *columns*: the adjoint action is
E^dag(P_s) = sum_tau S[tau, s] P_tau, so a walk standing on word s draws its
predecessor tau from column s.  A channel is "PCS1" when every column has
l1-norm at most 1, which caps every sampled weight at 1 and is what makes the
whole path estimator's variance bounded; circuits refuse channels that fail
it.  The row-wise analogue ("PRS1") plays the same role for forward walks
(expressibility); amplitude damping and thermal relaxation break it, the
Pauli-diagonal family and measurement channels keep it.

Trace preservation in this convention is a statement about the identity
*column*: S[:, I] = e_I (non-unital channels like amplitude damping have a
gamma in the identity *row* instead, which is fine).

Channels hold no sampling tables.  The walk engine samples every
channel, a diagonal one too, by |entry| / l1 over a column, and compiles
each PTM it meets into its tables once, keyed by the matrix's bytes
(``engine._branch_form``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .paulis import PauliString, commutes

_TOL = 1e-12


# ---------------------------------------------------------------------------
# channel container
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PtmChannel:
    """Immutable local channel: support qubits + dense PTM.

    Attributes
    ----------
    support : tuple[int, ...]
        Global qubit indices the channel acts on, support[0] least
        significant in local word indices.  At most 3 qubits.
    ptm : np.ndarray
        (4^m, 4^m) float64, normalized-Pauli-basis transfer matrix.
    label : str
        Human-readable kind, e.g. "depolarizing".
    params : dict
        The constructor parameters, for serialization and reports.

    ``diagonal`` says the PTM is diagonal, so that a walk through the
    channel never draws a branch.  ``flags`` holds the PCS1 / PRS1 /
    trace-preservation tests ("pcs1", "prs1", "tp") at tolerance 1e-12,
    fixed with the PTM; circuits read it to refuse non-PCS1 channels.
    """

    support: tuple[int, ...]
    ptm: np.ndarray
    label: str
    params: dict

    diagonal: bool = field(init=False)
    flags: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.support = _checked_support(self.support)
        m = len(self.support)
        ptm = np.array(self.ptm, dtype=np.float64)
        if ptm.shape != (4 ** m, 4 ** m):
            raise ValueError(f"PTM must be {4**m}x{4**m} for support {m}")
        ptm.setflags(write=False)
        self.ptm = ptm
        self.diagonal = bool(np.count_nonzero(ptm - np.diag(np.diag(ptm))) == 0)
        e_i = np.zeros(ptm.shape[0])
        e_i[0] = 1.0
        self.flags = {
            "pcs1": bool(np.abs(ptm).sum(axis=0).max() <= 1.0 + _TOL),
            "prs1": bool(np.abs(ptm).sum(axis=1).max() <= 1.0 + _TOL),
            "tp": bool(np.abs(ptm[:, 0] - e_i).max() <= _TOL),
        }

    @property
    def m(self) -> int:
        return len(self.support)

    def with_support(self, support) -> "PtmChannel":
        """Same channel, re-attached to other qubits of the same number.

        The copy shares this channel's validated PTM and flags, which do
        not depend on where the channel sits.
        """
        support = _checked_support(support)
        if len(support) != self.m:
            raise ValueError(f"channel acts on {self.m} qubit(s), got "
                             f"support {support}")
        out = copy.copy(self)
        out.support = support
        out.params = dict(self.params)
        return out


def _checked_support(support) -> tuple:
    support = tuple(int(q) for q in support)
    if not 1 <= len(support) <= 3:
        raise ValueError(f"channel support must be 1..3 qubits, got "
                         f"{len(support)}")
    if len(set(support)) != len(support):
        raise ValueError("repeated qubit in channel support")
    return support


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _check_unit(name: str, v: float) -> float:
    v = float(v)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return v


def make_depolarizing(lam: float, support=(0,)) -> PtmChannel:
    """Joint depolarizing on the support, rho -> (1-lam) rho + lam I/2^m.

    Every non-identity word is damped by the same factor, so one qubit gives
    the textbook single-qubit channel and a full register gives global
    depolarizing.
    """
    lam = _check_unit("lambda", lam)
    diag = np.full(4 ** len(tuple(support)), 1.0 - lam)
    diag[0] = 1.0
    return PtmChannel(support, np.diag(diag), "depolarizing", {"lambda": lam})


def _relaxation_ptm(gamma: float, lam: float) -> np.ndarray:
    """PTM of decay toward |0> with probability gamma plus extra dephasing
    lam; the one home of amplitude damping (lam = 0) and thermal noise."""
    c = math.sqrt(max(0.0, 1.0 - lam - gamma))
    ptm = np.zeros((4, 4))
    ptm[0, 0] = 1.0
    ptm[0, 3] = gamma       # identity row picks up gamma * Z (non-unital)
    ptm[1, 1] = c
    ptm[2, 2] = c
    ptm[3, 3] = 1.0 - gamma
    return ptm


def make_amplitude_damping(gamma: float, support=(0,)) -> PtmChannel:
    """Amplitude damping toward |0>, decay probability gamma."""
    gamma = _check_unit("gamma", gamma)
    return PtmChannel(support, _relaxation_ptm(gamma, 0.0),
                      "amplitude_damping", {"gamma": gamma})


def make_thermal(gamma: float, lam: float, support=(0,)) -> PtmChannel:
    """Thermal relaxation: amplitude damping (gamma) + extra dephasing (lam).

    Kraus form diag(1, sqrt(1-lam-gamma)), sqrt(gamma)|0><1|,
    sqrt(lam)|1><1|; gamma=0 is pure dephasing, lam=0 is amplitude damping.
    """
    gamma = _check_unit("gamma", gamma)
    lam = _check_unit("lambda", lam)
    if gamma + lam > 1.0 + _TOL:
        raise ValueError(f"need gamma + lambda <= 1, got {gamma + lam}")
    return PtmChannel(support, _relaxation_ptm(gamma, lam), "thermal",
                      {"gamma": gamma, "lambda": lam})


def thermal_from_times(t1: float, t2: float, t: float, support=(0,)
                       ) -> PtmChannel:
    """Thermal relaxation from device times: gamma = 1 - e^{-t/T1} and the
    dephasing weight chosen so coherences decay as e^{-t/T2}.

    Physical only for T2 <= 2 T1 (otherwise the dephasing weight would be
    negative and the map non-positive).
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("T1 and T2 must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    if t2 > 2.0 * t1 + _TOL:
        raise ValueError(f"unphysical pair T2={t2} > 2*T1={2*t1}")
    gamma = 1.0 - math.exp(-t / t1)
    lam = math.exp(-t / t1) - math.exp(-2.0 * t / t2)
    lam = max(0.0, lam)  # T2 == 2*T1 exactly, up to rounding
    ch = make_thermal(gamma, lam, support)
    ch.params.update({"t1": float(t1), "t2": float(t2), "t": float(t)})
    return ch


def make_pauli_channel(probs: dict, support=(0,)) -> PtmChannel:
    """Pauli error channel rho -> sum_i p_i P_i rho P_i.

    ``probs`` maps Pauli label strings ("I", "X", "XY", ...) to
    probabilities; labels fix the local qubit count.  The PTM is diagonal
    with entry sum_i (-1)^{[s anticommutes with P_i]} p_i at word s.
    """
    if not probs:
        raise ValueError("empty probability map")
    labels = list(probs)
    m = len(labels[0])
    if any(len(lbl) != m for lbl in labels):
        raise ValueError("all Pauli labels must have the same length")
    ps = np.array([float(probs[lbl]) for lbl in labels])
    if np.any(ps < -_TOL):
        raise ValueError("negative probability")
    if abs(ps.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {ps.sum()}, need 1")
    words = [PauliString.from_text(lbl) for lbl in labels]
    d = 4 ** m
    diag = np.zeros(d)
    for s_idx in range(d):
        s = PauliString.from_local(s_idx, m)
        acc = 0.0
        for p_i, w in zip(ps, words):
            acc += p_i if commutes(s, w) else -p_i
        diag[s_idx] = acc
    return PtmChannel(support, np.diag(diag), "pauli",
                      {"probs": {lbl: float(probs[lbl]) for lbl in labels}})


def make_mmff(feedback: str, support=(0,)) -> PtmChannel:
    """Mid-circuit measurement with Pauli feed-forward.

    The first support qubit is measured in the computational basis and reset
    to I/2; on outcome 1 the Pauli ``feedback`` is applied to the remaining
    support qubits ("I...I" = plain measure-and-reset).  The resulting map
    keeps at most one +1 entry per PTM column: columns whose measured-qubit
    part is not identity are zero, and column I(x)s maps back to I(x)s when
    the feedback commutes with s, to Z(x)s when it anticommutes.
    """
    fb = feedback.upper()
    n_targets = len(fb)
    m = 1 + n_targets
    if m != len(support):
        raise ValueError(f"feedback on {n_targets} target(s) needs support of "
                         f"{m} qubit(s), got {len(support)}")
    if m > 3:
        raise ValueError("measured qubit + feedback targets capped at 3")
    p_word = PauliString.from_text(fb) if n_targets else None
    d = 4 ** m
    ptm = np.zeros((d, d))
    for s_idx in range(4 ** n_targets):
        col = s_idx << 2                      # measured-qubit code I
        flip = bool(n_targets) and not commutes(
            p_word, PauliString.from_local(s_idx, n_targets))
        row = col | (3 if flip else 0)        # I(x)s or Z(x)s
        ptm[row, col] = 1.0
    return PtmChannel(support, ptm, "mmff", {"feedback": fb})


def make_raw_ptm(matrix, support, label: str = "ptm",
                 params: dict | None = None) -> PtmChannel:
    """Wrap a user-supplied PTM (validated at circuit-build time)."""
    return PtmChannel(tuple(support), np.asarray(matrix, dtype=float),
                      label, dict(params or {}))


#: kind -> (constructor, strength parameters in argument order) of each
#: channel kind whose strength can be set; generated sites track the first
TUNABLE_KINDS = {
    "depolarizing": (make_depolarizing, ("lambda",)),
    "amplitude_damping": (make_amplitude_damping, ("gamma",)),
    "thermal": (make_thermal, ("gamma", "lambda")),
}


def strength_params(kind: str) -> tuple:
    """The strength parameters of channel kind ``kind``, if it has any."""
    return TUNABLE_KINDS.get(kind, (None, ()))[1]


def _check_tunable(channel: PtmChannel, name: str) -> None:
    if name not in strength_params(channel.label):
        raise ValueError(f"channel {channel.label!r} has no tunable "
                         f"parameter {name!r}")


def rebuild_with(channel: PtmChannel, name: str, value: float) -> PtmChannel:
    """Same channel kind and support with scalar parameter ``name`` moved.

    This is what intervention planning uses to set a site's strength;
    channels without a named strength (pauli, mmff, raw ptm) are rejected.
    """
    _check_tunable(channel, name)
    make, names = TUNABLE_KINDS[channel.label]
    return make(*(value if p == name else channel.params[p] for p in names),
                channel.support)


def ptm_derivative(channel: PtmChannel, name: str) -> np.ndarray:
    """d PTM / d ``name`` in closed form, for the pairs :func:`rebuild_with`
    accepts.  The coherence sqrt(1 - gamma - lambda) has an unbounded
    derivative at gamma + lambda = 1, so such a channel is rejected."""
    _check_tunable(channel, name)
    if channel.label == "depolarizing":
        return np.diag(np.r_[0.0, np.full(len(channel.ptm) - 1, -1.0)])
    c = channel.ptm[1, 1]  # sqrt(1 - gamma - lambda)
    if c == 0.0:
        raise ValueError(f"{channel.label} at gamma + lambda = 1 has no "
                         "derivative")
    g = float(name == "gamma")
    return np.array([[0.0, 0.0, 0.0, g], [0.0, -0.5 / c, 0.0, 0.0],
                     [0.0, 0.0, -0.5 / c, 0.0], [0.0, 0.0, 0.0, -g]])


# ---------------------------------------------------------------------------
# JSON channel specs
# ---------------------------------------------------------------------------

def channel_to_spec(channel: PtmChannel) -> dict:
    """JSON-ready dict; inverse of :func:`channel_from_spec`."""
    out: dict = {"kind": channel.label, "support": list(channel.support)}
    if channel.label == "ptm":
        out["matrix"] = channel.ptm.tolist()
        out["params"] = dict(channel.params)
    else:
        out.update(channel.params)
    return out


def channel_from_spec(spec: dict) -> PtmChannel:
    """Build a channel from its JSON dict form."""
    d = dict(spec)
    kind = d.pop("kind")
    support = tuple(d.pop("support", (0,)))
    if kind == "thermal" and "t1" in d:
        return thermal_from_times(d["t1"], d["t2"], d["t"], support)
    if kind in TUNABLE_KINDS:
        make, names = TUNABLE_KINDS[kind]
        return make(*(d[p] for p in names), support)
    if kind == "pauli":
        return make_pauli_channel(d["probs"], support)
    if kind == "mmff":
        return make_mmff(d["feedback"], support)
    if kind == "ptm":
        return make_raw_ptm(d["matrix"], support, params=d.get("params"))
    raise ValueError(f"unknown channel kind {kind!r}")
