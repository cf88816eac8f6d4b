"""Circuit model: gate sequences, noise sites, observables, initial states.

A circuit is a flat list of operations (Pauli-axis rotations and named
Clifford gates) with noise channels bound to positions *between* operations:
a :class:`NoiseSite` with ``position = p`` acts right after ``ops[p]``.
Several sites may share a position (e.g. one single-qubit channel per qubit
of a two-qubit gate); they apply in list order.

Rotation angles live on the quarter-turn grid: a :class:`ThetaAssignment`
holds one index k in {0,1,2,3} per free parameter, meaning theta = k*pi/2.
Everything here is declarative and immutable after build.
:meth:`Circuit.schedule` is the one definition of the order in which ops and
sites act; the walk engine compiles its programs from it, and the dense and
grid oracles evolve along it.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .channels import (TUNABLE_KINDS, PtmChannel, channel_from_spec,
                       channel_to_spec)
from .paulis import (CLIFFORD_1Q_KINDS, CLIFFORD_2Q_KINDS, PauliString)
from .reports import exact_int

#: the strength a generated noise site tracks, by kind (others track none)
DEFAULT_NOISE_PARAM = {k: names[0] for k, (_, names) in TUNABLE_KINDS.items()}


# ---------------------------------------------------------------------------
# ops and containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedAngle:
    """A frozen (non-trainable) grid angle on a rotation."""

    k: int

    def __post_init__(self) -> None:
        if self.k not in (0, 1, 2, 3):
            raise ValueError("fixed angle index must be in {0,1,2,3}")


@dataclass(frozen=True)
class Rotation:
    """exp(-i theta/2 * axis); param is a free-parameter index or FixedAngle.

    Any integral index (numpy integers too) is stored as ``int``; a bool, a
    float or anything else is a TypeError.
    """

    axis: PauliString
    param: "int | FixedAngle"

    def __post_init__(self) -> None:
        if self.axis.is_identity():
            raise ValueError("rotation axis must be non-identity")
        p = self.param
        if type(p) is not int and not isinstance(p, FixedAngle):
            if isinstance(p, bool) or not isinstance(p, numbers.Integral):
                raise TypeError("rotation param must be an integer index or "
                                f"a FixedAngle, got {p!r}")
            object.__setattr__(self, "param", int(p))

    @property
    def qubits(self) -> tuple[int, ...]:
        mask = self.axis.x_bits | self.axis.z_bits
        return tuple(j for j in range(self.axis.n) if (mask >> j) & 1)


@dataclass(frozen=True)
class Clifford:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        want = 1 if self.kind in CLIFFORD_1Q_KINDS else \
            2 if self.kind in CLIFFORD_2Q_KINDS else None
        if want is None:
            raise ValueError(f"unknown clifford kind {self.kind!r}")
        if len(self.qubits) != want:
            raise ValueError(f"{self.kind} takes {want} qubit(s)")


@dataclass(frozen=True, eq=False)
class NoiseSite:
    """A channel bound to the slot right after ``ops[position]``.

    ``site_id`` is a (layer, element) label used in sensitivity reports;
    ``noise_param_name`` names which channel parameter is the strength that
    sensitivity analysis differentiates against (None = untracked).
    """

    position: int
    channel: PtmChannel
    site_id: tuple[int, int]
    noise_param_name: "str | None"


@dataclass
class ObservableSum:
    """O = sum_h c_h P_h with real coefficients, identity part split off.

    Duplicate words are merged at build time and any identity component is
    moved into ``identity_offset`` (its expectation is exactly that constant,
    so estimators add it back at the end and never sample it).  ``n`` is the
    register size, which an identity-only sum has no term to carry.
    """

    terms: list
    n: int
    identity_offset: float = 0.0
    pauli_l1: float = field(init=False)

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, [self.identity_offset]
                       + [c for c, _ in self.terms])):
            raise ValueError("observable coefficients and identity offset "
                             "must be finite")
        self.pauli_l1 = float(sum(abs(c) for c, _ in self.terms))


def observable_from_terms(terms, n: "int | None" = None) -> ObservableSum:
    """Merge duplicates, strip the identity component into the offset.

    ``terms`` is an iterable of (coeff, PauliString) or (coeff, label-string)
    pairs; ``n`` is only needed when all labels are identity.  Complex
    coefficients are accepted only with a zero imaginary part (ValueError
    otherwise).
    """
    merged: dict[PauliString, float] = {}
    offset = 0.0
    for coeff, word in terms:
        if isinstance(coeff, (complex, np.complexfloating)):
            if coeff.imag != 0:
                raise ValueError(f"coefficients must be real, got {coeff!r}")
            coeff = coeff.real
        c = float(coeff)
        if isinstance(word, str):
            word = PauliString.from_text(word)
        if n is None:
            n = word.n
        elif word.n != n:
            raise ValueError("observable terms on different register sizes")
        if word.is_identity():
            offset += c
        else:
            merged[word] = merged.get(word, 0.0) + c
    out = [(c, w) for w, c in merged.items() if c != 0.0]
    if not out and n is None:
        raise ValueError("cannot infer qubit count from an identity-only sum")
    return ObservableSum(out, n, identity_offset=offset)


@dataclass
class SparseState:
    """Density operator as a short list of (row, col, amplitude) entries."""

    n: int
    entries: list

    def __post_init__(self) -> None:
        ent = [(int(r), int(c), complex(a)) for r, c, a in self.entries]
        dim = 1 << self.n
        lookup = {}
        tr = 0.0 + 0.0j
        for r, c, a in ent:
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError("basis index out of range")
            if not cmath.isfinite(a):
                raise ValueError(f"state amplitude at ({r}, {c}) is {a}")
            if (r, c) in lookup:
                raise ValueError(f"duplicate entry at ({r}, {c})")
            lookup[(r, c)] = a
            if r == c:
                tr += a
        for (r, c), a in lookup.items():
            if abs(lookup.get((c, r), 0.0) - a.conjugate()) > 1e-12:
                raise ValueError("state entries are not Hermitian")
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"state trace is {tr}, need 1")
        self.entries = ent


def zero_state(n: int) -> SparseState:
    return SparseState(n, [(0, 0, 1.0)])


@dataclass
class ThetaAssignment:
    """Grid angles: one index k in {0,1,2,3} (theta = k*pi/2) per free
    circuit parameter."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.uint8)
        if v.ndim != 1:
            raise ValueError("theta must be a flat vector")
        if v.size and v.max() > 3:
            raise ValueError("angle indices must be in {0,1,2,3}")
        self.values = v

    @classmethod
    def zeros(cls, n_params: int) -> "ThetaAssignment":
        return cls(np.zeros(n_params, dtype=np.uint8))

    def __len__(self) -> int:
        return int(self.values.size)

    def as_radians(self) -> np.ndarray:
        return self.values.astype(np.float64) * (np.pi / 2.0)


# ---------------------------------------------------------------------------
# the circuit itself
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Circuit:
    """Validated gate list + noise sites; immutable once built."""

    n: int
    ops: list
    noise_sites: list
    n_params: int = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one qubit")
        params = set()
        for op in self.ops:
            if isinstance(op, Rotation):
                if op.axis.n != self.n:
                    raise ValueError("rotation axis register size mismatch")
                if isinstance(op.param, int):
                    params.add(op.param)
            elif isinstance(op, Clifford):
                if any(not 0 <= q < self.n for q in op.qubits):
                    raise ValueError("clifford qubit index out of range")
            else:
                raise TypeError(f"not a gate op: {op!r}")
        n_params = (max(params) + 1) if params else 0
        if params and params != set(range(n_params)):
            missing = sorted(set(range(n_params)) - params)
            raise ValueError(f"parameter indices must be contiguous from 0; "
                             f"missing {missing}")
        self.n_params = n_params

        sites = sorted(self.noise_sites, key=lambda s: s.position)
        for s in sites:
            if not 0 <= s.position < len(self.ops):
                raise ValueError(
                    f"noise site {s.site_id} at position {s.position} is out "
                    f"of range: a site acts after one of the circuit's "
                    f"{len(self.ops)} op(s)")
            if any(not 0 <= q < self.n for q in s.channel.support):
                raise ValueError("noise channel qubit out of range")
            if not s.channel.flags["pcs1"]:
                raise ValueError(
                    f"channel {s.channel.label!r} at site {s.site_id} is not "
                    f"PCS1; refusing to build (estimator bounds rely on it)")
        self.noise_sites = sites

    # -- small conveniences -------------------------------------------------

    def check_theta(self, t: ThetaAssignment) -> ThetaAssignment:
        if len(t) != self.n_params:
            raise ValueError(f"theta has {len(t)} entries, circuit has "
                             f"{self.n_params} parameters")
        return t

    def check_observable(self, obs: ObservableSum) -> None:
        if obs.n != self.n:
            raise ValueError(f"observable acts on {obs.n} qubits, circuit "
                             f"has {self.n}")

    def param_occurrences(self, k: int) -> list[int]:
        """Positions of rotations driven by parameter k."""
        return [i for i, op in enumerate(self.ops)
                if isinstance(op, Rotation) and op.param == k]

    def is_prs1(self) -> bool:
        """True when every noise channel also passes the row-sum test."""
        return all(s.channel.flags["prs1"] for s in self.noise_sites)

    def branching(self) -> bool:
        """True when some noise channel is not diagonal, so that walks
        through the circuit sample branches (cached)."""
        cached = self.__dict__.get("_branching")
        if cached is None:
            cached = any(not s.channel.diagonal for s in self.noise_sites)
            self.__dict__["_branching"] = cached
        return cached

    def schedule(self) -> tuple:
        """The ops and noise sites in the order they act (cached): each op,
        then the sites bound after it, in list order.  Sites come in
        ``noise_sites`` order, so the k-th site here is noise site k.  A
        backward walk runs the reverse."""
        cached = self.__dict__.get("_schedule")
        if cached is None:
            after: dict[int, list] = {}
            for s in self.noise_sites:
                after.setdefault(s.position, []).append(s)
            cached = tuple(item for p, op in enumerate(self.ops)
                           for item in (op, *after.get(p, ())))
            self.__dict__["_schedule"] = cached
        return cached

    def without_noise(self) -> "Circuit":
        """Noiseless copy (cached; self when already noiseless)."""
        cached = self.__dict__.get("_clean")
        if cached is None:
            cached = self if not self.noise_sites else \
                Circuit(self.n, self.ops, [])
            self.__dict__["_clean"] = cached
        return cached

    def with_sites(self, sites) -> "Circuit":
        """Same gates, different noise sites."""
        return Circuit(self.n, self.ops, list(sites))


# ---------------------------------------------------------------------------
# building from JSON-style descriptions
# ---------------------------------------------------------------------------

_SUGAR_AXES = {"rx": "X", "ry": "Y", "rz": "Z", "rxx": "XX", "rzz": "ZZ"}


def _axis_on_register(n: int, letters: str, qubits) -> PauliString:
    if len(letters) != len(qubits):
        raise ValueError(f"axis {letters!r} does not match {len(qubits)} "
                         "qubit(s)")
    codes = [0] * n
    for ch, q in zip(letters, qubits):
        q = exact_int(q, "qubit")
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range")
        codes[q] = "IXYZ".index(ch.upper())
    return PauliString.from_codes(codes)


def _gate_from_spec(n: int, g: dict):
    kind = g["gate"]
    qubits = tuple(exact_int(q, "qubit") for q in g.get("qubits", ()))
    if kind in _SUGAR_AXES or kind == "rot":
        letters = _SUGAR_AXES.get(kind) or g["axis"]
        axis = _axis_on_register(n, letters, qubits)
        if "fixed" in g:
            return Rotation(axis, FixedAngle(exact_int(g["fixed"], "fixed")))
        return Rotation(axis, g["param"])
    if kind in CLIFFORD_1Q_KINDS or kind in CLIFFORD_2Q_KINDS:
        return Clifford(kind, qubits)
    raise ValueError(f"unknown gate {kind!r}")


def build_circuit(spec: dict) -> Circuit:
    """Construct and validate a Circuit from its dict description."""
    n = exact_int(spec["n"], "n")
    ops = [_gate_from_spec(n, g) for g in spec.get("gates", ())]
    sites = []
    for s in spec.get("noise", ()):
        sites.append(NoiseSite(
            position=exact_int(s["after"], "after"),
            channel=channel_from_spec(s["channel"]),
            site_id=tuple(s.get("site_id", (0, len(sites)))),
            noise_param_name=s.get("noise_param"),
        ))
    return Circuit(n, ops, sites)


def serialize(circuit: Circuit, observable: "ObservableSum | None" = None,
              initial_state: "SparseState | None" = None) -> dict:
    """Dict form of a circuit (inverse of build_circuit), format version 1."""
    gates = []
    for op in circuit.ops:
        if isinstance(op, Rotation):
            qs = op.qubits
            g = {"gate": "rot",
                 "axis": "".join("IXYZ"[op.axis.code_at(q)] for q in qs),
                 "qubits": list(qs)}
            if isinstance(op.param, FixedAngle):
                g["fixed"] = op.param.k
            else:
                g["param"] = op.param
        else:
            g = {"gate": op.kind, "qubits": list(op.qubits)}
        gates.append(g)
    noise = [{"after": s.position,
              "site_id": list(s.site_id),
              "noise_param": s.noise_param_name,
              "channel": channel_to_spec(s.channel)}
             for s in circuit.noise_sites]
    out = {"format": 1, "n": circuit.n, "gates": gates, "noise": noise}
    if observable is not None:
        out["observable"] = [{"coeff": c, "pauli": w.to_text()[1:]}
                             for c, w in observable.terms]
        out["identity_offset"] = observable.identity_offset
    if initial_state is not None:
        if initial_state.entries == [(0, 0, (1 + 0j))]:
            out["initial_state"] = "zero"
        else:
            out["initial_state"] = [[r, c, a.real, a.imag]
                                    for r, c, a in initial_state.entries]
    return out


def load_bundle(spec: dict):
    """(circuit, observable or None, state or None) from a circuit file dict."""
    fmt = spec.get("format", 1)
    if fmt != 1:
        raise ValueError(f"unsupported circuit file format {fmt}")
    circuit = build_circuit(spec)
    obs = None
    if "observable" in spec:
        obs = observable_from_terms(
            [(t["coeff"], t["pauli"]) for t in spec["observable"]]
            + [(spec.get("identity_offset", 0.0), "I" * circuit.n)],
            n=circuit.n)
    state = None
    if "initial_state" in spec:
        raw = spec["initial_state"]
        if raw == "zero":
            state = zero_state(circuit.n)
        else:
            state = SparseState(
                circuit.n,
                [(int(r), int(c), complex(re, im)) for r, c, re, im in raw])
    return circuit, obs, state


# ---------------------------------------------------------------------------
# builtin generators
# ---------------------------------------------------------------------------

def gen_line_benchmark(n: int, p: int):
    """Nearest-neighbour benchmark chain, noiseless.

    Each block is one R_Z per qubit followed by R_XX on every chain edge;
    measured observable X_q X_{q+1} + Z_q at the middle qubit q = n//2,
    initial state |0...0>.  Free parameter count is p*(2n-1).
    """
    if n < 3 or p < 1:
        raise ValueError("need n >= 3 qubits (the middle qubit must have a "
                         "right neighbour) and p >= 1 blocks")
    circuit = _layered_circuit(n, [("Z", [(q,) for q in range(n)]),
                                   ("XX", [(q, q + 1) for q in range(n - 1)])],
                               p, None, "gate")
    q = n // 2
    obs = observable_from_terms([
        (1.0, _axis_on_register(n, "XX", (q, q + 1))),
        (1.0, _axis_on_register(n, "Z", (q,))),
    ])
    return circuit, obs, zero_state(n)


def grid_edge_layers(rows: int, cols: int):
    """Three disjoint matchings on a rows x cols lattice (brick-wall style).

    Layers 0/1 take the horizontal edges with even/odd left-column index;
    layer 2 takes the vertical matching that picks edge ((r,c),(r+1,c))
    when r+c is even.  Every vertex appears at most once per layer.
    """
    def q(r, c):
        return r * cols + c

    layers = [[], [], []]
    for r in range(rows):
        for c in range(cols - 1):
            layers[c % 2].append((q(r, c), q(r, c + 1)))
    for r in range(rows - 1):
        for c in range(cols):
            if (r + c) % 2 == 0:
                layers[2].append((q(r, c), q(r + 1, c)))
    return layers


def _layered_circuit(n: int, block, blocks: int,
                     noise: "PtmChannel | None", noise_mode: str) -> Circuit:
    """``blocks`` repeats of ``block``, a list of (gate, targets) layers.

    ``gate`` is "cz" (fixed) or rotation letters such as "ZZ" (one parameter
    per gate), applied to each qubit tuple of ``targets``.  Every gate
    layer, an empty one too, gets the next site-layer index.  ``noise_mode``
    "gate" puts one single-qubit copy of ``noise`` on each gate qubit right
    after the gate, numbered by qubit within the layer; "qubit" puts one
    copy per qubit after each layer, numbered by qubit.
    """
    if blocks < 1:
        raise ValueError(f"need blocks >= 1, got {blocks}")
    if noise_mode not in ("gate", "qubit"):
        raise ValueError(f"unknown noise_mode {noise_mode!r}")
    pname = DEFAULT_NOISE_PARAM.get(noise.label) if noise is not None else None
    ops: list = []
    sites: list = []
    k = 0
    for layer, (gate, targets) in enumerate(block * blocks):
        element = 0
        for qubits in targets:
            if gate == "cz":
                ops.append(Clifford("cz", qubits))
            else:
                ops.append(Rotation(_axis_on_register(n, gate, qubits), k))
                k += 1
            if noise is not None and noise_mode == "gate":
                for q in qubits:
                    sites.append(NoiseSite(len(ops) - 1,
                                           noise.with_support((q,)),
                                           (layer, element), pname))
                    element += 1
        if noise is not None and noise_mode == "qubit":
            sites.extend(NoiseSite(len(ops) - 1, noise.with_support((q,)),
                                   (layer, q), pname) for q in range(n))
    return Circuit(n, ops, sites)


def gen_grid_chip(rows: int, cols: int, blocks: int, two_qubit: str = "rzz",
                  noise: "PtmChannel | None" = None,
                  noise_mode: str = "gate") -> Circuit:
    """Grid-lattice chip: blocks of [R_X, three 2q layers, R_Z].

    ``two_qubit`` picks the entangler ("rzz" parameterized or "cz" fixed);
    ``noise_mode`` "gate" attaches one copy of ``noise`` per gate qubit after
    each gate, "qubit" attaches one copy per qubit after each layer.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2x2")
    if two_qubit not in ("rzz", "cz"):
        raise ValueError(f"two_qubit must be 'rzz' or 'cz', got {two_qubit!r}")
    singles = [(q,) for q in range(rows * cols)]
    block = [("X", singles),
             *(("ZZ" if two_qubit == "rzz" else "cz", e)
               for e in grid_edge_layers(rows, cols)), ("Z", singles)]
    return _layered_circuit(rows * cols, block, blocks, noise, noise_mode)


def gen_ring(n: int, blocks: int, noise: "PtmChannel | None" = None,
             noise_mode: str = "gate") -> Circuit:
    """Ring ansatz: blocks of [R_X layer, CZ even edges, CZ odd edges, R_Z].

    The ring's edges two-color only for even n, hence the parity demand.
    """
    if n < 4 or n % 2:
        raise ValueError("ring size must be even and at least 4")
    singles = [(q,) for q in range(n)]
    edges = [(q, (q + 1) % n) for q in range(n)]
    block = [("X", singles), ("cz", edges[0::2]), ("cz", edges[1::2]),
             ("Z", singles)]
    return _layered_circuit(n, block, blocks, noise, noise_mode)
