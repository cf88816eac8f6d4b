"""Circuit model: gate sequences, noise sites, observables, initial states.

A circuit is a flat list of operations (Pauli-axis rotations and named
Clifford gates) with noise channels bound to positions *between* operations:
a :class:`NoiseSite` with ``position = p`` acts right after ``ops[p]``.
Several sites may share a position (e.g. one single-qubit channel per qubit
of a two-qubit gate); they apply in list order.

Rotation angles live on the quarter-turn grid: a :class:`ThetaAssignment`
holds one index k in {0,1,2,3} per free parameter, meaning theta = k*pi/2.
Everything here is declarative and immutable after build; the walk engines
compile their own flattened programs from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import PtmChannel, channel_from_spec, channel_to_spec, validate
from .paulis import (CLIFFORD_1Q_KINDS, CLIFFORD_2Q_KINDS, PauliString)

AngleIndex = int  # grid angle theta = k * pi/2, k in {0,1,2,3}

#: which constructor parameter plays the role of the tunable noise strength,
#: by channel kind (None = not a tunable-strength channel)
DEFAULT_NOISE_PARAM = {
    "depolarizing": "lambda",
    "amplitude_damping": "gamma",
    "thermal": "gamma",
}


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
    """exp(-i theta/2 * axis); param is a free-parameter index or FixedAngle."""

    axis: PauliString
    param: "int | FixedAngle"

    def __post_init__(self) -> None:
        if self.axis.is_identity():
            raise ValueError("rotation axis must be non-identity")

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


GateOp = "Rotation | Clifford"


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
    so estimators add it back at the end and never sample it).
    """

    terms: list
    identity_offset: float = 0.0
    pauli_l1: float = field(init=False)

    def __post_init__(self) -> None:
        self.pauli_l1 = float(sum(abs(c) for c, _ in self.terms))

    @property
    def n(self) -> int:
        return self.terms[0][1].n

    def linf_norm_bound(self) -> float:
        """Cheap upper bound on the spectral norm: sum |c_h| (+ offset)."""
        return self.pauli_l1 + abs(self.identity_offset)


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
    return ObservableSum(out, identity_offset=offset)


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
    """Grid angles, one AngleIndex per free circuit parameter."""

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


def shift_theta(t: ThetaAssignment, k: int, delta: int) -> ThetaAssignment:
    """Bump parameter k by delta quarter-turns (stays on the grid, mod 4)."""
    if not 0 <= k < len(t):
        raise IndexError(f"parameter index {k} out of range")
    if delta not in (-1, 1):
        raise ValueError("delta must be +1 or -1")
    v = t.values.copy()
    v[k] = (int(v[k]) + delta) % 4
    return ThetaAssignment(v)


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
            flags = validate(s.channel)
            if not flags["pcs1"]:
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

    def param_occurrences(self, k: int) -> list[int]:
        """Positions of rotations driven by parameter k."""
        return [i for i, op in enumerate(self.ops)
                if isinstance(op, Rotation) and op.param == k]

    def is_prs1(self) -> bool:
        """True when every noise channel also passes the row-sum test."""
        return all(validate(s.channel)["prs1"] for s in self.noise_sites)

    def all_depolarizing(self) -> bool:
        return all(s.channel.label == "depolarizing" for s in self.noise_sites)

    def branching(self) -> bool:
        """True when some noise channel is not diagonal, so that walks
        through the circuit sample branches (cached)."""
        cached = self.__dict__.get("_branching")
        if cached is None:
            cached = any(not s.channel.diagonal for s in self.noise_sites)
            self.__dict__["_branching"] = cached
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
        q = int(q)
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range")
        codes[q] = "IXYZ".index(ch.upper())
    return PauliString.from_codes(codes)


def _gate_from_spec(n: int, g: dict):
    kind = g["gate"]
    qubits = tuple(int(q) for q in g.get("qubits", ()))
    if kind in _SUGAR_AXES or kind == "rot":
        letters = _SUGAR_AXES.get(kind) or g["axis"]
        axis = _axis_on_register(n, letters, qubits)
        if "fixed" in g:
            return Rotation(axis, FixedAngle(int(g["fixed"])))
        return Rotation(axis, int(g["param"]))
    if kind in CLIFFORD_1Q_KINDS or kind in CLIFFORD_2Q_KINDS:
        return Clifford(kind, qubits)
    raise ValueError(f"unknown gate {kind!r}")


def build_circuit(spec: dict) -> Circuit:
    """Construct and validate a Circuit from its dict description."""
    n = int(spec["n"])
    ops = [_gate_from_spec(n, g) for g in spec.get("gates", ())]
    sites = []
    for s in spec.get("noise", ()):
        sites.append(NoiseSite(
            position=int(s["after"]),
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
            [(t["coeff"], t["pauli"]) for t in spec["observable"]],
            n=circuit.n)
        obs.identity_offset += float(spec.get("identity_offset", 0.0))
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


def structurally_equal(a: Circuit, b: Circuit) -> bool:
    """Field-by-field equality (PTMs compared numerically)."""
    if (a.n, a.n_params, len(a.ops), len(a.noise_sites)) != \
            (b.n, b.n_params, len(b.ops), len(b.noise_sites)):
        return False
    if a.ops != b.ops:
        return False
    for sa, sb in zip(a.noise_sites, b.noise_sites):
        if (sa.position, sa.site_id, sa.noise_param_name) != \
                (sb.position, sb.site_id, sb.noise_param_name):
            return False
        if sa.channel.support != sb.channel.support:
            return False
        if not np.array_equal(sa.channel.ptm, sb.channel.ptm):
            return False
    return True


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
    ops = []
    k = 0
    for _ in range(p):
        for q in range(n):
            ops.append(Rotation(_axis_on_register(n, "Z", (q,)), k))
            k += 1
        for q in range(n - 1):
            ops.append(Rotation(_axis_on_register(n, "XX", (q, q + 1)), k))
            k += 1
    circuit = Circuit(n, ops, [])
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


def _layered_circuit(n: int, edge_layers, blocks: int, two_qubit: str,
                     noise: "PtmChannel | None", noise_mode: str) -> Circuit:
    """Blocks of [R_X on every qubit, one ``two_qubit`` gate per edge of each
    edge layer, R_Z on every qubit].

    ``two_qubit`` is "cz" (fixed) or rotation letters such as "ZZ" (one
    parameter per gate).  Every gate layer, an empty one too, gets the next
    site-layer index.  ``noise_mode`` "gate" puts one single-qubit copy of
    ``noise`` on each gate qubit right after the gate, numbered by qubit
    within the layer; "qubit" puts one copy per qubit after each layer,
    numbered by qubit.
    """
    if noise_mode not in ("gate", "qubit"):
        raise ValueError(f"unknown noise_mode {noise_mode!r}")
    pname = DEFAULT_NOISE_PARAM.get(noise.label) if noise is not None else None
    singles = [(q,) for q in range(n)]
    block = [("X", singles), *((two_qubit, e) for e in edge_layers),
             ("Z", singles)]
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
    return _layered_circuit(rows * cols, grid_edge_layers(rows, cols), blocks,
                            "ZZ" if two_qubit == "rzz" else "cz", noise,
                            noise_mode)


def gen_ring(n: int, blocks: int, noise: "PtmChannel | None" = None,
             noise_mode: str = "gate") -> Circuit:
    """Ring ansatz: blocks of [R_X layer, CZ even edges, CZ odd edges, R_Z].

    The ring's edges two-color only for even n, hence the parity demand.
    """
    if n < 4 or n % 2:
        raise ValueError("ring size must be even and at least 4")
    edges = [(q, (q + 1) % n) for q in range(n)]
    return _layered_circuit(n, (edges[0::2], edges[1::2]), blocks, "cz",
                            noise, noise_mode)
