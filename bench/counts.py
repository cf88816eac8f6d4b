"""Work counts computed from a circuit's public description.

The batched walker compiles one step per gate op and one per noise site.
These counts stand in for a per-step-kind timing split until the engine
carries its own probe: multiplied by the lanes of each walk they give the
lane-steps of each kind a run performed (an upper bound, since a walk stops
early once every lane is dead).
"""

from __future__ import annotations

from pqcdiag.circuits import Rotation

KINDS = ("rot", "cliff", "chan", "branch")


def step_counts(circuit) -> dict:
    """Compiled steps by kind: rotations, Cliffords, diagonal (deterministic)
    channels and branching (sampled) channels."""
    rot = sum(isinstance(op, Rotation) for op in circuit.ops)
    branch = sum(not s.channel.diagonal for s in circuit.noise_sites)
    return {"rot": rot, "cliff": len(circuit.ops) - rot,
            "chan": len(circuit.noise_sites) - branch, "branch": branch}


def support_of(word) -> frozenset:
    """Qubits on which a PauliString acts non-trivially."""
    mask = word.x_bits | word.z_bits
    return frozenset(q for q in range(word.n) if (mask >> q) & 1)


def walked_supports(case) -> list:
    """Supports of the words a workload walks backward: its observable's
    terms, or the whole register for random words (expressibility)."""
    if case.obs is None:
        return [frozenset(range(case.circuit.n))]
    return [support_of(w) for _, w in case.obs.terms]


def cone_steps(circuit, support) -> int:
    """Compiled steps inside the backward light cone of a word on ``support``.

    Walking backward, an op or channel touching the live qubits is inside
    the cone and adds its qubits to them; a step touching none of them maps
    the word to itself (a trace-preserving channel maps the identity to
    itself with weight 1), so it lies outside.  This is the conservative cone
    of the union of supports.
    """
    sites_at: dict = {}
    for s in circuit.noise_sites:
        sites_at.setdefault(s.position, []).append(s)
    live = set(support)
    inside = 0
    for p in range(len(circuit.ops) - 1, -1, -1):
        steps = [set(s.channel.support) for s in reversed(sites_at.get(p, ()))]
        steps.append(set(circuit.ops[p].qubits))
        for qubits in steps:
            if qubits & live:
                inside += 1
                live |= qubits
    return inside


def cone_step_frac(circuit, supports) -> float:
    """Mean over the walked words of the share of steps inside their cone."""
    total = len(circuit.ops) + len(circuit.noise_sites)
    return sum(cone_steps(circuit, s) for s in supports) / (len(supports)
                                                            * total)
