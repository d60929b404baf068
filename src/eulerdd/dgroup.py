"""Decoupling-group machinery on the single-qubit Pauli group.

A decoupling sequence is robust to finite pulse width when its
cumulative propagators walk an Eulerian cycle on the Cayley graph of
the decoupling group: every generator edge is exercised from every
vertex, so pulse-interior errors average out along with the idle-time
errors.  This module builds the graph, finds Eulerian cycles
(Hierholzer's algorithm with deterministic tie-breaking), and checks
pulse words against both the strict Eulerian condition and the weaker
zeroth-order averaging condition.

Conventions
-----------
Vertices and edges live in label space, i.e. group elements are
compared up to a global phase, and an edge from ``v`` through
generator ``h`` ends at the class of ``v @ h``.  Cumulative paths keep
full phases and multiply on the left, ``g_l = p_l @ g_{l-1}``, which is
the time ordering of the physical propagators; for the (projectively
abelian) Pauli group both conventions trace the same labeled walk.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .su2core import pauli, phase_equal

__all__ = [
    "NotClosed",
    "EmptyGenerators",
    "Disconnected",
    "GroupElement",
    "CayleyGraph",
    "PulseWord",
    "EulerianCheck",
    "pauli_group",
    "pauli_element",
    "generated_group",
    "build_cayley",
    "eulerian_cycle",
    "cumulative_path",
    "verify_eulerian",
    "verify_average_decoupling",
]


class NotClosed(ValueError):
    """A product of group elements left the declared vertex set."""


class EmptyGenerators(ValueError):
    """A Cayley graph needs at least one generator."""


class Disconnected(ValueError):
    """The generator set does not connect the vertex set."""


@dataclass(frozen=True)
class GroupElement:
    """A group element: full-phase unitary plus its canonical label.

    The label is the canonical name among I, X, Y, Z (or any declared
    vertex label) identifying the element up to a global phase.
    """

    unitary: np.ndarray
    label: str

    def __post_init__(self) -> None:
        u = np.asarray(self.unitary, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError("GroupElement unitary must be 2x2")
        if np.max(np.abs(u @ u.conj().T - np.eye(2))) > 1e-12:
            raise ValueError(f"GroupElement {self.label!r} is not unitary to 1e-12")
        u.flags.writeable = False
        object.__setattr__(self, "unitary", u)


@dataclass(frozen=True)
class CayleyGraph:
    """Cayley graph of a group under a generator list.

    edges holds directed (vertex_label, generator_label, target_label)
    triples; there are exactly |vertices| x |generators| of them.
    """

    vertices: tuple[GroupElement, ...]
    generators: tuple[GroupElement, ...]
    edges: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class PulseWord:
    """An ordered word of generator labels, e.g. (X, Y, X, Y, Y, X, Y, X)."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.letters) == 0:
            raise ValueError("PulseWord must be non-empty")
        object.__setattr__(self, "letters", tuple(self.letters))

    def __len__(self) -> int:
        return len(self.letters)


def pauli_element(label: str) -> GroupElement:
    """GroupElement for a plain Pauli matrix (phase +1)."""
    return GroupElement(pauli(label), label)


def pauli_group() -> list[GroupElement]:
    """The projective Pauli group {I, X, Y, Z} with phase-+1 representatives."""
    return [pauli_element(lab) for lab in ("I", "X", "Y", "Z")]


def _classify(u: np.ndarray, vertices: tuple[GroupElement, ...]) -> str | None:
    """Label of the vertex equal to ``u`` up to global phase, else None."""
    for v in vertices:
        if phase_equal(u, v.unitary):
            return v.label
    return None


def generated_group(generators: list[GroupElement]) -> list[GroupElement]:
    """Projective closure of Pauli generators, starting from the identity.

    Returns phase-+1 representatives in canonical I, X, Y, Z order;
    e.g. generators [Y] give [I, Y] while [X, Y] give the full group.
    """
    if not generators:
        raise EmptyGenerators("need at least one generator")
    classes = tuple(pauli_group())
    found = {"I"}
    frontier = ["I"]
    while frontier:
        label = frontier.pop()
        for g in generators:
            target = _classify(pauli(label) @ g.unitary, classes)
            if target is None:
                raise NotClosed(f"product {label} @ {g.label} leaves the Pauli classes")
            if target not in found:
                found.add(target)
                frontier.append(target)
    return [pauli_element(lab) for lab in ("I", "X", "Y", "Z") if lab in found]


def build_cayley(group: list[GroupElement], generators: list[GroupElement]) -> CayleyGraph:
    """Build the Cayley graph of ``group`` under ``generators``.

    Closure of the vertex set is verified by exhaustive multiplication;
    generator products must land inside the vertex set up to a global
    phase.

    Raises
    ------
    EmptyGenerators
        If ``generators`` is empty.
    NotClosed
        If any product of vertices (or of a vertex with a generator)
        leaves the vertex set.
    """
    if len(generators) == 0:
        raise EmptyGenerators("at least one generator is required")
    vertices = tuple(group)
    labels = [v.label for v in vertices]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate vertex labels: {labels}")
    for a in vertices:
        for b in vertices:
            if _classify(a.unitary @ b.unitary, vertices) is None:
                raise NotClosed(f"product {a.label}*{b.label} leaves the group")
    gens = tuple(generators)
    for g in gens:
        if _classify(g.unitary, vertices) is None:
            raise NotClosed(f"generator {g.label} is not in the group (up to phase)")
    # Closure and the generators' membership put every edge target in the group.
    edges = tuple((v.label, g.label, _classify(v.unitary @ g.unitary, vertices))
                  for v in vertices for g in gens)
    return CayleyGraph(vertices=vertices, generators=gens, edges=edges)


def eulerian_cycle(graph: CayleyGraph, start: GroupElement) -> PulseWord:
    """Eulerian cycle through ``graph`` from ``start``, as a pulse word.

    Uses Hierholzer's algorithm; at each vertex the lowest-indexed
    unused generator is taken, so the output is deterministic.

    Raises
    ------
    Disconnected
        If some edge is unreachable from ``start`` (cannot happen for a
        generating set; checked anyway).
    """
    target_of = {(v, g): t for v, g, t in graph.edges}
    unused = {v.label: list(range(len(graph.generators))) for v in graph.vertices}
    gen_labels = [g.label for g in graph.generators]
    start_label = _classify(np.asarray(start.unitary), graph.vertices)
    if start_label is None:
        raise ValueError(f"start element {start.label!r} is not a graph vertex")

    # Hierholzer, iterative: walk greedily, back up when stuck, splice.
    stack: list[tuple[str, str | None]] = [(start_label, None)]  # (vertex, incoming generator)
    circuit: list[str] = []
    while stack:
        v, _ = stack[-1]
        if unused[v]:
            gi = unused[v].pop(0)
            g = gen_labels[gi]
            stack.append((target_of[(v, g)], g))
        else:
            _, gen_in = stack.pop()
            if gen_in is not None:
                circuit.append(gen_in)
    if any(unused[v] for v in unused):
        raise Disconnected("unreachable edges remain; generators do not connect the group")
    circuit.reverse()
    return PulseWord(tuple(circuit))


def cumulative_path(word: PulseWord, start: GroupElement) -> list[GroupElement]:
    """Running left products g_l = p_l @ p_{l-1} @ ... @ p_1 @ start.

    Full phases are kept, so the signed sequence of propagators is
    reproduced exactly; labels are assigned up to global phase against
    the Pauli group.
    """
    paulis = pauli_group()
    current = np.asarray(start.unitary)
    out: list[GroupElement] = []
    for letter in word.letters:
        current = pauli(letter) @ current
        label = _classify(current, tuple(paulis))
        if label is None:
            raise NotClosed(f"cumulative product after {letter!r} left the Pauli group")
        out.append(GroupElement(current, label))
    return out


@dataclass(frozen=True)
class EulerianCheck:
    """Outcome of verify_eulerian: overall flag plus a diagnostic string."""

    passed: bool
    diagnostic: str
    missing_edges: tuple[tuple[str, str], ...] = field(default=())

    def __bool__(self) -> bool:
        return self.passed


def verify_eulerian(word: PulseWord, graph: CayleyGraph,
                    start: GroupElement | None = None) -> EulerianCheck:
    """Check that ``word`` walks every directed edge exactly once.

    The walk starts at ``start`` (the identity vertex when omitted) and
    must return there.  Failures are reported as diagnostics, not
    raised: the first repeated edge, an endpoint mismatch, or the first
    missing edge.
    """
    gen_labels = {g.label for g in graph.generators}
    for letter in word.letters:
        if letter not in gen_labels:
            raise ValueError(f"word letter {letter!r} is not a graph generator")
    if start is None:
        ident = [v for v in graph.vertices if phase_equal(v.unitary, np.eye(2))]
        if not ident:
            raise ValueError("graph has no identity vertex; pass start explicitly")
        start_label = ident[0].label
    else:
        start_label = _classify(np.asarray(start.unitary), graph.vertices)
        if start_label is None:
            raise ValueError(f"start element {start.label!r} is not a graph vertex")

    target_of = {(v, g): t for v, g, t in graph.edges}
    seen: set[tuple[str, str]] = set()
    v = start_label
    for k, letter in enumerate(word.letters):
        edge = (v, letter)
        if edge in seen:
            return EulerianCheck(False, f"edge {v}-{letter}-> traversed twice at letter {k + 1}")
        seen.add(edge)
        v = target_of[edge]
    missing = tuple((a, g) for a, g, _ in graph.edges if (a, g) not in seen)
    if v != start_label:
        return EulerianCheck(False, f"walk ends at {v}, not at start {start_label}", missing)
    if missing:
        a, g = missing[0]
        return EulerianCheck(
            False,
            f"{len(seen)} of {len(graph.edges)} edges traversed; first missing edge {a}-{g}->",
            missing,
        )
    return EulerianCheck(True, "ok")


def verify_average_decoupling(word: PulseWord, errors: set[str]) -> bool:
    """Zeroth-order averaging check: sum_l g_l^dag E g_l = 0 over the path.

    ``errors`` is a set of Pauli labels; the cumulative path is taken
    from the identity.  The condition is insensitive to the phases of
    the path elements.
    """
    path = cumulative_path(word, pauli_element("I"))
    for err in errors:
        e = pauli(err)
        total = np.zeros((2, 2), dtype=complex)
        for g in path:
            total += g.unitary.conj().T @ e @ g.unitary
        if np.max(np.abs(total)) > 1e-12:
            return False
    return True
