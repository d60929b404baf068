"""Decoupling-group machinery on the single-qubit Pauli group.

A decoupling sequence is robust to finite pulse width when its
cumulative propagators walk an Eulerian cycle on the Cayley graph of
the decoupling group: every generator edge is exercised from every
vertex, so pulse-interior errors average out along with the idle-time
errors.  This module builds the graph from its generators alone (the
decoupling group is the group they generate), finds Eulerian cycles
(Hierholzer's algorithm with deterministic tie-breaking), and checks
pulse words against both the strict Eulerian condition and the weaker
zeroth-order averaging condition.

Conventions
-----------
All arithmetic is exact integer arithmetic on labels; no matrix is
multiplied and nothing is compared to a tolerance.  A Pauli class is
its (x, z) bits, I = 0, X = 1, Z = 2, Y = 3, and the class of a
product is the XOR of its factors' bits.  The full product is
sigma_a sigma_b = i^k sigma_(a XOR b), with k = 0 when a or b is I or
a = b, k = 1 for XY, YZ and ZX, and k = 3 for YX, ZY and XZ.  Two
classes commute iff one of them is I or they are equal.

A generator is a pulse letter, X, Y or Z, the letters that
``control.SEQUENCE_WORDS`` spells its named sequences with; a letter
is also the Pauli class of its pi pulse.  A ``GroupElement`` is i^phase
times a Pauli: its label and its phase, a power of i mod 4.  Vertices
and edges live in label space: an edge from ``v`` through generator
letter ``h`` ends at the class of ``v h``.
Cumulative paths keep the phase and multiply on the left,
``g_l = p_l g_{l-1}``, which is the time ordering of the physical
propagators; since classes multiply by XOR, both orders trace the
same labeled walk.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .su2core import PAULI_LABELS, pauli

__all__ = [
    "EmptyGenerators",
    "GroupElement",
    "CayleyGraph",
    "PulseWord",
    "EulerianCheck",
    "build_cayley",
    "eulerian_cycle",
    "cumulative_path",
    "verify_eulerian",
    "verify_average_decoupling",
]

_LABEL_OF = ("I", "X", "Z", "Y")  # indexed by the (x, z) bits, x + 2 z
_BITS = {label: bits for bits, label in enumerate(_LABEL_OF)}
# Ordered (a, b) bit pairs with sigma_a sigma_b = +i sigma_c: XY, YZ, ZX.
_CYCLIC = {(1, 3), (3, 2), (2, 1)}


class EmptyGenerators(ValueError):
    """A Cayley graph needs at least one generator."""


def _bits(label: str) -> int:
    """The (x, z) bits of a Pauli label; ValueError for any other string."""
    try:
        return _BITS[label]
    except KeyError:
        raise ValueError(f"unknown Pauli label {label!r}; expected one of {PAULI_LABELS}") from None


@dataclass(frozen=True)
class GroupElement:
    """A Pauli group element, i**phase times the Pauli ``label``.

    The label is one of I, X, Y, Z and names the element's class; the
    phase is a power of i, stored mod 4.
    """

    label: str
    phase: int = 0

    def __post_init__(self) -> None:
        _bits(self.label)
        object.__setattr__(self, "phase", self.phase % 4)

    @property
    def unitary(self) -> np.ndarray:
        """The element as a fresh 2x2 complex matrix."""
        return 1j ** self.phase * pauli(self.label)


def _anticommute(a: int, b: int) -> bool:
    """Whether the classes of bits ``a`` and ``b`` anticommute."""
    return a != 0 and b != 0 and a != b


def _product(g: GroupElement, h: GroupElement) -> GroupElement:
    """The product ``g h``, phase included."""
    a, b = _bits(g.label), _bits(h.label)
    k = 1 if (a, b) in _CYCLIC else 3 if _anticommute(a, b) else 0
    return GroupElement(_LABEL_OF[a ^ b], g.phase + h.phase + k)


@dataclass(frozen=True)
class CayleyGraph:
    """Cayley graph of a group under a list of generator letters.

    vertices are phase-+1 ``GroupElement``s and generators the letters,
    in the order given.  edges holds directed (vertex_label, letter,
    target_label) triples; there are exactly |vertices| x |generators|
    of them.
    """

    vertices: tuple[GroupElement, ...]
    generators: tuple[str, ...]
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


def build_cayley(generators: Sequence[str]) -> CayleyGraph:
    """Build the Cayley graph of the group that the letters ``generators`` generate.

    ``generators`` is a sequence of pulse letters, such as ["X", "Y"]
    or the string "XY".  The vertices are the XOR closure of the
    letters' classes from the identity, as phase-+1 elements in
    canonical I, X, Y, Z order: "Y" gives {I, Y} and "XY" the full
    group.  A generator is its letter alone: it carries no phase.

    Raises
    ------
    EmptyGenerators
        If ``generators`` is empty.
    ValueError
        If a letter is not a Pauli label, or is repeated, which would
        double its edges.
    """
    if not generators:
        raise EmptyGenerators("at least one generator is required")
    gens = tuple(generators)
    if len(set(gens)) != len(gens):
        raise ValueError(f"repeated generator labels: {list(gens)}")
    found = {0}
    for g in gens:
        found |= {a ^ _bits(g) for a in found}
    vertices = tuple(GroupElement(lab) for lab in PAULI_LABELS if _BITS[lab] in found)
    edges = tuple((v.label, g, _LABEL_OF[_BITS[v.label] ^ _BITS[g]])
                  for v in vertices for g in gens)
    return CayleyGraph(vertices=vertices, generators=gens, edges=edges)


def _vertex_label(graph: CayleyGraph, start: GroupElement) -> str:
    """``start``'s label, or ValueError when it names no vertex of ``graph``."""
    if start.label not in {v.label for v in graph.vertices}:
        raise ValueError(f"start element {start.label!r} is not a graph vertex")
    return start.label


def eulerian_cycle(graph: CayleyGraph, start: GroupElement) -> PulseWord:
    """Eulerian cycle through ``graph`` from ``start``, as a pulse word.

    Uses Hierholzer's algorithm; at each vertex the lowest-indexed
    unused generator is taken, so the output is deterministic.  The
    graph of a generated group is strongly connected and every vertex
    has as many edges in as out, so the walk uses every edge.
    """
    target_of = {(v, g): t for v, g, t in graph.edges}
    unused = {v.label: list(graph.generators) for v in graph.vertices}
    start_label = _vertex_label(graph, start)

    # Hierholzer, iterative: walk greedily, back up when stuck, splice.
    stack: list[tuple[str, str | None]] = [(start_label, None)]  # (vertex, incoming generator)
    circuit: list[str] = []
    while stack:
        v, _ = stack[-1]
        if unused[v]:
            g = unused[v].pop(0)
            stack.append((target_of[(v, g)], g))
        else:
            _, gen_in = stack.pop()
            if gen_in is not None:
                circuit.append(gen_in)
    circuit.reverse()
    return PulseWord(tuple(circuit))


def cumulative_path(word: PulseWord, start: GroupElement) -> list[GroupElement]:
    """Running left products g_l = p_l p_{l-1} ... p_1 start.

    Full phases are kept, so the signed sequence of propagators is
    reproduced exactly.  Raises ValueError for a letter that is not a
    Pauli label.
    """
    current = start
    out: list[GroupElement] = []
    for letter in word.letters:
        current = _product(GroupElement(letter), current)
        out.append(current)
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
    for letter in word.letters:
        if letter not in graph.generators:
            raise ValueError(f"word letter {letter!r} is not a graph generator")
    start_label = _vertex_label(graph, GroupElement("I") if start is None else start)

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
    from the identity.  Each term is +E when g_l and E commute and -E
    when they anticommute, so the sum vanishes iff the two counts are
    equal; the phases of the path elements play no part.
    """
    path = [_bits(g.label) for g in cumulative_path(word, GroupElement("I"))]
    return all(2 * sum(_anticommute(g, e) for g in path) == len(path)
               for e in [_bits(err) for err in errors])
