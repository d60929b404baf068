"""Cayley graphs, Eulerian cycles, and decoupling checks."""
import itertools

import numpy as np
import pytest

from eulerdd import (PAULI_LABELS, EmptyGenerators, GroupElement, PulseShape,
                     PulseWord, build_cayley, cumulative_path, eulerian_cycle, pauli,
                     pulse_envelope, verify_average_decoupling, verify_eulerian)

XY = ["X", "Y"]


def phase_equal(a, b):
    """Whether a = c b for a c in {1, i, -1, -i}, compared exactly.

    Products of Pauli matrices have entries 0, +-1 and +-i, so the matrix
    route of the group checks needs no tolerance either.
    """
    return any(np.array_equal(a, c * b) for c in (1, 1j, -1, -1j))


def matrix_class(u):
    """The label of the Pauli class of ``u``, by matrix comparison."""
    (label,) = [lab for lab in PAULI_LABELS if phase_equal(u, pauli(lab))]
    return label


def full_graph():
    return build_cayley(XY)


def cpmg_graph():
    return build_cayley(["Y"])


def test_generated_group_subgroup_and_closure():
    assert [v.label for v in cpmg_graph().vertices] == ["I", "Y"]
    assert [v.label for v in full_graph().vertices] == ["I", "X", "Y", "Z"]
    assert all(v.phase == 0 for v in full_graph().vertices)
    with pytest.raises(EmptyGenerators):
        build_cayley([])


def test_build_cayley_rejects_repeated_generator_labels():
    # A repeated label would double every edge of that generator, and the
    # graph's own Eulerian cycle would then fail verify_eulerian.
    for gens in (["X", "X"], ["X", "Y", "X"], "YY"):
        with pytest.raises(ValueError, match="repeated generator"):
            build_cayley(gens)


def test_build_cayley_takes_letters_and_refuses_unknown_ones():
    # A generator is its letter: no GroupElement, and so no phase, wraps it.
    assert full_graph().generators == ("X", "Y")
    assert build_cayley("YX").generators == ("Y", "X")
    for gens in (["Q"], ["X", "Q"], ["x"], ["XY"]):
        with pytest.raises(ValueError, match="unknown Pauli label"):
            build_cayley(gens)


def test_build_cayley_edge_count_and_targets():
    graph = full_graph()
    assert len(graph.edges) == len(graph.vertices) * len(graph.generators) == 8
    for v, g, t in graph.edges:
        # target class is v @ g up to phase
        assert phase_equal(pauli(v) @ pauli(g), pauli(t))


def test_hierholzer_word_is_frozen():
    # Deterministic tie-break (lowest generator index first) pins the cycle.
    word = eulerian_cycle(full_graph(), GroupElement("I"))
    assert "".join(word.letters) == "XXYXYYXY"


def test_eulerian_cycle_self_verifies_from_every_start():
    for graph in (full_graph(), cpmg_graph()):
        for v in graph.vertices:
            word = eulerian_cycle(graph, v)
            assert len(word) == len(graph.edges)
            check = verify_eulerian(word, graph, start=v)
            assert check.passed, check.diagnostic


def test_named_sequence_words():
    graph = full_graph()
    assert verify_eulerian(PulseWord(tuple("XYXYYXYX")), graph).passed
    xy4 = verify_eulerian(PulseWord(tuple("XYXY")), graph)
    assert not xy4.passed
    assert "missing edge" in xy4.diagnostic
    assert xy4.missing_edges  # strict check reports what is left untraversed
    assert verify_eulerian(PulseWord(("Y", "Y")), cpmg_graph()).passed


def test_verify_eulerian_diagnostics():
    graph = full_graph()
    twice = verify_eulerian(PulseWord(tuple("XYXYXYXY")), graph)
    assert not twice.passed and "twice" in twice.diagnostic
    open_walk = verify_eulerian(PulseWord(tuple("X")), graph)
    assert not open_walk.passed and "ends at" in open_walk.diagnostic
    with pytest.raises(ValueError, match="not a graph generator"):
        verify_eulerian(PulseWord(("Z",)), graph)


def test_cumulative_path_left_multiplication():
    # XY8 path returns to identity with the propagator ordering p_l ... p_1.
    path = cumulative_path(PulseWord(tuple("XYXYYXYX")), GroupElement("I"))
    acc = np.eye(2, dtype=complex)
    for letter, elem in zip("XYXYYXYX", path):
        acc = pauli(letter) @ acc
        assert np.max(np.abs(acc - elem.unitary)) < 1e-12
    assert phase_equal(path[-1].unitary, np.eye(2))


def test_average_decoupling_examples():
    # XY4 averages all Paulis with ideal pulses despite not being Eulerian.
    assert verify_average_decoupling(PulseWord(tuple("XYXY")), {"X", "Y", "Z"})
    assert verify_average_decoupling(PulseWord(tuple("XYXYYXYX")), {"X", "Y", "Z"})
    # CPMG kills X and Z errors but keeps Y.
    assert verify_average_decoupling(PulseWord(("Y", "Y")), {"X", "Z"})
    assert not verify_average_decoupling(PulseWord(("Y", "Y")), {"Y"})


def test_every_eulerian_word_decouples_xyz():
    # Exhaustive scan: all 2^8 length-8 words over {X, Y}.
    graph = full_graph()
    eulerian_words = 0
    for letters in itertools.product("XY", repeat=8):
        word = PulseWord(letters)
        if verify_eulerian(word, graph).passed:
            eulerian_words += 1
            assert verify_average_decoupling(word, {"X", "Y", "Z"})
    assert eulerian_words > 0


def test_eulerian_cycle_rejects_foreign_start():
    graph = cpmg_graph()
    with pytest.raises(ValueError, match="not a graph vertex"):
        eulerian_cycle(graph, GroupElement("X"))


def test_exact_arithmetic_matches_the_matrix_route():
    # The products of pauli() matrices are the oracle: every word of length
    # 1 to 6 over {X, Y, Z} from every start, phases included, so a single
    # flipped sign in the product table fails here.
    count = 0
    for n in range(1, 7):
        for letters in itertools.product("XYZ", repeat=n):
            word = PulseWord(letters)
            count += 1
            for start in PAULI_LABELS:
                acc = pauli(start)
                for letter, elem in zip(letters, cumulative_path(word, GroupElement(start))):
                    acc = pauli(letter) @ acc
                    assert np.array_equal(elem.unitary, acc)
            # sum_l g_l^dag E g_l over the path from I, whose entries are exact.
            path = list(itertools.accumulate((pauli(x) for x in letters), lambda a, p: p @ a))
            for err in "XYZ":
                total = sum(u.conj().T @ pauli(err) @ u for u in path)
                assert verify_average_decoupling(word, {err}) == (not total.any())
    assert count == 1092


def test_cayley_edges_match_matrix_classes():
    for n in range(1, 4):
        for subset in itertools.combinations("XYZ", n):
            graph = build_cayley(list(subset))
            closure = {"I"}
            while True:
                grown = closure | {matrix_class(pauli(v) @ pauli(g))
                                   for v in closure for g in subset}
                if grown == closure:
                    break
                closure = grown
            assert ([v.label for v in graph.vertices]
                    == [lab for lab in PAULI_LABELS if lab in closure])
            assert graph.edges == tuple((v.label, g, matrix_class(pauli(v.label) @ pauli(g)))
                                        for v in graph.vertices for g in subset)


def test_unknown_labels_raise_value_error():
    with pytest.raises(ValueError, match="unknown Pauli label"):
        cumulative_path(PulseWord(("Q",)), GroupElement("I"))
    with pytest.raises(ValueError, match="unknown Pauli label"):
        cumulative_path(PulseWord(("X", "x")), GroupElement("I"))
    with pytest.raises(ValueError, match="unknown Pauli label"):
        verify_average_decoupling(PulseWord(("X", "X")), {"Q"})
    with pytest.raises(ValueError, match="unknown Pauli label"):
        GroupElement("Q")


def first_order_size(omega: np.ndarray, tau: float) -> np.ndarray:
    """max |entry| of F_alpha = int U_c^dag sigma_alpha U_c dt, per length-8 XY word.

    ``omega`` is a pulse envelope on a uniform grid over [0, tau_d], with
    tau_d = 1; it is rescaled to area exactly pi.  The cycle is [idle tau]
    then eight [pulse][idle 2 tau] with the last idle tau.  Every word's
    integrals use the same pulse quadrature, so a word's F vanishes to
    rounding whenever the Eulerian cancellation holds, whatever its error.
    Returns a (256,) array, words in itertools.product("XY", repeat=8) order.
    """
    k = omega.size - 1
    w = np.full(k + 1, 1.0 / k)
    w[[0, -1]] /= 2
    theta = np.concatenate([[0.0], np.cumsum((omega[1:] + omega[:-1]) / (2 * k))])
    theta *= np.pi / theta[-1]
    sig = np.array([pauli(lab) for lab in "XYZ"])
    axes = np.array([pauli("X"), pauli("Y")])  # phase 0 and pi/2
    half = theta[None, :, None, None] / 2
    v = np.cos(half) * pauli("I") - 1j * np.sin(half) * axes[:, None]  # (axis, s, 2, 2)
    a = np.einsum("s,psik,aij,psjl->pakl", w, v.conj(), sig, v, optimize=True)
    letters = np.array(list(itertools.product((0, 1), repeat=8)))
    p = np.empty((len(letters), 9, 2, 2), dtype=complex)
    p[:, 0] = pauli("I")
    for l in range(8):
        p[:, l + 1] = v[letters[:, l], -1] @ p[:, l]
    pulses = np.einsum("wlik,wlaij,wljm->wakm", p[:, :8].conj(), a[letters], p[:, :8],
                       optimize=True)
    idles = np.einsum("l,wlik,aij,wljm->wakm", [tau] + 7 * [2 * tau] + [tau], p.conj(), sig,
                      p, optimize=True)
    return np.abs(pulses + idles).max(axis=(1, 2, 3))


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_first_order_term_vanishes_exactly_for_eulerian_words(tau):
    # The paper's claim at first order: F = 0 for a pulse of any shape
    # iff the word walks an Eulerian cycle of the Cayley graph.  Pulses
    # back to back (tau = 0) are the bounded-control limit.
    graph = build_cayley(XY)
    eulerian = np.array([verify_eulerian(PulseWord(letters), graph).passed
                         for letters in itertools.product("XY", repeat=8)])
    assert eulerian.sum() == 8
    s = np.linspace(0.0, 1.0, 2001)
    for omega in (pulse_envelope(PulseShape("Square"), 1.0, s),
                  pulse_envelope(PulseShape("Gaussian"), 1.0, s),
                  s):  # a ramp, theta proportional to t^2
        size = first_order_size(omega, tau)
        assert np.array_equal(size <= 1e-13, eulerian)
