"""Algebraic checks of the SU(2) primitives."""
import math

import numpy as np
import pytest

from eulerdd import axis_rotation, pauli
from helpers import population0


def test_pauli_algebra():
    x, y, z, ident = pauli("X"), pauli("Y"), pauli("Z"), pauli("I")
    assert np.allclose(x @ x, ident)
    assert np.allclose(y @ y, ident)
    assert np.allclose(z @ z, ident)
    assert np.allclose(x @ y, 1j * z)
    assert np.allclose(y @ z, 1j * x)
    assert np.allclose(z @ x, 1j * y)


def test_pauli_returns_fresh_copies():
    a = pauli("X")
    a[0, 0] = 99.0
    assert pauli("X")[0, 0] == 0.0


def test_pauli_rejects_unknown_label():
    with pytest.raises(ValueError, match="unknown Pauli label"):
        pauli("Q")


def test_axis_rotation_matches_matrix_exponential():
    rng = np.random.default_rng(7)
    for _ in range(20):
        phi = rng.uniform(-math.pi, math.pi)
        theta = rng.uniform(0, 2 * math.pi)
        gen = 0.5 * (math.cos(phi) * pauli("X") + math.sin(phi) * pauli("Y"))
        # exp(-i theta gen) via eigendecomposition of the Hermitian generator
        vals, vecs = np.linalg.eigh(gen)
        expected = vecs @ np.diag(np.exp(-1j * theta * vals)) @ vecs.conj().T
        assert np.max(np.abs(axis_rotation(phi, theta) - expected)) < 1e-12


def test_axis_rotation_is_unitary_and_composes():
    u = axis_rotation(0.3, 1.1)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    both = axis_rotation(0.3, 0.7) @ axis_rotation(0.3, 0.4)
    assert np.max(np.abs(both - u)) < 1e-12


def test_pi_rotation_about_x_is_pauli_x_up_to_phase():
    # Not only up to phase: a pi pulse about X or Y is exactly -i sigma.
    for phi, label in ((0.0, "X"), (math.pi / 2, "Y")):
        assert np.max(np.abs(axis_rotation(phi, math.pi) + 1j * pauli(label))) < 1e-15


def test_axis_rotation_rejects_non_finite():
    with pytest.raises(ValueError):
        axis_rotation(math.nan, 1.0)


def test_population0_clamps_and_raises():
    assert population0(np.array([1.0, 0.0], dtype=complex)) == 1.0
    assert population0(np.array([1.0 + 1e-11, 0.0], dtype=complex)) == 1.0
    with pytest.raises(ValueError, match="out of range"):
        population0(np.array([math.sqrt(1.5), 0.0], dtype=complex))
