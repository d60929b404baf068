"""Exact complex 2x2 linear algebra for a spin-1/2.

Pauli operators and axis rotations used throughout the package.  The
computational basis is fixed once here: index 0 is the level |0>,
index 1 the level |-1>.  Spin operators are S_k = pauli(k) / 2.

All values are plain numpy arrays of complex128 and are treated as
immutable after construction; every function returns fresh arrays.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI_LABELS",
    "pauli",
    "axis_rotation",
]

PAULI_LABELS = ("I", "X", "Y", "Z")

_PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(which: str) -> np.ndarray:
    """Return the standard Pauli matrix for label ``which``.

    Parameters
    ----------
    which : str
        One of ``"I"``, ``"X"``, ``"Y"``, ``"Z"``.

    Returns
    -------
    numpy.ndarray
        Fresh 2x2 complex matrix.
    """
    try:
        return _PAULI[which].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli label {which!r}; expected one of {PAULI_LABELS}") from None


def axis_rotation(phi: float, theta: float) -> np.ndarray:
    """Rotation by ``theta`` about the equatorial axis at azimuth ``phi``.

    Implements exp(-i theta (cos(phi) S_x + sin(phi) S_y)) for spin
    operators S_k = sigma_k / 2, i.e. the propagator of a resonant
    constant drive with phase ``phi`` and pulse area ``theta``.

    Parameters
    ----------
    phi : float
        Drive phase in radians; 0 is the X axis, pi/2 the Y axis.
    theta : float
        Rotation angle (pulse area) in radians.

    Returns
    -------
    numpy.ndarray
        Unitary 2x2 complex matrix.
    """
    if not (np.isfinite(phi) and np.isfinite(theta)):
        raise ValueError("axis_rotation requires finite phi and theta")
    axis = np.cos(phi) * _PAULI["X"] + np.sin(phi) * _PAULI["Y"]
    return np.cos(theta / 2) * _PAULI["I"] - 1j * np.sin(theta / 2) * axis

