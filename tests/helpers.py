"""Diagnostics that only the tests call, built on the package's public API.

- envelope_at: a checked, time-resolved evaluation of the pulse envelope
  the engine integrates (control.pulse_envelope).
- normalize_coherence: readout fidelities mapped to coherences.
- estimate_autocorrelation and parseval_power: the comb's statistics,
  criterion 9's diagnostics.
- population0: the |0> population of a ket.
- comb_parts: the comb's coefficient table by its pairing formula,
  built realization-major and transposed, the oracle of Comb.parts.
- per_index_normal: realization m's unit detuning from its own
  generator, the oracle of the batched detuning draws.
"""
import numpy as np

from eulerdd import (CurvePoint, DecayCurve, InvalidTiming, LorentzianNoiseSpec,
                     PulseShape, derive_seed, field_at, pulse_envelope,
                     sample_realization, weights_all)
from eulerdd.noise import STREAM_DETUNING, Comb


class OutOfSegment(ValueError):
    """Envelope evaluated outside [0, tau_d]."""


class RangeViolation(ValueError):
    """A fidelity lies below the coherence floor and cannot be normalized."""


def envelope_at(shape: PulseShape, t, tau_d: float):
    """Drive envelope Omega(t) in rad/s, for t (a float or an array) inside [0, tau_d].

    Square pulses return pi / tau_d everywhere in the segment.
    Gaussian pulses return the truncated Gaussian, renormalized after
    truncation so the integrated area is pi to 1e-9.  Delta pulses are
    represented as exact rotations and have no envelope.  Evaluates
    ``pulse_envelope``, the envelope the engine integrates.

    Raises
    ------
    OutOfSegment
        If t is outside [0, tau_d].
    """
    if shape.kind == "Delta":
        raise OutOfSegment("Delta pulses have no time-resolved envelope")
    if tau_d <= 0:
        raise InvalidTiming("tau_d must be positive for a finite-width pulse")
    rel = np.asarray(t, dtype=float)
    if not np.all((rel >= 0.0) & (rel <= tau_d)):
        raise OutOfSegment(f"t = {t!r} outside pulse segment [0, {tau_d!r}]")
    env = pulse_envelope(shape, tau_d, rel)
    return float(env) if env.ndim == 0 else env


def normalize_coherence(curve: DecayCurve) -> DecayCurve:
    """Map readout fidelities to coherences via C = 2 F - 1.

    stderr scales by the same factor of 2.  Raises RangeViolation if
    any fidelity lies below 0.45: values that far under the mixed
    level 0.5 signal a calibration or readout error, not coherence.
    """
    for pt in curve.points:
        if pt.value < 0.45:
            raise RangeViolation(
                f"fidelity {pt.value!r} at t = {pt.t!r} below the 0.45 floor")
    pts = tuple(CurvePoint(pt.t, pt.N, max(0.0, 2.0 * pt.value - 1.0),
                           2.0 * pt.stderr) for pt in curve.points)
    return DecayCurve(pts)


def estimate_autocorrelation(spec: LorentzianNoiseSpec, lag: float, M: int) -> float:
    """Monte Carlo estimate of <b_x(t) b_x(t+lag)> / <b_x(t)^2>.

    Averages over 256 uniform times spanning one field period and over
    ``M`` realizations.

    Requires M >= 50 so the random-phase cross terms average down.
    """
    if M < 50:
        raise ValueError("M must be >= 50")
    if spec.A == 0:
        raise ValueError("autocorrelation undefined for A = 0")
    t = np.arange(256) * (spec.period / 256)
    comb = Comb.of(spec, sample_realization(spec, np.arange(M)))
    bx = 2.0 * comb.c_at(np.concatenate([t, t + lag])).real
    bx0, bx1 = np.split(bx, 2, axis=1)
    return float(np.sum(np.mean(bx0 * bx1, axis=1)) / np.sum(np.mean(bx0 * bx0, axis=1)))


def parseval_power(spec: LorentzianNoiseSpec, phases: np.ndarray) -> tuple[float, float]:
    """Time-averaged (<b_x^2> + <b_y^2>)/2 of a phase row over one period, and its target.

    The average is over 64 uniform times.  The target is the comb-power
    identity (A^2 / 2) sum_n W(n)^2.  The x/y average is the quantity
    fixed per realization: b_x alone keeps a phase-dependent
    contribution from the +-n frequency pairs and the constant n = 0
    tone, while |b_x + i b_y|^2 time-averages to the same deterministic
    value for every phase draw.
    """
    t = np.arange(64) * (spec.period / 64)
    bx, by = field_at(spec, phases, t)
    measured = float(np.mean(bx * bx + by * by) / 2)
    target = 0.5 * spec.A**2 * float(np.sum(weights_all(spec) ** 2))
    return measured, target


def population0(psi: np.ndarray) -> float:
    """Population |psi_0|^2 of the |0> level in the ket ``psi``.

    Values within 1e-9 above 1 are clamped to 1; anything further out
    raises ``ValueError``.
    """
    value = abs(psi[0]) ** 2
    if value > 1 + 1e-9:
        raise ValueError(f"population0 out of range: {value!r}")
    return min(value, 1.0)


def comb_parts(spec: LorentzianNoiseSpec, phases: np.ndarray) -> np.ndarray:
    """``Comb.of(spec, phases).parts`` by the +-n pairing formula, built realization-major.

    coef_n = 0.5 A W(n) e^{i phi_n} per row of ``phases``; the basis
    [1, cos(omega_n t), sin(omega_n t)] takes coef_0, coef_n + coef_{-n}
    and i (coef_n - coef_{-n}).  The (rows, 2 n_max + 1) table is
    transposed into a C-contiguous (2 n_max + 1, rows, 2) array of real
    and imaginary parts.
    """
    n = spec.n_max
    coef = 0.5 * spec.A * weights_all(spec)[None, :] * np.exp(1j * phases)
    up, down = coef[:, n + 1:], coef[:, n - 1::-1]
    pairs = np.concatenate([coef[:, n:n + 1], up + down, 1j * (up - down)], axis=1).T
    return np.ascontiguousarray(pairs).view(float).reshape(*pairs.shape, 2)


def per_index_normal(master_seed: int, m: int) -> float:
    """Box-Muller normal of realization m's generator: z = sqrt(-2 log1p(-u1)) cos(2 pi u2).

    u1, u2 = np.random.default_rng(derive_seed(master_seed,
    STREAM_DETUNING, m)).random(2), a fresh generator per index.
    """
    u1, u2 = np.random.default_rng(derive_seed(master_seed, STREAM_DETUNING, m)).random(2)
    return float(np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2))
