"""Stochastic environments: injected transverse noise and static detuning.

The relaxation channel is a transverse microwave field synthesized as a
comb of 2*n_max + 1 tones spaced delta_omega apart, each with a random
phase and a Lorentzian weight

    W(n) = sqrt(2 * delta_omega * R / ((2 pi n delta_omega)^2 + R^2)),

so the ensemble spectrum is Lorentzian with half-width R inside the
synthesis bandwidth.  delta_omega is an ordinary frequency in Hz; all
angular arguments use omega_n = 2 pi n delta_omega, which makes the
weight denominator and the time argument consistent.  The field is
periodic with period 1/delta_omega (1 ms at the 1 kHz default).

The dephasing channel is a quasi-static detuning: one Gaussian draw
per realization, constant during the run.  A Gaussian of width
sigma_delta gives the free-induction envelope exp(-(sigma t)^2 / 2),
i.e. sigma_delta = sqrt(2)/T2* reproduces a Gaussian FID with time
constant T2*.

Everything here is deterministic given (master_seed, realization
index); the per-index streams come from a splitmix64 chain, so workers
can draw any subset of realizations in any order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CutoffExceeded",
    "SampleBudgetExceeded",
    "LorentzianNoiseSpec",
    "NoiseRealization",
    "Comb",
    "DephasingSpec",
    "splitmix64",
    "derive_seed",
    "weight",
    "weights_all",
    "field_at",
    "sample_realization",
    "sample_detuning",
    "estimate_autocorrelation",
    "parseval_power",
    "export_waveform",
]

_M64 = (1 << 64) - 1

# Stream tags keeping the noise-phase and detuning draws independent.
STREAM_NOISE = 0x6E6F697365  # "noise"
STREAM_DETUNING = 0x64657475  # "detu"


class CutoffExceeded(ValueError):
    """Requested comb index outside [-n_max, n_max]."""


class SampleBudgetExceeded(ValueError):
    """Waveform export would produce more than 1e8 samples."""


def splitmix64(x: int) -> int:
    """One splitmix64 step; the standard 64-bit finalizing mix."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *parts: int) -> int:
    """Fold ``parts`` into ``master_seed`` through splitmix64 steps.

    Used for all stream derivation: derive_seed(seed, STREAM, index)
    is the seed of one realization's generator.  Documented so results
    are reproducible from the master seed alone.
    """
    h = splitmix64(master_seed & _M64)
    for p in parts:
        h = splitmix64(h ^ (p & _M64))
    return h


@dataclass(frozen=True)
class LorentzianNoiseSpec:
    """Parameters of the injected Lorentzian-comb microwave noise.

    Parameters
    ----------
    R : float
        Correlation rate in 1/s; the target autocorrelation of the
        untruncated spectrum is exp(-R |lag|).
    A : float
        Overall field amplitude scale in rad/s.
    delta_omega : float
        Comb spacing in Hz (default 1 kHz).
    n_max : int
        Comb cutoff index (default 10, i.e. +-10 kHz, 20 kHz bandwidth).
    master_seed : int or None
        Seed of the phase streams; None lets the engine supply one
        derived from the run seed.
    """

    R: float
    A: float
    delta_omega: float = 1e3
    n_max: int = 10
    master_seed: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.R < math.inf:
            raise ValueError("R must be positive and finite")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not 0 <= self.A < math.inf:
            raise ValueError("A must be non-negative and finite")
        if not 0 < self.delta_omega < math.inf:
            raise ValueError("delta_omega must be positive and finite")

    @property
    def indices(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)

    @property
    def period(self) -> float:
        """Fundamental period of the synthesized field, 1/delta_omega."""
        return 1.0 / self.delta_omega

    def seed_or_zero(self) -> int:
        return 0 if self.master_seed is None else self.master_seed


@dataclass(frozen=True)
class NoiseRealization:
    """Random phases of one realization, n = -n_max .. n_max."""

    phases: np.ndarray
    realization_index: int

    def __post_init__(self) -> None:
        phases = np.asarray(self.phases, dtype=float)
        if phases.ndim != 1:
            raise ValueError("phases must be a 1-d array")
        if np.any((phases < 0) | (phases >= 2 * np.pi)):
            raise ValueError("phases must lie in [0, 2 pi)")
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)


@dataclass(frozen=True)
class DephasingSpec:
    """Quasi-static Gaussian detuning of width ``sigma_delta`` rad/s.

    master_seed None lets the engine supply one derived from the run seed.
    """

    sigma_delta: float = 0.0
    master_seed: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.sigma_delta < math.inf:
            raise ValueError("sigma_delta must be non-negative and finite")

    def seed_or_zero(self) -> int:
        return 0 if self.master_seed is None else self.master_seed


def weight(spec: LorentzianNoiseSpec, n: int) -> float:
    """Comb weight W(n); raises CutoffExceeded outside [-n_max, n_max]."""
    if abs(n) > spec.n_max:
        raise CutoffExceeded(f"|n| = {abs(n)} exceeds n_max = {spec.n_max}")
    omega_n = 2 * math.pi * n * spec.delta_omega
    return math.sqrt(2 * spec.delta_omega * spec.R / (omega_n**2 + spec.R**2))


def weights_all(spec: LorentzianNoiseSpec) -> np.ndarray:
    """All comb weights W(n) for n = -n_max .. n_max."""
    omega = 2 * np.pi * spec.indices * spec.delta_omega
    return np.sqrt(2 * spec.delta_omega * spec.R / (omega**2 + spec.R**2))


def sample_realization(spec: LorentzianNoiseSpec, index: int) -> NoiseRealization:
    """Phases of realization ``index``: uniform on [0, 2 pi).

    Deterministic given (master_seed, index); each index owns an
    independent generator, so realizations can be drawn in any order.
    """
    rng = np.random.default_rng(derive_seed(spec.seed_or_zero(), STREAM_NOISE, index))
    phases = rng.uniform(0.0, 2 * np.pi, size=2 * spec.n_max + 1)
    return NoiseRealization(phases=phases, realization_index=index)


@dataclass(frozen=True, eq=False)
class Comb:
    """Tones and per-realization coefficients of the transverse field.

    Row m of ``coef`` holds 0.5 A W(n) e^{i phi_n} of one realization,
    so c(t) = sum_n coef[m, n] e^{i omega_n t} is the coefficient of
    the lowering structure 0.5 (b_x - i b_y): b_x = 2 Re c and
    b_y = -2 Im c.  ``b_sup`` = A sum_n W(n) bounds |b| for every row.
    """

    omega: np.ndarray
    coef: np.ndarray
    b_sup: float

    @classmethod
    def of(cls, spec: LorentzianNoiseSpec, phases: np.ndarray) -> "Comb":
        """Comb of the realizations whose phases are the rows of ``phases``."""
        w = weights_all(spec)
        return cls(omega=2.0 * np.pi * spec.indices * spec.delta_omega,
                   coef=0.5 * spec.A * w[None, :] * np.exp(1j * phases),
                   b_sup=float(spec.A * np.sum(w)))

    def c_at(self, t: np.ndarray) -> np.ndarray:
        """c(t) of every row at the 1-d times ``t``, shape (rows, t.size).

        The sum is accumulated term by term in fixed index order, so
        each entry is bitwise independent of the other rows and times.
        """
        out = np.zeros((self.coef.shape[0], t.size), dtype=complex)
        for k in range(self.omega.size):
            out += self.coef[:, k, None] * np.exp(1j * self.omega[k] * t)[None, :]
        return out


def field_at(spec: LorentzianNoiseSpec, realization: NoiseRealization, t):
    """Transverse field (b_x, b_y) in rad/s at time(s) ``t``.

    b_x = A sum_n W(n) cos(omega_n t + phi_n)
    b_y = -A sum_n W(n) sin(omega_n t + phi_n)

    Evaluated as 2 Re c and -2 Im c of the comb sum the engine integrates.
    """
    t = np.asarray(t, dtype=float)
    c = Comb.of(spec, realization.phases[None, :]).c_at(t.reshape(-1))[0].reshape(t.shape)
    return 2.0 * c.real, -2.0 * c.imag


def sample_detuning(spec: DephasingSpec, index: int) -> float:
    """Static detuning of realization ``index``: one Gaussian draw, rad/s."""
    if spec.sigma_delta == 0.0:
        return 0.0
    rng = np.random.default_rng(derive_seed(spec.seed_or_zero(), STREAM_DETUNING, index))
    return float(rng.standard_normal() * spec.sigma_delta)


def estimate_autocorrelation(spec: LorentzianNoiseSpec, lag: float, M: int,
                             time_samples: int = 256) -> float:
    """Monte Carlo estimate of <b_x(t) b_x(t+lag)> / <b_x(t)^2>.

    Averages over ``time_samples`` uniform times spanning one field
    period and over ``M`` realizations.

    Requires M >= 50 so the random-phase cross terms average down.
    """
    if M < 50:
        raise ValueError("M must be >= 50")
    if spec.A == 0:
        raise ValueError("autocorrelation undefined for A = 0")
    t = np.arange(time_samples) * (spec.period / time_samples)
    num = 0.0
    den = 0.0
    for m in range(M):
        real = sample_realization(spec, m)
        bx0, _ = field_at(spec, real, t)
        bx1, _ = field_at(spec, real, t + lag)
        num += float(np.mean(bx0 * bx1))
        den += float(np.mean(bx0 * bx0))
    return num / den


def parseval_power(spec: LorentzianNoiseSpec, realization: NoiseRealization,
                   time_samples: int = 64) -> tuple[float, float]:
    """Time-averaged (<b_x^2> + <b_y^2>)/2 over one period, and its target.

    The target is the comb-power identity (A^2 / 2) sum_n W(n)^2.  The
    x/y average is the quantity fixed per realization: b_x alone keeps
    a phase-dependent contribution from the +-n frequency pairs and the
    constant n = 0 tone, while |b_x + i b_y|^2 time-averages to the
    same deterministic value for every phase draw.
    """
    t = np.arange(time_samples) * (spec.period / time_samples)
    bx, by = field_at(spec, realization, t)
    measured = float(np.mean(bx * bx + by * by) / 2)
    target = 0.5 * spec.A**2 * float(np.sum(weights_all(spec) ** 2))
    return measured, target


def export_waveform(spec: LorentzianNoiseSpec, realization: NoiseRealization,
                    duration: float, sample_rate: float, path) -> int:
    """Write a CSV trace of (t, b_x, b_y); returns the row count.

    Rows are t_i = i / sample_rate for i = 0 .. round(duration *
    sample_rate) - 1, matching ``field_at`` exactly at those instants.
    The file is deterministic byte for byte: repr float formatting and
    LF line endings.

    Raises
    ------
    SampleBudgetExceeded
        If more than 1e8 samples are requested.
    """
    if duration <= 0 or sample_rate <= 0:
        raise ValueError("duration and sample_rate must be positive")
    count = int(round(duration * sample_rate))
    if count > 10**8:
        raise SampleBudgetExceeded(f"{count} samples exceed the 1e8 budget")
    t = np.arange(count) / sample_rate
    bx, by = field_at(spec, realization, t)
    with open(path, "w", newline="\n") as fh:
        fh.write("t_s,bx_rad_s,by_rad_s\n")
        for i in range(count):
            fh.write(f"{float(t[i])!r},{float(bx[i])!r},{float(by[i])!r}\n")
    return count
