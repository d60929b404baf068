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
Since omega_{-n} = -omega_n, the +-n tones of a realization pair into
real coefficients of cos(omega_n t) and sin(omega_n t), stored once per
run in a Comb with the basis index outermost.  A whole batch of
realizations and times is one einsum call that sums each field value
over the 2 n_max + 1 basis functions in a fixed order, one multiply
and one add at a time along the realization axis, so its entries do
not depend on the batch layout.

The dephasing channel is a quasi-static detuning: one Gaussian draw
per realization, constant during the run.  A Gaussian of width
sigma_delta gives the free-induction envelope exp(-(sigma t)^2 / 2),
i.e. sigma_delta = sqrt(2)/T2* reproduces a Gaussian FID with time
constant T2*.

Everything here is deterministic given (master_seed, realization
index).  There is one seeding route: realization m of a stream draws
from the generator np.random.default_rng(derive_seed(master_seed,
stream, m)), a splitmix64 chain, so any subset of realizations can be
drawn in any order.  A spec without a master_seed draws as seed 0.
The samplers take one index in [0, 2^64) or a 1-d array of them and
compute every index's seeded PCG64 state at once, in uint64 arithmetic.
Draws are then PCG64 arithmetic too: every state takes one step of the
generator's own recurrence, state MULT + inc mod 2^128, per output,
and an output r becomes numpy's random() double (r >> 11) 2^-53 in
[0, 1).  A phase is 2 pi times such a double.  A detuning is the
Box-Muller normal (Box & Muller, Ann. Math. Stat. 29, 610, 1958) of
its index's first two doubles u1 and u2, sqrt(-2 log1p(-u1))
cos(2 pi u2), so |z| <= sqrt(106 ln 2) ~ 8.57.
Each is elementwise arithmetic on its own index's outputs, so a batch
equals the per-index draws bit for bit.  A realization of the comb is
its phase row, the 2 n_max + 1 phases of n = -n_max .. n_max; the
one-realization helpers (field_at, export_waveform) take such a row.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CutoffExceeded",
    "SampleBudgetExceeded",
    "LorentzianNoiseSpec",
    "Comb",
    "DephasingSpec",
    "splitmix64",
    "derive_seed",
    "weight",
    "weights_all",
    "field_at",
    "sample_realization",
    "sample_detuning",
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


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 of every entry of a uint64 array."""
    u = np.uint64
    x = x + u(0x9E3779B97F4A7C15)
    x = (x ^ (x >> u(30))) * u(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> u(27))) * u(0x94D049BB133111EB)
    return x ^ (x >> u(31))


def splitmix64(x: int) -> int:
    """One splitmix64 step of x mod 2^64; the standard 64-bit finalizing mix.

    ``_splitmix64_array`` on Python ints, each sum and product reduced
    mod 2^64; x may be any integer, numpy's included.
    """
    x = (operator.index(x) + 0x9E3779B97F4A7C15) & _M64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _M64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, *parts: int) -> int:
    """Fold ``parts`` into ``master_seed`` through splitmix64 steps.

    Used for all stream derivation: derive_seed(seed, STREAM, index)
    is the seed of one realization's generator.  Documented so results
    are reproducible from the master seed alone.
    """
    h = splitmix64(master_seed)
    for p in parts:
        h = splitmix64(h ^ operator.index(p))
    return h


# numpy's SeedSequence hash constants (pool size 4) and the PCG64
# multiplier, from numpy/random/bit_generator.pyx and pcg64.h.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k = 0 .. count, a (count + 1, 1) uint32 column."""
    return np.array([init * pow(mult, k, 1 << 32) & _M32 for k in range(count + 1)],
                    dtype=np.uint32)[:, None]


# The pool's 4 entry hashes and 12 mixing hashes walk one constant
# sequence; the 8 output words walk the other.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of row k of ``values`` by hash constants k and k + 1 of ``consts``."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ (v >> np.uint32(16))


def _seed_sequence_state(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) of every uint64 seed s, shape (n, 4).

    numpy's hash on a (4, n) uint32 pool.  A seed is one or two 32-bit
    entropy words; a one-word seed equals the two-word one with a zero
    high word, since the pool pads missing entropy with hashes of 0.
    Mixing round ``src`` leaves pool row ``src`` as it is and mixes its
    hashes into the three other rows, so each round is one array step.
    """
    u32 = np.uint32
    pool = np.zeros((4, seeds.size), dtype=u32)
    pool[0], pool[1] = seeds & np.uint64(_M32), seeds >> np.uint64(32)
    pool = _hashmix(pool, _HASH_A[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = u32(_MIX_MULT_L) * pool[dst] - u32(_MIX_MULT_R) * _hashmix(
            pool[src], _HASH_A[4 + 3 * src:8 + 3 * src])
        pool[dst] = mixed ^ (mixed >> u32(16))
    words = _hashmix(np.tile(pool, (2, 1)), _HASH_B).astype(np.uint64)
    return (words[0::2] | (words[1::2] << np.uint64(32))).T


def _index(i) -> int:
    """An int realization index, or ValueError outside [0, 2^64) instead of wrapping."""
    i = operator.index(i)
    if not 0 <= i <= _M64:
        raise ValueError(f"realization index {i} is outside [0, 2^64)")
    return i


def _indices(index) -> np.ndarray:
    """An int or 1-d integer array of realization indices as a uint64 array.

    An index outside [0, 2^64) raises ValueError instead of wrapping.  A
    sequence that is not an array, and an object array, are checked
    entry by entry, since numpy would turn [-1, 2^63] into floats and
    [2^64] into an object array.
    """
    if np.ndim(index) == 0:
        return np.array([_index(index)], dtype=np.uint64)
    idx = index if isinstance(index, np.ndarray) else np.asarray(index, dtype=object)
    if idx.ndim == 1 and idx.dtype == object:
        return np.array([_index(i) for i in idx], dtype=np.uint64)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise TypeError("realization indices must be an int or a 1-d integer array")
    if idx.dtype.kind == "i" and idx.size and idx.min() < 0:
        raise ValueError(f"realization index {idx.min()} is outside [0, 2^64)")
    return idx.astype(np.uint64)


def _check_integer(value, name: str) -> None:
    """ValueError unless ``value`` is an integer; numpy integers are accepted."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_seed(master_seed: int | None) -> None:
    """ValueError for a master seed that is not an integer, or outside [0, 2^64).

    A seed outside that range would wrap onto another seed's streams.
    """
    if master_seed is None:
        return
    _check_integer(master_seed, "master_seed")
    if not 0 <= master_seed <= _M64:
        raise ValueError(f"master_seed {master_seed} is outside [0, 2^64)")


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2^128 of 128-bit ints held as uint64 (hi, lo) halves.

    The high half of a_lo * b_lo is built from 32-bit limbs; every
    other product only needs its low 64 bits, which uint64 arrays wrap to.
    """
    m32, s32 = np.uint64(_M32), np.uint64(32)
    x0, x1 = a_lo & m32, a_lo >> s32
    y0, y1 = b_lo & m32, b_lo >> s32
    p01, p10 = x0 * y1, x1 * y0
    mid = ((x0 * y0) >> s32) + (p01 & m32) + (p10 & m32)
    carry = x1 * y1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    return carry + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a + b) mod 2^128 of 128-bit ints held as uint64 (hi, lo) halves."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * MULT + inc mod 2^128, on uint64 (hi, lo) halves."""
    return _add128(*_mul128(hi, lo, _PCG_MULT_HI, _PCG_MULT_LO), inc_hi, inc_lo)


def _pcg64_states(master_seed: int | None, stream: int, idx: np.ndarray):
    """Seeded PCG64 (state, inc) of each index's default_rng, as uint64 halves.

    Returns (state_hi, state_lo, inc_hi, inc_lo), each of shape idx.shape:
    the generator np.random.default_rng(derive_seed(master_seed, stream,
    i)) starts from this state (a master_seed of None seeds as 0).  The
    seeding is numpy's: state 0, inc = 2 initseq + 1, one step, add
    initstate, one step.  The first step takes state 0 to inc itself.
    """
    master = 0 if master_seed is None else master_seed
    seeds = _splitmix64_array(np.uint64(derive_seed(master, stream)) ^ idx)
    s0, s1, s2, s3 = _seed_sequence_state(seeds).T
    one = np.uint64(1)
    inc_hi, inc_lo = (s2 << one) | (s3 >> np.uint64(63)), (s3 << one) | one
    return (*_pcg64_step(*_add128(inc_hi, inc_lo, s0, s1), inc_hi, inc_lo), inc_hi, inc_lo)


def _pcg64_outputs(states, count: int) -> np.ndarray:
    """The first ``count`` 64-bit outputs of PCG64 from each of ``states``, (count, n).

    ``states`` is the (state_hi, state_lo, inc_hi, inc_lo) of
    ``_pcg64_states``.  Each output steps the state once and is the
    XSL-RR rotr64(hi ^ lo, hi >> 58) of the new state; row j holds
    output j of every state.
    """
    hi, lo, inc_hi, inc_lo = states
    out = np.empty((count, hi.size), dtype=np.uint64)
    for row in out:
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        rot, x = hi >> np.uint64(58), hi ^ lo
        np.bitwise_or(x >> rot, x << ((np.uint64(64) - rot) & np.uint64(63)), out=row)
    return out


def _doubles(r: np.ndarray) -> np.ndarray:
    """numpy's random() double (r >> 11) 2^-53 in [0, 1) of each 64-bit output r."""
    return (r >> np.uint64(11)).astype(float) * 2.0**-53


def _standard_normals(states) -> np.ndarray:
    """Box-Muller normals of the first two random() doubles u1, u2 of each of ``states``.

    z = sqrt(-2 log1p(-u1)) cos(2 pi u2), shape (n,): the draw of
    default_rng(seed).random(2) followed by the same formula.
    """
    u1, u2 = _doubles(_pcg64_outputs(states, 2))
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


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

    Besides each field's own range, the spec refuses values whose comb
    overflows a double: every omega_n^2 + R^2 and W(n), b_sup = A
    sum_n W(n) and b_sup^2 must be finite, so that no run ends in an
    overflow after its work has started.
    """

    R: float
    A: float
    delta_omega: float = 1e3
    n_max: int = 10
    master_seed: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.R <= sys.float_info.max:
            raise ValueError("R must be positive and finite")
        _check_integer(self.n_max, "n_max")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not 0 <= self.A <= sys.float_info.max:
            raise ValueError("A must be non-negative and finite")
        if not 0 < self.delta_omega <= sys.float_info.max:
            raise ValueError("delta_omega must be positive and finite")
        with np.errstate(all="ignore"):
            den, w = _comb_terms(self)
            if not np.isfinite([*den, *w, (self.A * np.sum(w)) ** 2]).all():
                raise ValueError("the comb overflows: omega_n^2 + R^2, W(n), b_sup = "
                                 "A sum_n W(n) and b_sup^2 must be finite")
        _check_seed(self.master_seed)

    @property
    def indices(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)

    @property
    def period(self) -> float:
        """Fundamental period of the synthesized field, 1/delta_omega."""
        return 1.0 / self.delta_omega


@dataclass(frozen=True)
class DephasingSpec:
    """Quasi-static Gaussian detuning of width ``sigma_delta`` rad/s.

    master_seed None lets the engine supply one derived from the run seed.
    Every draw is z sigma_delta with |z| <= sqrt(106 ln 2) ~ 8.57 (module
    docstring), and the spec refuses a sigma_delta for which the largest
    draw's hz^2 = (z sigma_delta / 2)^2 is not finite, about 3.1e153.
    """

    sigma_delta: float = 0.0
    master_seed: int | None = None

    def __post_init__(self) -> None:
        # The largest draw's hz; a sigma_delta beyond the double range has none.
        hz = (0.5 * math.sqrt(106 * math.log(2)) * float(self.sigma_delta)
              if self.sigma_delta <= sys.float_info.max else math.inf)
        if not (self.sigma_delta >= 0 and math.isfinite(hz * hz)):
            raise ValueError("sigma_delta must be non-negative and finite, with a finite hz^2 "
                             f"at its largest draw, got {self.sigma_delta!r}")
        _check_seed(self.master_seed)


def weight(spec: LorentzianNoiseSpec, n: int) -> float:
    """Comb weight W(n); raises CutoffExceeded outside [-n_max, n_max]."""
    if abs(n) > spec.n_max:
        raise CutoffExceeded(f"|n| = {abs(n)} exceeds n_max = {spec.n_max}")
    return float(weights_all(spec)[n + spec.n_max])


def weights_all(spec: LorentzianNoiseSpec) -> np.ndarray:
    """All comb weights W(n) for n = -n_max .. n_max."""
    return _comb_terms(spec)[1]


def _comb_terms(spec: LorentzianNoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """(omega_n^2 + R^2, W(n)) for n = -n_max .. n_max.

    R^2 is numpy's scalar power, the same libm pow as Python's R**2, but
    one that overflows to inf instead of raising, as the spec's check needs.
    """
    omega = 2 * np.pi * spec.indices * spec.delta_omega
    den = omega**2 + np.float64(spec.R) ** 2
    return den, np.sqrt(2 * spec.delta_omega * spec.R / den)


def sample_realization(spec: LorentzianNoiseSpec, index) -> np.ndarray:
    """Comb phases of realization ``index``: uniform on [0, 2 pi).

    Deterministic given (master_seed, index); each index owns an
    independent stream, so realizations can be drawn in any order.  An
    int index gives its (2 n_max + 1,) phase row, n = -n_max .. n_max;
    a 1-d index array gives the (n, 2 n_max + 1) array of rows, equal
    to the per-index draws.  Raises ValueError for an index outside
    [0, 2^64).
    """
    r = _pcg64_outputs(_pcg64_states(spec.master_seed, STREAM_NOISE, _indices(index)),
                       2 * spec.n_max + 1)
    phases = _doubles(np.ascontiguousarray(r.T)) * (2 * np.pi)
    return phases[0] if np.ndim(index) == 0 else phases


@dataclass(frozen=True, eq=False)
class Comb:
    """Tones and per-realization coefficients of the transverse field.

    The field of one realization is c(t) = sum_n coef_n e^{i omega_n t}
    with coef_n = 0.5 A W(n) e^{i phi_n}, the coefficient of the
    lowering structure 0.5 (b_x - i b_y): b_x = 2 Re c and b_y =
    -2 Im c.  Since omega_{-n} = -omega_n exactly, the +-n tones pair
    into

        c(t) = coef_0 + sum_{n >= 1} [(coef_n + coef_{-n}) cos(omega_n t)
                                      + i (coef_n - coef_{-n}) sin(omega_n t)],

    a real-coefficient sum over the basis [1, cos(omega_n t),
    sin(omega_n t)] of n = 1 .. n_max.  ``omega`` holds omega_1 ..
    omega_{n_max}; ``parts[q, m, 0]`` and ``parts[q, m, 1]`` hold the real
    and imaginary coefficients of basis function q of row m, so
    ``parts`` is a C-contiguous (2 n_max + 1, rows, 2) array with the
    basis index outermost.  It is built in that order from the
    transposed phasors, with no transposed copy.  ``b_sup`` = A sum_n
    W(n) bounds |b| for every row.
    """

    omega: np.ndarray
    parts: np.ndarray
    b_sup: float

    @classmethod
    def of(cls, spec: LorentzianNoiseSpec, phases: np.ndarray) -> "Comb":
        """Comb of the realizations whose phases are the rows of ``phases``."""
        return cls._of_phasors(spec, np.exp(1j * phases))

    @classmethod
    def _of_phasors(cls, spec: LorentzianNoiseSpec, phasors: np.ndarray) -> "Comb":
        """``of`` from the rows of e^{i phi}, for callers that reuse them across A.

        The coefficients are formed from the transposed phasors and the
        pairs written into the stored (basis, row) order, C-contiguous:
        those of n = 0 and n > 0 in place, those of n < 0 as the one
        temporary beside the pairs.
        """
        n = spec.n_max
        w = weights_all(spec)
        scale, rows = (0.5 * spec.A * w)[:, None], phasors.T
        pairs = np.empty(rows.shape, dtype=complex)
        np.multiply(scale[n:n + 1], rows[n:n + 1], out=pairs[:1])
        up = np.multiply(scale[n + 1:], rows[n + 1:], out=pairs[n + 1:])
        down = np.multiply(scale[n - 1::-1], rows[n - 1::-1], order="C")
        np.add(up, down, out=pairs[1:n + 1])
        np.multiply(np.subtract(up, down, out=up), 1j, out=up)
        return cls(omega=2.0 * np.pi * spec.indices[n + 1:] * spec.delta_omega,
                   parts=pairs.view(float).reshape(*pairs.shape, 2),
                   b_sup=float(spec.A * np.sum(w)))

    def basis(self, t: np.ndarray) -> np.ndarray:
        """The (t.size, 2 n_max + 1) basis [1, cos(omega_n t), sin(omega_n t)] at times ``t``.

        The cosines and sines are written one time row per ufunc loop, so
        each row is bitwise independent of the other times.
        """
        n = self.omega.size
        basis = np.empty((t.size, 2 * n + 1))
        basis[:, 0] = 1.0
        angle = t[:, None] * self.omega
        np.cos(angle, out=basis[:, 1:n + 1])
        np.sin(angle, out=basis[:, n + 1:])
        return basis

    def c_at(self, t: np.ndarray) -> np.ndarray:
        """c(t) of every row at the 1-d times ``t``, shape (rows, t.size).

        The ``basis`` at ``t`` contracted with ``parts`` by ``_comb_sum``,
        so each entry is bitwise independent of the other rows and times.
        The result is built time-major and returned as a transposed view,
        so ``c_at(t).T`` is a contiguous (t.size, rows) array.
        """
        return _comb_sum(self.basis(t), self.parts).T


def _comb_sum(basis: np.ndarray, parts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_q basis[t, q] (parts[q, m, 0] + i parts[q, m, 1]), a complex (t, m) array.

    The one contraction behind every comb value: numpy's own einsum
    loop, no BLAS, written into the result's float view.  Its inner loop
    runs along the contiguous (m, 2) axes, so each entry is summed one
    multiply and one add at a time in the fixed order q = 0, 1, ..., and
    its bytes do not depend on the other rows of ``basis`` or columns of
    ``parts``.  ``out``, if given, is a C-contiguous complex (t, m) array
    to write.
    """
    if out is None:
        out = np.empty((basis.shape[0], parts.shape[1]), dtype=complex)
    np.einsum("tq,qmj->tmj", basis, parts, out=out.view(float).reshape(*out.shape, 2))
    return out


def _phase_row(spec: LorentzianNoiseSpec, phases) -> np.ndarray:
    """``phases`` as a float array, or ValueError unless it is one row of 2 n_max + 1."""
    row = np.asarray(phases, dtype=float)
    if row.shape != (2 * spec.n_max + 1,):
        raise ValueError(f"phases must be one row of {2 * spec.n_max + 1} comb "
                         f"phases, got shape {row.shape}")
    return row


def field_at(spec: LorentzianNoiseSpec, phases: np.ndarray, t):
    """Transverse field (b_x, b_y) in rad/s of one phase row at time(s) ``t``.

    b_x = A sum_n W(n) cos(omega_n t + phi_n)
    b_y = -A sum_n W(n) sin(omega_n t + phi_n)

    Evaluated as 2 Re c and -2 Im c of the comb sum the engine integrates.
    Raises ValueError unless ``phases`` is 1-d of length 2 n_max + 1.
    """
    row = _phase_row(spec, phases)
    t = np.asarray(t, dtype=float)
    c = Comb.of(spec, row[None, :]).c_at(t.reshape(-1))[0].reshape(t.shape)
    return 2.0 * c.real, -2.0 * c.imag


def sample_detuning(spec: DephasingSpec, index):
    """Static detuning of realization ``index``: one Gaussian draw, rad/s.

    An int index gives a float; a 1-d index array gives an (n,) array,
    equal to the per-index draws.  sigma_delta = 0 gives zeros without
    drawing.  Raises ValueError for an index outside [0, 2^64).
    """
    if spec.sigma_delta == 0.0:
        count = _indices(index).size
        return 0.0 if np.ndim(index) == 0 else np.zeros(count)
    z = _standard_normals(_pcg64_states(spec.master_seed, STREAM_DETUNING,
                                        _indices(index)))
    if np.ndim(index) == 0:
        return float(z[0] * spec.sigma_delta)
    return z * spec.sigma_delta


def _sample_count(duration: float, sample_rate: float) -> int:
    """An export's sample count round(duration * sample_rate), or the error that refuses it.

    ValueError unless duration and sample_rate are positive and finite
    and the count is at least 1; SampleBudgetExceeded above 1e8 samples.
    """
    if not (0 < duration <= sys.float_info.max and 0 < sample_rate <= sys.float_info.max):
        raise ValueError("duration and sample_rate must be positive and finite")
    samples = duration * sample_rate  # may overflow to inf, so not rounded yet
    if samples > 10**8 + 0.5:
        raise SampleBudgetExceeded(f"{samples:.6g} samples exceed the 1e8 budget")
    if round(samples) == 0:
        raise ValueError(f"duration * sample_rate = {samples:.6g} rounds to no sample")
    return round(samples)


# Samples evaluated and written at a time, so an export's memory does not
# grow with its length.
_EXPORT_CHUNK = 65536


def export_waveform(spec: LorentzianNoiseSpec, phases: np.ndarray,
                    duration: float, sample_rate: float, path) -> int:
    """Write a CSV trace of (t, b_x, b_y) of a phase row; returns the row count.

    Rows are t_i = i / sample_rate for i = 0 .. round(duration *
    sample_rate) - 1, matching ``field_at`` exactly at those instants;
    they are evaluated and written in chunks of _EXPORT_CHUNK samples.
    The file is deterministic byte for byte: repr float formatting and
    LF line endings.

    Raises
    ------
    ValueError
        If duration or sample_rate is not positive and finite, or their
        product rounds to no sample.
    SampleBudgetExceeded
        If more than 1e8 samples are requested.
    """
    count = _sample_count(duration, sample_rate)
    row = _phase_row(spec, phases)
    with open(path, "w", newline="\n") as fh:
        fh.write("t_s,bx_rad_s,by_rad_s\n")
        for start in range(0, count, _EXPORT_CHUNK):
            t = np.arange(start, min(count, start + _EXPORT_CHUNK)) / sample_rate
            bx, by = field_at(spec, row, t)
            for ti, bxi, byi in zip(t.tolist(), bx.tolist(), by.tolist()):
                fh.write(f"{ti!r},{bxi!r},{byi!r}\n")
    return count
