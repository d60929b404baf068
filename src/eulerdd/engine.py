"""Propagation of the driven spin and the Monte Carlo experiment runners.

Per realization a two-component wavefunction is propagated from |0>
under the rotating-frame Hamiltonian

    H(t) = (Omega(t) cos(phi) + b_x(t)) S_x
         + (Omega(t) sin(phi) + b_y(t)) S_y
         + delta S_z,

with Omega the pulse envelope, (b_x, b_y) the injected transverse
noise of one realization, and delta that realization's static
detuning.  Every step is in SU(2), so the state (a, b) that a run
holds at each readout time is the first column of the realization's
propagator U = [[a, -conj b], [b, conj a]], and a run returns that
column.  Readouts are read from it: a relaxation's population |a|^2,
a decoupling scan's or an FID's |<0| R U P |0>|^2, with P the
preparation and R the readout pulse, and ``propagate`` returns U
itself.  Ensemble averaging the projective readout over realizations
is equivalent to propagating the density matrix because every
realization evolves unitarily.

Realizations are propagated as one vectorized batch of (M,) arrays.
Delta pulses are exact pi rotations; every finite segment takes
fourth-order Magnus steps (the Omega^[4] integrator of Blanes, Casas,
Oteo & Ros, Phys. Rep. 470, 151 (2009)).  A step is one closed-form
SU(2) exponential,

    exp(-i t H) = cos(|h| t) - i (sin(|h| t) / |h|) H,   |h| = sqrt(delta^2/4 + |c|^2),

of an H built from its values at the step's two Gauss nodes plus
their commutator, which in SU(2) is a closed-form cross product, so
propagation is unitary by construction.  Its cosine and sine come from
one tangent, tn = tan(|h| t / 2), as (1 - tn^2) / (1 + tn^2) and 2 tn /
(1 + tn^2), since numpy's vectorized tan costs a fraction of a sin and
a cos.  Up to |h| t = 1e5 and at the poles of tn, the odd multiples of
pi, they stay within 2.2e-16 (cos) and 4.4e-16 (sin) of numpy's sin
and cos, and |alpha|^2 + |beta|^2 within 8.9e-16 of 1.  A step is
exact when H is constant over it.

A Gaussian pulse is integrated in the frame of its own drive (Viola &
Knill, PRL 90, 037901 (2003)).  With theta(t) the drive's angle so far
(control.pulse_angle, in closed form) and the pulse at phase phi, its
propagator is L U_I Z^dagger, with Z = exp(-i phi S_z) and L =
axis_rotation(phi, pi) Z.  The pulse's Magnus steps carry only the
noise: they multiply out to U_I, the propagator of the noise alone in
the pulse's axis frame, turned back about the pulse axis by theta(t).
Its rotations act on the state, which enters the axis frame by
Z^dagger before the steps and leaves it after them by L, the exact pi
rotation that a Delta pulse takes, turned by Z (``_pulse_frame``);
without the comb they fold into the pulse's class step.  The drive
never enters a step, so a pulse takes a third fewer steps than in the
lab frame for a smaller error (``_segment_steps``).  Every other finite
segment, an idle or a Square pulse, whose drive is constant, takes its
steps in the lab frame, which is the drive frame at angle 0, where a
Magnus step is exact for the constant drive.  Every step of every run
takes the same form: the field n = (Re c, -Im c, hz) at its two Gauss
nodes gives its mean m and difference d, and the step's commutator is
the full cross product k d x m (``_magnus_fields``).  One builder writes m and k
d of a block's steps as real planes (``_node_fields``); in the lab
frame hz is constant, so m_z = hz and d_z = 0, and a run without a
Gaussian pulse carries no z planes.

Where a segment's propagator does not depend on when it starts, as for
a Delta pulse and for every finite segment without the comb, it has
one class step per distinct (duration, phase): the pi rotation; for an
idle or a Square pulse, whose H is then constant, its one closed-form
exponential, taken directly; or for a Gaussian pulse the product of
its Magnus steps, multiplied out once, block by block, into one (1, M)
step, with the pulse's frame change folded in.  The Magnus route stays
for every H that varies.  Without the comb every segment has a class
step, so the state advances once per snapshot: the class steps of the
segments between two snapshots are multiplied into one (1, M) interval
step, once per distinct run of segments, such as the one XY8 cycle
between each two cycle counts of a regular scan.  The product of one
finite segment, as between two times of an FID grid, is that segment's
class step, bit for bit.  Under the comb a Delta pulse applies its
class step, and the finite segments of a run take their Magnus steps
from one pipeline: every step keeps its segment, start, index and
length, and the steps are built lazily in run order, in blocks of
(steps, M) arrays that run across segment and snapshot boundaries.
The lab-frame steps of a block that sum the comb directly share one
evaluation of the comb's basis and one comb sum for their node means
and one for their differences.
So a calibration's relaxation run, 16 short idles taking 17 to 40
steps in all, builds three to five blocks at M = 1000, not sixteen or
more.  A block is let go before the next is built, so a run holds one
block plus one (1, M) step per class and per interval, and only the
application of steps to the state is sequential.

The comb c(t) = sum_n coef_n e^{i omega_n t} changes slowly over a
segment of duration T: its top tone turns by omega_max T, 6.3e-3 rad
over a 100 ns pulse.  Its Chebyshev interpolant at k points of the
segment is within b_sup (omega_max T / 4)^k / k! of it, since |c^(k)|
<= omega_max^k b_sup / 2 and the node polynomial of k Chebyshev points
is at most 2 (T / 4)^k.  So a segment takes the smallest k with
(omega_max T / 4)^k / k! <= 2^-53, an error below b_sup 2^-53, about
one unit in the last place of c.  Where k (q + 2 nstep) < 2 nstep q,
with q = 2 n_max + 1, a segment sums the comb at its k points only and
forms each step's mean and difference of c over its two Gauss nodes
from them with fixed weights; with the rounding of both sums these stay
within b_sup 2^-51 of the direct sum's.  Elsewhere, as on calibration's
few long steps, a segment sums the comb at every node: its weights come
from the basis functions' values at its nodes, and its points are the
comb's coefficients.  A Gaussian pulse's turn by theta, which is the
same for every realization, is folded into its weights once per pulse,
with hz as one more point.

Every array expression is element-wise, except the comb sum and the
interpolation, each of which accumulates every (node, realization)
entry over its q basis functions or k points in a fixed order, one
multiply and one add at a time, in numpy's own einsum loop with no
BLAS (see noise._comb_sum and _point_sum).  So a realization's
trajectory depends only on its own draws and the run's step sizes, not
on the batch or block layout, and results are reproducible from the
master seed, bit for bit on one numpy build and SIMD dispatch level.

Step control, evaluated once per distinct (duration, is_pulse) of a
run, since the rule reads no other field of a segment: a segment with a
constant H (an idle or a Square pulse without the comb) takes one
step.  An idle or a Square pulse under the comb, of duration T, varies
only through the comb, so it takes max(1, ceil(T omega_max / 0.3),
ceil(T (peak drive + field bound + detuning bound) / 1)) steps: the top
comb tone turns by at most 0.3 rad per step and the spin by at most
1 rad (see _segment_steps).  A Gaussian pulse, of duration T, takes
max(1, ceil(T omega_max / 0.3), ceil(T max(peak drive, field bound +
detuning bound) / 0.4)) steps in its drive frame: the frame turns by at
most 0.4 rad per step, 16 steps for the 6.35 rad of an untruncated
Gaussian, and the noise turns the spin by no more where it outweighs
the drive.  A Gaussian truncated inside its pulse takes these steps on
its window and steps no longer than those on the zero-envelope margins
beside it, so no step straddles the envelope's jump.  An explicit dt
gives ceil(T / dt) steps instead.  The detuning bound is 4 sigma_delta
for a run (a draw exceeds it with probability 6e-5) and |delta| for
``propagate``, not the largest draw of a batch, so the steps do not
depend on which realizations share it.  An explicit dt is checked on
every finite segment (at most tau_d/50 on a Square pulse, at most 1 rad
of drive-frame turn per step on a Gaussian one, a priori local error
below 1e-6), raising StepTooLarge when too coarse.  Every propagation,
``propagate`` and the dd, fid and relaxation runners alike, is planned
from its specs before it draws any noise, and a run that needs more
than 2,000,000 steps on segments whose H varies is refused there; it
then goes through one batch entry point, ``_propagate_items``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .control import (PulseShape, Schedule, Segment, SequenceSpec, _envelope_margin,
                      build_schedule, prep_unitary, pulse_angle, pulse_envelope,
                      readout_unitary)
from .noise import (Comb, DephasingSpec, LorentzianNoiseSpec, _check_seed, _comb_sum,
                    _indices, derive_seed, sample_detuning, sample_realization)
from .su2core import axis_rotation

__all__ = [
    "StepTooLarge",
    "NoConvergence",
    "SimParams",
    "CurvePoint",
    "DecayCurve",
    "CalibrationResult",
    "DEFAULT_N_LIST",
    "golden_rule_amplitude",
    "propagate",
    "run_dd_scan",
    "run_fid",
    "run_relaxation",
    "calibrate_amplitude",
    "apply_envelope",
]


class StepTooLarge(ValueError):
    """A priori local-truncation estimate exceeds 1e-6 for the given dt."""


class NoConvergence(RuntimeError):
    """Amplitude calibration failed to bracket or converge."""


@dataclass(frozen=True)
class SimParams:
    """Monte Carlo integration parameters.

    dt = None selects the automatic per-segment step described in the
    module docstring.  An explicit dt is validated against every
    segment but sizes only the steps of segments whose H varies,
    shortened as needed to divide each one exactly; a segment with a
    constant H takes one exact step either way.
    """

    dt: float | None = None
    realizations: int = 1000
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        try:
            operator.index(self.realizations)
        except TypeError:
            raise ValueError(
                f"realizations must be an integer, got {self.realizations!r}") from None
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        _check_seed(self.master_seed)


@dataclass(frozen=True)
class CurvePoint:
    t: float
    N: int
    value: float
    stderr: float


@dataclass(frozen=True)
class DecayCurve:
    """Measured decay samples.

    Times are finite and strictly increasing, values in [0, 1], and
    stderrs finite and non-negative.
    """

    points: tuple[CurvePoint, ...]

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        for p in pts:
            if not math.isfinite(p.t):
                raise ValueError(f"curve time {p.t!r} is not finite")
            if not 0.0 <= p.value <= 1.0:
                raise ValueError(f"curve value {p.value!r} outside [0, 1]")
            if not 0.0 <= p.stderr < math.inf:
                raise ValueError(f"stderr {p.stderr!r} must be non-negative and finite")
        for a, b in zip(pts, pts[1:]):
            if b.t <= a.t:
                raise ValueError("curve times must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def t(self) -> np.ndarray:
        return np.array([p.t for p in self.points])

    @property
    def value(self) -> np.ndarray:
        return np.array([p.value for p in self.points])

    @property
    def stderr(self) -> np.ndarray:
        return np.array([p.stderr for p in self.points])

    def to_csv_text(self) -> str:
        lines = ["N,t_s,value,stderr"]
        for p in self.points:
            lines.append(f"{p.N},{float(p.t)!r},{float(p.value)!r},{float(p.stderr)!r}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv_text())


def golden_rule_amplitude(R: float, target_T1: float) -> float:
    """Rough amplitude guess A = sqrt(R / T1), used to bracket calibration."""
    return math.sqrt(R / target_T1)


# ---------------------------------------------------------------------------
# Batched propagation core

# Fourth-order Magnus step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
# (2009)): the Gauss nodes 1/2 -+ sqrt(3)/6 of the step.
_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
# Largest rotation angle per automatic step, in units of the rate bound.
_THETA = 0.3
# Largest turn of the spin per automatic step of an idle or a Square pulse.
_DRIVE_TURN = 1.0
# Largest turn of a Gaussian pulse's drive frame per automatic step (see
# _segment_steps).
_FRAME_TURN = 0.4
# (step, realization) entries whose nodes and propagators are computed at once,
# in whole steps and at least one: 8 steps at M = 1000, 1 step at M >= 8000,
# taken in run order from any segments.
# A block's arrays then take about 1 MB at any M, which the allocator keeps for
# the next block instead of returning it and faulting it in again.
_BLOCK = 8000
# Steps on segments whose H varies that one propagation or calibration run may take.
_STEP_BUDGET = 2_000_000


def _segment_steps(seg: Segment, shape: PulseShape, noise: Comb | None,
                   delta_max: float, explicit_dt: float | None) -> tuple[int, bool]:
    """A segment's step count and whether its H varies; (0, False) for zero duration.

    The step rule and the explicit-dt checks are those of the module
    docstring.  An idle or a Square pulse has a constant drive, so under
    the comb its H varies only through the comb, whose j-th derivative is
    at most omega_max^j b_sup / 2.  The Omega^[4] step is exact for a
    constant H, so each O(h^5) term of its local error (Blanes et al.) is
    a constant times a product, of degree 5 in h, of factors h |H| and at
    least one alpha_i = h^i H^(i-1) / (i-1)! with i >= 2, which is at most
    (h b_sup / 2) (h omega_max)^(i-1).  So only h omega_max <= 0.3 needs
    the rate scale, and h (Omega_peak + b_sup + delta_max) <= 1 bounds
    the other factors, h |H| and h b_sup / 2, by 1/2; without that bound
    a 24 ns pulse under the fig4 comb takes one step and its curve moves
    by 6e-8.

    A Gaussian pulse is integrated in its drive frame, where its field is
    the noise n = (Re c, -Im c, hz) turned back about the pulse axis by
    the drive angle theta(t) (``_node_weights``).  Its size |n| <= nu =
    (b_sup + delta_max) / 2 does not change, and it turns at the drive's
    rate Omega(t) <= Omega_peak and varies through the comb.  So every
    factor alpha_i above is now at most h nu (h (Omega_peak +
    omega_max))^(i-1): the drive never enters a step, and each error term
    carries the noise.  The largest, with one such factor, is of order
    (h Omega_peak)^4 h nu per step, or (h Omega_peak)^4 T nu over the
    pulse: a fixed fraction (h Omega_peak)^4 of the noise's own first-order
    action T nu on the spin, whatever the noise.  The lab-frame rule, h
    (Omega_peak + b_sup) <= 0.3, left an error of order 0.3^5 per step
    and no ratio of the noise to the drive, (b_sup + 4 sigma_delta) /
    Omega_peak = 0.16 for the fig4 pulse; the same error per step then
    allows h Omega_peak = 0.3 (1 / 0.16)^(1/5) = 0.43.  The rule takes h
    max(Omega_peak, b_sup + delta_max) <= _FRAME_TURN = 0.4 and h
    omega_max <= 0.3.  The drive's turn over an untruncated Gaussian is
    T Omega_peak = 6.35 rad, so it takes 16 steps at any duration (24 in
    the lab frame); the second bound, on the spin's turn by the noise,
    takes over only where the noise outweighs the drive, so the detuning
    bound changes no count below that.  A Gaussian truncated inside its
    pulse (gauss_trunc < 5/2) has a margin of zero envelope at each end,
    where the envelope jumps and the drive angle has a kink.  Its window
    between the margins takes the steps above for its own duration, and
    each margin, idle time in which the frame stands still, as many steps
    as keep them no longer than the window's (``_step_layout``), so no
    step straddles a jump.
    """
    if seg.duration == 0.0:
        return 0, False
    frame = seg.is_pulse and shape.kind == "Gaussian"
    if (seg.is_pulse and not frame and explicit_dt is not None
            and explicit_dt > seg.duration / 50.0):
        raise StepTooLarge(
            f"dt = {explicit_dt:.3e} exceeds tau_d/50 = {seg.duration / 50.0:.3e} "
            f"for a finite-width pulse")
    omega_peak = (float(pulse_envelope(shape, seg.duration, seg.duration / 2.0))
                  if seg.is_pulse else 0.0)
    if frame and explicit_dt is not None and explicit_dt * omega_peak > _DRIVE_TURN:
        raise StepTooLarge(
            f"dt = {explicit_dt:.3e} turns the drive frame by {explicit_dt * omega_peak:.2f} "
            f"rad per step, beyond {_DRIVE_TURN} rad")
    b_sup = noise.b_sup if noise is not None else 0.0
    comb_max = float(noise.omega[-1]) if noise is not None else 0.0
    # A pulse in its drive frame takes its window's steps and, beside each
    # margin where its envelope is zero, steps no longer than those.
    margin = _envelope_margin(shape, seg.duration) if frame else 0.0
    span = seg.duration - 2.0 * margin
    if explicit_dt is not None:
        nstep = max(1, math.ceil(span / min(explicit_dt, span) - 1e-9))
        h = span / nstep
        # A priori local error of a fourth-order step, ~ (|H| h)^5 / 120; the
        # drive leaves the steps of a pulse in its drive frame.
        drive = 0.0 if frame else omega_peak
        est = (0.5 * math.hypot(drive + b_sup, delta_max) * h) ** 5 / 120.0
        if est > 1e-6:
            raise StepTooLarge(
                f"local truncation estimate {est:.2e} > 1e-6 at dt = {h:.3e}; reduce dt")
    elif frame:
        nstep = max(1, math.ceil(span * comb_max / _THETA),
                    math.ceil(span * max(omega_peak, b_sup + delta_max) / _FRAME_TURN))
    else:
        nstep = max(1, math.ceil(seg.duration * comb_max / _THETA),
                    math.ceil(seg.duration * (omega_peak + b_sup + delta_max)
                              / _DRIVE_TURN))
    if margin > 0.0:
        # The fewest steps whose window part takes nstep; at most a few more
        # than the estimate nstep / (1 - 2 margin / T).
        window = nstep
        nstep = max(nstep, math.ceil(nstep * seg.duration / span) - 2)
        while nstep - 2 * _margin_steps(seg.duration, margin, nstep) < window:
            nstep += 1
    return (nstep, True) if noise is not None or frame else (1, False)


def _margin_steps(duration: float, margin: float, nstep: int) -> int:
    """Steps of each zero-envelope margin of a pulse of nstep steps (``_step_layout``).

    ceil(nstep margin / duration), so a margin step is no longer than
    duration / nstep, and at most (nstep - 1) / 2, so the window keeps one.
    """
    return min(math.ceil(nstep * margin / duration), (nstep - 1) // 2)


def _step_layout(seg: Segment, shape: PulseShape, nstep: int):
    """(h, rel) of the nstep steps of a segment.

    A segment takes nstep steps of equal length, except a Gaussian pulse
    truncated inside its pulse: each of its zero-envelope margins takes
    m = _margin_steps steps and the window between them the other nstep
    - 2 m, all of equal length within each part, so the window's steps
    are no shorter than the margins'.  h is the steps' length, a float
    when they share it, else the (nstep,) lengths; rel the (2, nstep)
    offsets of each step's two Gauss nodes from the segment's start.
    """
    margin = _envelope_margin(shape, seg.duration) if seg.is_pulse else 0.0
    m = _margin_steps(seg.duration, margin, nstep)
    if m == 0:
        h = seg.duration / nstep
        return h, (np.arange(nstep)[None, :] + _NODES[:, None]) * h
    span = seg.duration - 2.0 * margin
    window = nstep - 2 * m
    lengths = np.repeat([margin / m, span / window, margin / m], [m, window, m])
    starts = np.concatenate([np.arange(m) * (margin / m),
                             margin + np.arange(window) * (span / window),
                             (seg.duration - margin) + np.arange(m) * (margin / m)])
    return lengths, starts + _NODES[:, None] * lengths


def _exact_propagator(hz: np.ndarray, c, t: float):
    """exp(-i t H) for H = [[hz, c], [conj(c), -hz]] as four element-wise arrays.

    Returns (u00, u01, u10, u11) = (alpha, beta, -conj(beta), conj(alpha))
    with alpha = cos(w t) - i r hz and beta = -i r c, where w =
    sqrt(hz^2 + |c|^2) and r = sin(w t) / w (r = t where w = 0).  Both
    come from one tangent, tn = tan(w t / 2): cos(w t) = (1 - tn^2) / (1 +
    tn^2) and r = 2 tn / ((1 + tn^2) w).  w^2 is summed from products
    and tn is taken of a fresh contiguous array, because numpy's abs and
    tan round differently on some strides; so every entry gets the same
    bytes in any batch layout.  alpha and beta are written part by part
    from real arrays.  hz is an array and c an array or scalar that
    broadcasts with it, such as one row per step and one column per
    realization, or the pair (Re c, Im c) of such real arrays; t is a
    float or an array that broadcasts with them, such as one row per step.
    """
    c_re, c_im = c if isinstance(c, tuple) else (c.real, c.imag)
    w = np.multiply(hz, hz, out=np.empty(np.broadcast(hz, c_re).shape))
    w += c_re * c_re
    w += c_im * c_im
    np.sqrt(w, out=w)
    tn = w * (0.5 * t)
    np.tan(tn, out=tn)
    den = tn * tn
    alpha = np.empty(w.shape, dtype=complex)
    beta = np.empty(w.shape, dtype=complex)
    np.subtract(1.0, den, out=alpha.real)
    den += 1.0
    alpha.real /= den
    den *= w
    with np.errstate(invalid="ignore"):
        r = np.divide(tn, den, out=tn)
    r += r
    np.copyto(r, t, where=w == 0.0)
    np.multiply(r, c_im, out=beta.real)
    np.negative(r, out=r)
    np.multiply(r, hz, out=alpha.imag)
    np.multiply(r, c_re, out=beta.imag)
    minus_conj_beta = np.conj(beta)
    np.negative(minus_conj_beta.view(float), out=minus_conj_beta.view(float))
    return alpha, beta, minus_conj_beta, np.conj(alpha)


def _comb_interpolation(duration: float, nstep: int, noise: Comb, rel: np.ndarray):
    """Chebyshev points and Gauss-node weights that interpolate the comb on a segment.

    Returns None when the direct comb sum at the 2 nstep Gauss nodes is
    cheaper, else (points, lagrange): the k first-kind Chebyshev points
    of [0, duration], k the smallest with (omega_max duration / 4)^k / k!
    <= 2^-53, and the (2, nstep, k) Lagrange weights of every step's
    first (row 0) and second (row 1) Gauss node, at the offsets ``rel``
    (2, nstep) from the segment's start.  The interpolant of c at k such
    points is within b_sup (omega_max duration / 4)^k / k! of c (module
    docstring), and costs k (q + 2 nstep) multiply-adds per realization
    against 2 nstep q for the direct sum, with q = 2 n_max + 1 basis
    functions.  Each weight row is computed from its own node alone.
    """
    q = noise.parts.shape[0]
    rate = float(noise.omega[-1]) * duration / 4.0
    k, term = 0, 1.0
    while term > 2.0 ** -53:
        k += 1
        if k * (q + 2 * nstep) >= 2 * nstep * q:
            return None
        term *= rate / k
    x = np.cos((2 * np.arange(k) + 1) * (np.pi / (2 * k)))
    y = 2.0 * rel / duration - 1.0
    # Lagrange weight i of node y: the product over j != i of (y - x_j) / (x_i - x_j).
    other = ~np.eye(k, dtype=bool)
    factors = (y[..., None, None] - x) / np.where(other, x[:, None] - x, 1.0)
    return 0.5 * duration * (1.0 + x), np.where(other, factors, 1.0).prod(axis=-1)


def _node_weights(w: np.ndarray, turn: tuple | None, k: np.ndarray):
    """The weights of the node means and k times the node differences of a segment's steps.

    ``w`` (2, s, Q) weighs Q points of a segment's field at each step's
    first and second Gauss node; k (s,) holds the steps' Magnus factors
    sqrt(3) h / 6.  Returns (wa, wr).  wa (2, s, Q) gives each step's
    mean and k times its difference of any point row's values.  For a
    lab-frame segment (turn None) wr is None: wa gives the transverse
    field's real and imaginary parts alike.  For a Gaussian pulse, turn
    holds the (2, s) cosines and sines of the drive angle theta at the
    nodes.  In the pulse's axis frame, with the drive along x and c~ =
    e^{i phi} c, the drive frame turns the field (Re c~, -Im c~, hz)
    about x by -theta: Re c~ stays, Im c~ becomes cos(theta) Im c~ -
    sin(theta) hz and hz becomes cos(theta) hz + sin(theta) Im c~.  So wa
    gives the mean and k times the difference of Re c~ from the points'
    real parts, and wr (4, s, Q + 1) those of Im c~ and then of hz from
    their imaginary parts and one more point, hz itself.
    """
    w1, w2 = w
    k = np.reshape(k, (-1, 1))
    wa = np.empty(w.shape)
    np.multiply(np.add(w1, w2, out=wa[0]), 0.5, out=wa[0])
    np.multiply(np.subtract(w1, w2, out=wa[1]), k, out=wa[1])
    if turn is None:
        return wa, None
    (c1, c2), (s1, s2) = turn[0][..., None], turn[1][..., None]
    im1, im2 = np.concatenate([c1 * w1, -s1], axis=-1), np.concatenate([c2 * w2, -s2], axis=-1)
    z1, z2 = np.concatenate([s1 * w1, c1], axis=-1), np.concatenate([s2 * w2, c2], axis=-1)
    return wa, np.stack([0.5 * (im1 + im2), k * (im1 - im2), 0.5 * (z1 + z2), k * (z1 - z2)])


def _point_sum(weights: np.ndarray, points: np.ndarray, out: np.ndarray) -> None:
    """out[j, s, m] = sum_q weights[j, s, q] points[q, m], in numpy's einsum loop.

    As in noise._comb_sum, the inner loop runs along the realizations,
    so each entry is summed one multiply and one add at a time in the
    order q = 0, 1, ..., whatever the other rows and columns.  A single
    column would make the loop run along q instead, which rounds
    differently, so it is summed as two.
    """
    if points.shape[1] == 1:
        out[...] = np.einsum("jsq,qm->jsm", weights, np.repeat(points, 2, axis=1))[..., :1]
    else:
        np.einsum("jsq,qm->jsm", weights, points, out=out)


@dataclass(frozen=True)
class _StepClass:
    """What the Magnus steps of one distinct segment share, wherever it starts.

    h is the steps' length, a float when they share it, else the
    (nstep,) lengths (``_step_layout``); k the (nstep,) steps' Magnus
    factors sqrt(3) h / 6; and rel the (2, nstep) offsets of every
    step's two Gauss nodes from the segment's start.  turn is None for a
    lab-frame segment, an idle or a Square pulse, and for a Gaussian pulse
    the (2, nstep) cosines and sines of its drive angle at the nodes.
    drive is a Square pulse's constant drive 0.5 Omega e^{-i phi}, which
    adds to its steps' node means only, else None.  points holds the
    segment's Chebyshev points, where it interpolates the comb, and
    weights its ``_node_weights`` over them; both are None where the
    segment sums the comb directly.  Without the comb there are no
    points: points is None, and so is weights but for a Gaussian pulse,
    whose weights weigh hz alone.
    """

    h: float | np.ndarray
    k: np.ndarray
    rel: np.ndarray
    turn: tuple | None
    drive: complex | None
    points: np.ndarray | None
    weights: tuple | None


def _step_class(seg: Segment, shape: PulseShape, noise: Comb | None, nstep: int) -> _StepClass:
    """The ``_StepClass`` of a segment taking nstep steps."""
    h, rel = _step_layout(seg, shape, nstep)
    k = np.full(nstep, math.sqrt(3.0) * h / 6.0)
    turn = drive = None
    if seg.is_pulse and shape.kind == "Gaussian":
        theta = pulse_angle(shape, seg.duration, rel)
        turn = np.cos(theta), np.sin(theta)
    elif seg.is_pulse:
        drive = _square_drive(seg, shape)
    points = weights = None
    if noise is not None:
        interpolation = _comb_interpolation(seg.duration, nstep, noise, rel)
        if interpolation is not None:
            points, weights = interpolation[0], _node_weights(interpolation[1], turn, k)
    elif turn is not None:  # a Gaussian pulse's only point is hz
        weights = _node_weights(np.empty((2, nstep, 0)), turn, k)
    return _StepClass(h, k, rel, turn, drive, points, weights)


def _square_drive(seg: Segment, shape: PulseShape) -> complex:
    """A Square pulse's constant drive 0.5 Omega e^{-i phi}."""
    return 0.5 * np.exp(-1j * seg.phase) * float(pulse_envelope(shape, seg.duration, 0.0))


def _segment_points(step_class: _StepClass, phase: float | None, t_abs: float,
                    noise: Comb | None, hz: np.ndarray, parts: dict):
    """The points that the weights of one segment sum, wherever it starts.

    A lab-frame segment's are the comb's values at its Chebyshev points,
    as one (Q, M, 2) array of their real and imaginary parts, or None
    where the block sums the comb for it directly (``_block_fields``) or
    there is no comb.  A Gaussian pulse's are (re, im): re (Q, M) holds
    Re c~ and im (Q + 1, M) Im c~ and then hz, with c~ = e^{i phi} c at
    its Chebyshev points, none without the comb, or where it sums the
    comb directly the comb's coefficients, shared by the pulses of one
    phase in ``parts``.
    """
    if step_class.turn is None:
        if step_class.points is None:
            return None
        values = noise.c_at(t_abs + step_class.points).T
        return values.view(float).reshape(*values.shape, 2)
    direct = noise is not None and step_class.points is None
    if direct and phase in parts:
        return parts[phase]
    if noise is None:
        values = np.empty((0, hz.size), complex)
    elif direct:
        values = noise.parts.view(complex)[..., 0]
    else:
        values = noise.c_at(t_abs + step_class.points).T
    values = values * np.exp(1j * phase)
    points = np.ascontiguousarray(values.real), np.concatenate([values.imag, hz[None, :]])
    if direct:
        parts[phase] = points
    return points


def _node_fields(plan, shape: PulseShape, noise: Comb | None, hz: np.ndarray):
    """Yield (h, f) for the Magnus steps of ``plan``, one block at a time.

    ``plan`` lists finite segments in run order as (seg, t_abs, nstep):
    the segment starts at t_abs and takes nstep steps; hz (M,) holds
    the realizations' delta / 2.  A block holds max(1, _BLOCK // M)
    steps, filled in run order whatever segment a step belongs to, and
    the last block the rest.  h is the steps' length, a float when they
    share it, else an (s, 1) column.  f holds six planes, each (s, M) or
    broadcasting to it, of the steps' node means m and k = sqrt(3) h / 6
    times their node differences d of the field n = (Re c, -Im c, hz):
    [Re m, k Re d, Im m, k Im d, m_z, k d_z].  A run with a Gaussian
    pulse, whose drive frame turns hz into the transverse field and back,
    builds all six; any other run builds the first four, and its z field
    is hz itself, with no difference.
    """
    size = max(1, _BLOCK // hz.size)
    z = shape.kind == "Gaussian" and any(seg.is_pulse for seg, _, _ in plan)
    classes, parts = {}, {}
    chunks, filled = [], 0
    for seg, t_abs, nstep in plan:
        if seg not in classes:
            classes[seg] = _step_class(seg, shape, noise, nstep)
        step_class = classes[seg]
        points = _segment_points(step_class, seg.phase, t_abs, noise, hz, parts)
        done = 0
        while done < nstep:
            take = min(nstep - done, size - filled)
            chunks.append((step_class, t_abs, done, done + take, points))
            done += take
            filled += take
            if filled == size:
                yield _block_fields(chunks, noise, hz, z)
                chunks, filled = [], 0
    if chunks:
        yield _block_fields(chunks, noise, hz, z)


def _block_fields(chunks, noise: Comb | None, hz: np.ndarray, z: bool):
    """(h, f) of ``_node_fields`` for one block of chunks (_StepClass, t_abs, j0, j1, points).

    A chunk is steps j0 .. j1 - 1 of one segment and writes its own rows
    of the planes.  A Gaussian pulse's chunk sums its weights wa and wr
    over its ``_segment_points`` with ``_point_sum``, with weights from
    the basis at its own nodes where it sums the comb directly.  A
    lab-frame chunk sums its weights wa over the real and imaginary parts
    of c at once, in the contraction that sums the comb (noise._comb_sum),
    one for the means and one for the k differences; the lab-frame chunks
    that sum the comb directly share one ``Comb.basis`` call at all their
    nodes, first nodes then second nodes, and these two contractions over
    ``noise.parts``.  Without the comb a lab-frame chunk's transverse
    planes are zero.  Its z planes, where the block has them, are hz and
    0, and a Square pulse's drive then adds to its mean planes.
    """
    counts = [j1 - j0 for _, _, j0, j1, _ in chunks]
    lengths = [step_class.h for step_class, *_ in chunks]
    if all(isinstance(length, float) for length in lengths):
        h = lengths[0] if len(set(lengths)) == 1 else np.repeat(lengths, counts)[:, None]
    else:
        h = np.concatenate([np.broadcast_to(step_class.h, step_class.k.shape)[j0:j1]
                            for step_class, _, j0, j1, _ in chunks])[:, None]
    f = (np.empty if noise is not None else np.zeros)((6 if z else 4, sum(counts), hz.size))

    def put(rows, sums, j):
        # Lab-frame rows' complex means (j = 0) or k diffs (j = 1) of c, summed
        # into one (s, M) array that serves both halves, so a block holds no
        # more than the planes and that array.  With one (2 s, M) array for
        # both halves, malloc returned the heap's top to the system after
        # most runs, and a calibrate_t1 repeat faulted in about 1,700 pages,
        # not about 130, and took 11% longer (perfbench/run.py).
        f[j, rows] = sums.real
        f[2 + j, rows] = sums.imag

    row, direct, spans, drives = 0, [], [], []
    for step_class, t_abs, j0, j1, points in chunks:
        rows = slice(row, row + j1 - j0)
        row = rows.stop
        if step_class.turn is not None:  # a Gaussian pulse
            weights = step_class.weights
            if weights is None:  # it sums the comb directly
                basis = noise.basis((t_abs + step_class.rel[:, j0:j1]).ravel())
                weights = _node_weights(basis.reshape(2, j1 - j0, -1),
                                        tuple(x[:, j0:j1] for x in step_class.turn),
                                        step_class.k[j0:j1])
                j0, j1 = 0, j1 - j0
            _point_sum(weights[0][:, j0:j1], points[0], f[0:2, rows])
            _point_sum(weights[1][:, j0:j1], points[1], f[2:6, rows])
            continue
        if z:
            f[4, rows] = hz
            f[5, rows] = 0.0
        if step_class.drive is not None:
            drives.append((rows, step_class.drive))
        if points is not None:
            sums = None
            for j in range(2):
                sums = _comb_sum(step_class.weights[0][j, j0:j1], points, sums)
                put(rows, sums, j)
        elif noise is not None:
            direct.append((step_class, t_abs, j0, j1))
            # Consecutive such chunks keep consecutive rows of the sums.
            if spans and spans[-1].stop == rows.start:
                spans[-1] = slice(spans[-1].start, rows.stop)
            else:
                spans.append(rows)
    if direct:
        nodes = np.concatenate([t_abs + c.rel[:, j0:j1] for c, t_abs, j0, j1 in direct], axis=1)
        k = np.concatenate([c.k[j0:j1] for c, _, j0, j1 in direct])
        wa, _ = _node_weights(noise.basis(nodes.ravel()).reshape(2, k.size, -1), None, k)
        sums = None
        for j in range(2):
            sums, first = _comb_sum(wa[j], noise.parts, sums), 0
            for rows in spans:
                put(rows, sums[first:first + rows.stop - rows.start], j)
                first += rows.stop - rows.start
    for rows, drive in drives:
        f[0, rows] += drive.real
        f[2, rows] += drive.imag
    if z:
        return h, tuple(f)
    return h, (*f, hz, 0.0)


def _magnus_steps(plan, shape: PulseShape, noise: Comb | None, hz: np.ndarray):
    """Yield the propagators of the Magnus steps of ``plan``, one block at a time.

    ``plan`` and the blocks are those of ``_node_fields``; each block is
    (u00, u01, u10, u11), (steps, M) arrays, the exponentials of the
    steps' effective fields and nothing more.  A Gaussian pulse's steps
    carry only the noise in its drive frame, taken in the pulse's axis
    frame: they multiply out to U_I, and the frame change around them is
    applied to the state (``_pulse_frame``).  A block's node fields are
    let go before its exponentials are taken, and its effective fields
    before the next block is built.
    """
    for h, f in _node_fields(plan, shape, noise, hz):
        hz_eff, c_eff = _magnus_fields(f)
        del f
        u = _exact_propagator(hz_eff, c_eff, h)
        del hz_eff, c_eff
        yield u
        del u


def _pulse_frame(phase: float):
    """(e^{i phi / 2}, L): the frame change around a Gaussian pulse's steps at phase phi.

    The pulse's propagator is L U_I Z^dagger, with U_I the product of its
    Magnus steps and Z = exp(-i phi S_z).  Z^dagger enters the pulse's
    axis frame, scaling a state (a, b) to (e^{i phi / 2} a, e^{-i phi / 2}
    b), and L = axis_rotation(phi, pi) Z leaves it with the pulse's exact
    pi rotation; L is returned as a step of four (1,) arrays (``_apply``).
    """
    half = complex(np.exp(0.5j * phase))
    turn = axis_rotation(phase, math.pi) * np.array([half.conjugate(), half])
    return half, tuple(turn.reshape(4, 1))


def _magnus_fields(f):
    """The effective (hz_eff, (Re c_eff, Im c_eff)) of a block of Magnus steps from its planes f.

    A step of length h with fields n1, n2 at its two Gauss nodes, H = n .
    sigma with n = (Re c, -Im c, hz), is exp(-i h H_eff), Omega^[4] =
    (h/2)(A1 + A2) - (sqrt(3) h^2 / 12)[A1, A2] with A = -iH; in SU(2) the
    commutator is a cross product, so with k = sqrt(3) h / 6, the node
    mean m and difference d = n1 - n2, n_eff = m - k d x m.  In c and z,

        c_eff = m_c - i (m_z k d_c - k d_z m_c),
        hz_eff = m_z + Im(conj(k d_c) m_c),

    and H_eff = H when n1 = n2.  f holds the planes of ``_node_fields``,
    [Re m, k Re d, Im m, k Im d, m_z, k d_z].  hz_eff and the parts of
    c_eff are written from them in place.
    """
    re_m, re_kd, im_m, im_kd, m_z, kd_z = f
    hz_eff = re_kd * im_m
    term = im_kd * re_m
    hz_eff -= term
    hz_eff += m_z
    c_re = np.multiply(m_z, im_kd)
    c_re += re_m
    np.multiply(kd_z, im_m, out=term)
    c_re -= term
    c_im = np.multiply(m_z, re_kd)
    np.subtract(im_m, c_im, out=c_im)
    np.multiply(kd_z, re_m, out=term)
    c_im += term
    return hz_eff, (c_re, c_im)


def _rows(blocks):
    """(block, j) for every step j of every block, in order.

    A block is let go before the next one is built.
    """
    for u in blocks:
        for j in range(u[0].shape[0]):
            yield u, j
        del u


def _apply(u, j, a, b):
    """Step j of u = (u00, u01, u10, u11) applied to the column pair (a, b)."""
    return u[0][j] * a + u[1][j] * b, u[2][j] * a + u[3][j] * b


def _product(blocks):
    """The SU(2) steps of ``blocks``, applied in order, multiplied into one step.

    Each block is (u00, u01, u10, u11) with one row per step, and so is
    the result, with one row.  The steps are streamed onto the product's
    |0> column (x, y), which starts from the first step's column; its
    SU(2) partner is (-conj y, conj x).  So the product of one step that
    is itself in this form, a Magnus step or a product, keeps its bytes.
    """
    x = y = None
    for u in blocks:
        for j in range(u[0].shape[0]):
            x, y = (u[0][j], u[2][j]) if x is None else _apply(u, j, x, y)
    return x[None], -np.conj(y)[None], y[None], np.conj(x)[None]


def _class_step(seg: Segment, shape: PulseShape, hz: np.ndarray, nstep: int):
    """The one step of a segment whose propagator does not depend on its start.

    A Delta pulse's step is its exact pi rotation about (cos phi, sin
    phi), four (1,) arrays.  A comb-free idle or Square pulse has a
    constant H, so its step is one ``_exact_propagator`` of hz and the
    pulse's constant drive: the bytes of its one Magnus step, whose node
    difference is zero.  A comb-free Gaussian pulse's step is L U_I
    Z^dagger (``_pulse_frame``): the ``_product`` U_I of its nstep Magnus
    steps, streamed one block at a time, carries the noise, and since
    Z^dagger |0> = e^{i phi / 2} |0>, the step's column is e^{i phi / 2} L
    times U_I's.
    """
    if seg.duration == 0.0:
        return tuple(axis_rotation(seg.phase, math.pi).reshape(4, 1))
    if not (seg.is_pulse and shape.kind == "Gaussian"):
        drive = _square_drive(seg, shape) if seg.is_pulse else 0j
        return _exact_propagator(hz[None], drive, seg.duration)
    half, turn = _pulse_frame(seg.phase)
    x, _, y, _ = _product(_magnus_steps([(seg, 0.0, nstep)], shape, None, hz))
    x, y = _apply(turn, 0, half * x, half * y)
    return x, -np.conj(y), y, np.conj(x)


def _propagate_items(items, shape: PulseShape, noise: Comb | None,
                     deltas: np.ndarray) -> list[np.ndarray]:
    """Propagate a batch from |0> through ("seg", Segment, nstep, varies) / ("snap",) items.

    The one propagation entry point, after a run's ``_plan``: nstep and
    varies are the segment's ``_segment_steps``.  Every one of
    the M = deltas.size realizations starts at |0>; returns one (M, 2)
    copy of their states (a, b) per "snap" marker, at each marker the
    first column of each one's propagator.  A Delta pulse, and every
    finite segment without the comb, does not depend on when it starts:
    its ``_class_step`` is built once per distinct (duration, phase).
    Without the comb every segment is such a step, so the state advances
    once per "snap" marker, by the ``_product`` of the class steps of the
    segments since the last marker, built once per distinct tuple of
    segments.  Under the comb a Delta pulse applies its class step, and
    the finite segments apply the run's Magnus steps in order, from one
    ``_magnus_steps`` over all of them, built one block at a time; a
    Gaussian pulse's steps carry only the noise, so the state enters the
    pulse's axis frame before them and leaves it, with the pulse's pi
    rotation, after them (``_pulse_frame``, once per phase).  It keeps no
    diagnostics: ``propagate`` reads the step counts from the items and
    the norm drift from the snapshots.
    """
    a, b = np.ones(deltas.size, complex), np.zeros(deltas.size, complex)
    hz = 0.5 * np.asarray(deltas, dtype=float)
    snaps: list[np.ndarray] = []
    steps, intervals, frames = {}, {}, {}
    interval = []  # the comb-free "seg" items since the last marker

    def class_step(item):
        _, seg, nstep, _ = item
        if seg not in steps:  # one per (duration, phase)
            steps[seg] = _class_step(seg, shape, hz, nstep)
        return steps[seg]

    if noise is not None:
        plan, t_abs = [], 0.0
        for item in items:
            if item[0] == "seg":
                if item[1].duration > 0.0:
                    plan.append((item[1], t_abs, item[2]))
                t_abs += item[1].duration
        magnus = _rows(_magnus_steps(plan, shape, noise, hz))
    for item in items:
        if item[0] == "snap":
            if interval:
                key = tuple(interval)
                if key not in intervals:
                    intervals[key] = _product(map(class_step, interval))
                a, b = _apply(intervals[key], 0, a, b)
                interval = []
            snaps.append(np.empty((deltas.size, 2), complex))
            snaps[-1][:, 0] = a
            snaps[-1][:, 1] = b
        elif noise is None:
            interval.append(item)
        elif item[1].duration == 0.0:
            a, b = _apply(class_step(item), 0, a, b)
        else:
            seg = item[1]
            framed = seg.is_pulse and shape.kind == "Gaussian"
            if framed:
                if seg.phase not in frames:
                    frames[seg.phase] = _pulse_frame(seg.phase)
                half, turn = frames[seg.phase]
                a, b = a * half, b * half.conjugate()
            for _ in range(item[2]):
                a, b = _apply(*next(magnus), a, b)
            if framed:
                a, b = _apply(turn, 0, a, b)
    return snaps


def _split_idles_at(schedule: Schedule, times: list[float]):
    """Item list with a "snap" marker inserted at each requested time.

    Snapshot times must fall on segment boundaries or inside idle
    segments, which are split; a time inside a pulse is an error.
    Boundary matching absorbs the float drift of summing segment
    durations by comparing at 1e-6 of the shortest segment, and a time
    that close to an idle's midpoint splits it into two exact halves,
    which then share their step.  A zero-length idle is left out.
    """
    items: list[tuple] = []
    queue = sorted(times)
    qi = 0
    t = 0.0
    positive = [seg.duration for seg in schedule.segments if seg.duration > 0]
    tol = 1e-6 * min(positive) if positive else 0.0
    for seg in schedule.segments:
        t_end = t + seg.duration
        while qi < len(queue) and queue[qi] <= t + tol:
            items.append(("snap",))
            qi += 1
        while qi < len(queue) and queue[qi] < t_end - tol:
            if seg.is_pulse:
                raise ValueError(f"snapshot time {queue[qi]!r} falls inside a pulse")
            cut, rest = queue[qi] - t, t_end - queue[qi]
            if abs(cut - seg.duration / 2) <= tol:
                cut = rest = seg.duration / 2
            if cut > 0.0:  # a repeated time cuts nothing
                items.append(("seg", Segment(cut, None)))
            items.append(("snap",))
            seg = Segment(rest, None)
            t = queue[qi]
            qi += 1
        if seg.duration > 0.0 or seg.is_pulse:
            items.append(("seg", seg))
        t = t_end
    while qi < len(queue):
        if queue[qi] > t + tol:
            items.append(("seg", Segment(queue[qi] - t, None)))
            t = queue[qi]
        items.append(("snap",))
        qi += 1
    return items


# Stream tags mixed into SimParams.master_seed when a spec carries no seed.
_TAG_NOISE = 0x656E676E
_TAG_DETUNING = 0x656E6764


def _seeded(spec, params: SimParams, tag: int):
    """The spec if it carries a seed, else a copy seeded by derive_seed(master_seed, tag)."""
    if spec.master_seed is not None:
        return spec
    return replace(spec, master_seed=derive_seed(params.master_seed, tag))


def _prepare_batch(noise_spec: LorentzianNoiseSpec | None,
                   dephasing: DephasingSpec | None, params: SimParams, indices=None,
                   phasors: np.ndarray | None = None):
    """The comb (None without a field) and detunings of realizations ``indices``.

    indices defaults to the run's 0 .. M-1; the draws are in index order.
    ``phasors``, if given, are e^{i phi} of the comb phase rows already
    drawn for them.
    """
    idx = np.arange(params.realizations) if indices is None else indices
    noise = None
    if noise_spec is not None and noise_spec.A > 0.0:
        spec = _seeded(noise_spec, params, _TAG_NOISE)
        noise = (Comb.of(spec, sample_realization(spec, idx)) if phasors is None
                 else Comb._of_phasors(spec, phasors))
    if dephasing is None:
        return noise, np.zeros(len(idx))
    return noise, sample_detuning(_seeded(dephasing, params, _TAG_DETUNING), idx)


def _undrawn(noise_spec: LorentzianNoiseSpec | None) -> Comb | None:
    """The comb of ``noise_spec`` with no realizations, None without a field.

    Its b_sup and omega, the only fields of a comb that the step rule
    reads, are those of every drawn comb of the spec, so a run can be
    planned and refused before it draws.
    """
    if noise_spec is not None and noise_spec.A > 0.0:
        return Comb.of(noise_spec, np.empty((0, noise_spec.indices.size)))
    return None


def _plan(schedule: Schedule, times: list[float], noise: Comb | None, delta_max: float,
          dt: float | None):
    """(items, shape) of a run: its step plan, checked against the step budget.

    items are ``_split_idles_at``'s, each "seg" item extended by its
    ``_segment_steps`` (nstep, varies), and shape is the schedule's pulse
    shape.  The step rule runs once per distinct (duration, is_pulse), the
    only segment fields it reads, sized by the detuning bound delta_max,
    which the caller takes from the spec and not from the batch's draws.
    It reads only the comb's b_sup and omega, so ``_undrawn`` plans a run
    as its drawn comb does.  ValueError when segments whose H varies need
    more than _STEP_BUDGET steps.
    """
    shape = schedule.spec.shape if schedule.spec is not None else PulseShape("Square")
    rule: dict[tuple[float, bool], tuple[int, bool]] = {}
    items = []
    for item in _split_idles_at(schedule, times):
        if item[0] == "seg":
            key = (item[1].duration, item[1].is_pulse)
            if key not in rule:
                rule[key] = _segment_steps(item[1], shape, noise, delta_max, dt)
            item += rule[key]
        items.append(item)
    steps = sum(item[2] for item in items if item[0] == "seg" and item[3])
    if steps > _STEP_BUDGET:
        raise ValueError(f"the run needs {steps:,} integration steps, beyond the "
                         f"budget of {_STEP_BUDGET:,}; shorten it or weaken the noise")
    return items, shape


def _curve(schedule: Schedule, times: list[float], ns: list[int],
           noise_spec: LorentzianNoiseSpec | None, dephasing: DephasingSpec | None,
           params: SimParams, pulses: bool, phasors: np.ndarray | None = None) -> DecayCurve:
    """Mean ground-state population and its stderr at each of the sorted times, N = ns[k].

    Every point is read from the propagator's first column (a, b) at its
    time: |a|^2, the population of a run from |0>, or with ``pulses``
    |<0| R U P |0>|^2, that of the superposition prepared by P =
    prep_unitary() and read out after R = readout_unitary(), which is
    linear in a, conj a, b and conj b.  Each point is read from its own
    snapshot: one array of all of them, 512 KB for a calibration run's
    16 points at M = 1000, is fresh memory on every run, and made a
    calibration about 10% slower.  ``phasors`` are passed on to
    ``_prepare_batch``.  Repeated times, and a run beyond the step
    budget, raise ValueError before any draw.
    """
    if any(later <= t for t, later in zip(times, times[1:])):
        raise ValueError("curve times must be strictly increasing")
    delta_max = 4.0 * dephasing.sigma_delta if dephasing is not None else 0.0
    plan = _plan(schedule, times, _undrawn(noise_spec), delta_max, params.dt)
    noise, deltas = _prepare_batch(noise_spec, dephasing, params, phasors=phasors)
    states = _propagate_items(*plan, noise, deltas)
    if pulses:
        (r0, r1), (p0, p1) = readout_unitary()[0], prep_unitary()[:, 0]
    pop = np.empty((len(times), deltas.size))
    for row, (a, b) in zip(pop, (psi.T for psi in states)):
        if pulses:  # <0| R U P |0>
            a = r0 * p0 * a + r1 * p1 * np.conj(a) + r1 * p0 * b - r0 * p1 * np.conj(b)
        np.add(a.real**2, a.imag**2, out=row)
    np.clip(pop, 0.0, 1.0, out=pop)
    values = np.mean(pop, axis=1)
    stderrs = (np.std(pop, axis=1, ddof=1) / math.sqrt(deltas.size) if deltas.size > 1
               else np.zeros(len(times)))
    return DecayCurve(tuple(CurvePoint(t, n, float(value), float(stderr))
                            for t, n, value, stderr in zip(times, ns, values, stderrs)))


def apply_envelope(curve: DecayCurve, T2: float) -> DecayCurve:
    """Multiply a curve by the intrinsic-dephasing envelope 0.5 e^{-(t/T2)^2} + 0.5.

    Both value and stderr are scaled by the same factor; this models
    decoherence channels that are measured but not simulated.
    """
    if not 0 < T2 < math.inf:
        raise ValueError("envelope T2 must be positive and finite")
    pts = []
    for p in curve.points:
        factor = 0.5 * math.exp(-((p.t / T2) ** 2)) + 0.5
        pts.append(CurvePoint(p.t, p.N, p.value * factor, p.stderr * factor))
    return DecayCurve(tuple(pts))


# ---------------------------------------------------------------------------
# Public entry points


def propagate(schedule: Schedule,
              noise_spec: LorentzianNoiseSpec | None = None,
              realization_index: int = 0,
              delta: float = 0.0,
              params: SimParams | None = None,
              snapshot_times: list[float] | None = None,
              diagnostics: dict | None = None):
    """Propagator of a single realization through a schedule.

    The realization is propagated from |0>, which gives the first column
    (a, b) of its propagator U = [[a, -conj b], [b, conj a]].  Returns U
    as a 2x2 complex array at the schedule's end, or a list of them at
    the sorted `snapshot_times` when those are given; a state psi
    evolves to U @ psi.  Bad input (a realization index outside
    [0, 2^64), a non-finite delta, a negative or non-finite snapshot
    time) raises ValueError before any work; like
    every run, it also raises ValueError before it draws when it
    needs more than 2,000,000 steps on segments whose H varies.
    `diagnostics`, if provided, receives "integrated_steps" (Magnus
    steps on segments whose H varies) and "exact_segments" (segments
    with a constant H, each one exact step, and Delta pulses), both
    counted from the run's step plan, and "max_norm_drift", the largest
    | |(a, b)| - 1 | at a readout (each snapshot time, or the final
    time), which only rounding moves.
    """
    params = params or SimParams()
    index = _indices(realization_index)
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    times = ([schedule.total_time] if snapshot_times is None
             else _checked_times(snapshot_times))
    items, shape = _plan(schedule, times, _undrawn(noise_spec), abs(float(delta)), params.dt)
    noise, _ = _prepare_batch(noise_spec, None, params, index)
    snaps = _propagate_items(items, shape, noise, np.array([float(delta)]))
    if diagnostics is not None:
        segs = [item for item in items if item[0] == "seg"]
        drift = max(float(np.max(np.abs(np.linalg.norm(psi, axis=1) - 1.0))) for psi in snaps)
        diagnostics.update(integrated_steps=sum(item[2] for item in segs if item[3]),
                           exact_segments=sum(not item[3] for item in segs),
                           max_norm_drift=drift)
    props = [np.array([[a, -np.conj(b)], [b, np.conj(a)]]) for a, b in (col[0] for col in snaps)]
    return props if snapshot_times is not None else props[-1]


# The N grid of a dd config without n_list: multiples of 8 up to 360, 16 points.
DEFAULT_N_LIST = tuple(range(8, 360, 24)) + (360,)


def run_dd_scan(spec: SequenceSpec, n_list: list[int],
                noise_spec: LorentzianNoiseSpec | None = None,
                dephasing: DephasingSpec | None = None,
                params: SimParams | None = None) -> DecayCurve:
    """Readout fidelity after N cycles for each N in n_list.

    A single schedule at max(n_list) is propagated once per
    realization, with the state snapshotted at every requested cycle
    boundary t = N tau_c; this is exact because each prefix of the
    schedule equals the N-cycle schedule.
    """
    params = params or SimParams()
    try:
        n_list = sorted({operator.index(n) for n in n_list})
    except TypeError:
        raise ValueError(f"cycle counts must be integers, got {n_list!r}") from None
    if not n_list or n_list[0] < 1:
        raise ValueError("n_list must contain positive cycle counts")
    base = len(spec.base_phases)
    for n in n_list:
        if n % base:
            raise ValueError(f"N = {n} is not a multiple of the {spec.name} "
                             f"cycle length {base}")
    full = replace(spec, N=n_list[-1])
    times = [n * full.tau_c for n in n_list]
    return _curve(build_schedule(full), times, n_list, noise_spec, dephasing, params,
                  pulses=True)


def _checked_times(t_list: list[float]) -> list[float]:
    """The readout times sorted, or ValueError unless all are finite and non-negative."""
    times = sorted(float(t) for t in t_list)
    if not times or not all(0.0 <= t < math.inf for t in times):
        raise ValueError("need at least one time, each finite and non-negative")
    return times


def _idle_schedule(total: float) -> Schedule:
    return Schedule(segments=(Segment(total, None),), total_time=total, spec=None)


def run_fid(dephasing: DephasingSpec, t_list: list[float],
            params: SimParams | None = None) -> DecayCurve:
    """Free-induction decay: prepare, idle for t, read out.

    With detunings drawn from N(0, sigma_delta) the ensemble fidelity
    is 0.5 + 0.5 exp(-(t sigma_delta)^2 / 2), i.e. a Gaussian decay
    with T2* = sqrt(2) / sigma_delta.
    """
    params = params or SimParams()
    times = _checked_times(t_list)
    return _curve(_idle_schedule(times[-1]), times, [0] * len(times), None, dephasing,
                  params, pulses=True)


def run_relaxation(noise_spec: LorentzianNoiseSpec, t_list: list[float],
                   dephasing: DephasingSpec | None = None,
                   params: SimParams | None = None, *,
                   _phasors: np.ndarray | None = None) -> DecayCurve:
    """Ground-state population under transverse noise, starting from |0>.

    No preparation or readout pulse is applied; the curve is the
    survival probability P0(t), decaying from 1 toward 1/2.  ``_phasors``
    is private to ``calibrate_amplitude``: e^{i phi} of the seeded spec's
    phase rows of realizations 0 .. M-1, computed once for all of its runs.
    """
    params = params or SimParams()
    times = _checked_times(t_list)
    return _curve(_idle_schedule(times[-1]), times, [0] * len(times), noise_spec,
                  dephasing, params, pulses=False, phasors=_phasors)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of an amplitude calibration against a target relaxation time."""

    A: float
    achieved_T1: float
    target_T1: float
    iterations: int
    curve: DecayCurve


def calibrate_amplitude(noise_spec: LorentzianNoiseSpec, target_T1: float,
                        params: SimParams | None = None) -> CalibrationResult:
    """Bisect the noise amplitude A until the fitted T1 is within 5% of target_T1.

    The fitted time comes from an exponential fit with free baseline
    over t in [0.5, 2] x target_T1; the spec's A field is ignored.
    Raises NoConvergence if no bracket exists or 30 relaxation runs do
    not reach the tolerance.
    """
    from .analysis import Degenerate, NoDecay, fit_decay

    params = params or SimParams()
    if not 0 < target_T1 < math.inf:
        raise ValueError("target_T1 must be positive and finite")
    guess = golden_rule_amplitude(noise_spec.R, target_T1)
    t_list = list(np.linspace(0.5 * target_T1, 2.0 * target_T1, 16))
    # Guard against hopeless targets: one relaxation run at the top of the
    # first bracket, 8 x guess, has to resolve the comb over 2 x target.
    steps, _ = _segment_steps(Segment(t_list[-1], None), PulseShape("Square"),
                              _undrawn(replace(noise_spec, A=8.0 * guess)), 0.0, params.dt)
    if steps > _STEP_BUDGET:
        raise NoConvergence(
            f"target_T1 = {target_T1:.3e} s needs ~{steps:.1e} integration steps "
            f"per run; beyond the calibration budget of {_STEP_BUDGET:,}")

    # Only A changes between runs, so every run shares one draw of the phase
    # rows and their phasors.
    spec = _seeded(noise_spec, params, _TAG_NOISE)
    phasors = np.exp(1j * sample_realization(spec, np.arange(params.realizations)))
    # Fidelity level one e^-1 contrast step above the mixed state.
    level = 0.5 + 0.5 * math.exp(-1.0)

    def fitted_t1(amp: float) -> tuple[float, DecayCurve]:
        curve = run_relaxation(replace(spec, A=amp), t_list, params=params,
                               _phasors=phasors)
        vals = curve.value
        if vals[0] <= level:
            # Decayed before the window opened: definitely too strong.
            return 0.5 * t_list[0], curve
        try:
            fit = fit_decay(curve, p=1, model="free")
        except NoDecay:
            return math.inf, curve
        except Degenerate:
            # Constant, so it never decays, unless it fell below the level
            # faster than the window's sampling resolves: too strong.
            return (0.5 * t_list[0] if vals.min() <= level else math.inf), curve
        if fit.contrast <= 0.0:
            # Overdriven runs swing around 0.5 instead of decaying; the
            # inverted fit is meaningless, so fall back to the first
            # crossing of the e^-1 level as the effective time scale.
            below = np.nonzero(vals <= level)[0]
            return (t_list[below[0]] if below.size else t_list[0]), curve
        return fit.T, curve

    max_iter = 30
    lo, hi = guess / 8.0, guess * 8.0
    t_lo, _ = fitted_t1(lo)
    evals = 1
    # T1 decreases with A: lo must overshoot the target, hi undershoot.
    t_hi = None
    while t_lo < target_T1 and evals < max_iter:
        hi, t_hi = lo, t_lo
        lo = lo / 8.0
        t_lo, _ = fitted_t1(lo)
        evals += 1
    if t_hi is None:
        t_hi, _ = fitted_t1(hi)
        evals += 1
        while t_hi > target_T1 and evals < max_iter:
            lo, t_lo = hi, t_hi
            hi = hi * 8.0
            t_hi, _ = fitted_t1(hi)
            evals += 1
    if not (t_lo >= target_T1 >= t_hi):
        raise NoConvergence("could not bracket the target relaxation time")
    best = (abs(t_lo - target_T1), lo, t_lo)
    while evals < max_iter:
        mid = math.sqrt(lo * hi)
        t_mid, curve_mid = fitted_t1(mid)
        evals += 1
        best = min(best, (abs(t_mid - target_T1), mid, t_mid))
        if abs(t_mid - target_T1) <= 0.05 * target_T1:
            return CalibrationResult(A=mid, achieved_T1=t_mid, target_T1=target_T1,
                                     iterations=evals, curve=curve_mid)
        if t_mid > target_T1:
            lo = mid
        else:
            hi = mid
    raise NoConvergence(
        f"no convergence after {max_iter} runs; best fitted T1 = {best[2]:.4e} "
        f"at A = {best[1]:.4e} (target {target_T1:.4e})")
