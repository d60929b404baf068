"""Propagation of the driven spin and the Monte Carlo experiment runners.

Per realization the state is a two-component wavefunction evolving
under the rotating-frame Hamiltonian

    H(t) = (Omega(t) cos(phi) + b_x(t)) S_x
         + (Omega(t) sin(phi) + b_y(t)) S_y
         + delta S_z,

with Omega the pulse envelope, (b_x, b_y) the injected transverse
noise of one realization, and delta that realization's static
detuning.  Ensemble averaging the projective readout over
realizations is equivalent to propagating the density matrix because
every realization evolves unitarily.

Realizations are propagated as one vectorized batch of (M,) arrays.
Delta pulses are exact pi rotations; every finite segment is applied
the same way, as fourth-order Magnus steps (the Omega^[4] integrator
of Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  A step is
one closed-form SU(2) exponential,

    exp(-i t H) = cos(|h| t) - i t sinc(|h| t / pi) H,   |h| = sqrt(delta^2/4 + |c|^2),

of an H built from its values at the step's two Gauss nodes plus
their commutator, which in SU(2) is a closed-form cross product, so
propagation is unitary by construction.  A step is exact when H is
constant over it.  Without the comb a segment's steps do not depend
on when it starts, so they are built once per distinct (duration,
phase) and reused; under the comb they are built lazily, one block of
(steps, M) arrays at a time.  Only their application to the state is
sequential.  Every array expression is element-wise, the comb sum
included, so a realization's trajectory depends only on its own draws
and the run's step sizes, not on the batch or block layout, and
results are reproducible from the master seed.

Step control, evaluated once per segment and run: a segment with a
constant H (an idle or a Square pulse without the comb) takes one
step.  A segment whose H varies, of duration T, takes ceil(T scale /
0.3) steps, where scale = max(peak drive + field bound, detuning
bound, top comb frequency) bounds every angular rate, so a step turns
the spin by about 0.3 rad at most; an explicit dt gives ceil(T / dt)
steps instead.  An explicit dt is checked on every finite segment
(at most tau_d/50 on a pulse, a priori local error below 1e-6),
raising StepTooLarge when too coarse.  Every propagation,
``propagate`` and the dd, fid and relaxation runners alike, goes
through one batch entry point that refuses, before propagating, a run
that needs more than 2,000,000 steps on segments whose H varies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .control import (PulseShape, Schedule, Segment, SequenceSpec, build_schedule,
                      prep_unitary, pulse_envelope, readout_unitary)
from .noise import (Comb, DephasingSpec, LorentzianNoiseSpec, _check_seed, _indices,
                    derive_seed, sample_detuning, sample_realization)
from .su2core import SpinState, axis_rotation

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
    envelope_T2, when set, multiplies dd curves by the
    intrinsic-dephasing envelope of ``apply_envelope``.
    """

    dt: float | None = None
    realizations: int = 1000
    master_seed: int = 0
    envelope_T2: float | None = None

    def __post_init__(self) -> None:
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if self.envelope_T2 is not None and not 0 < self.envelope_T2 < math.inf:
            raise ValueError("envelope_T2 must be positive and finite")
        _check_seed(self.master_seed)


@dataclass(frozen=True)
class CurvePoint:
    t: float
    N: int
    value: float
    stderr: float


@dataclass(frozen=True)
class DecayCurve:
    """Measured decay samples: strictly increasing t, values in [0, 1]."""

    points: tuple[CurvePoint, ...]

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        for a, b in zip(pts, pts[1:]):
            if b.t <= a.t:
                raise ValueError("curve times must be strictly increasing")
        for p in pts:
            if not 0.0 <= p.value <= 1.0:
                raise ValueError(f"curve value {p.value!r} outside [0, 1]")
            if p.stderr < 0:
                raise ValueError("stderr must be non-negative")
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
# Steps whose nodes and propagators are computed at once; bounds their memory.
_BLOCK = 16
# Steps on segments whose H varies that one propagation or calibration run may take.
_STEP_BUDGET = 2_000_000
# Largest steps x realizations of one comb-free segment whose step propagators
# are kept for reuse; a longer segment builds them one block at a time.
_CACHE_ENTRIES = 1 << 20


def _segment_steps(seg: Segment, shape: PulseShape, noise: Comb | None,
                   delta_max: float, explicit_dt: float | None) -> tuple[int, bool]:
    """A segment's step count and whether its H varies; (0, False) for zero duration.

    The step rule and the explicit-dt checks are those of the module docstring.
    """
    if seg.duration == 0.0:
        return 0, False
    if seg.is_pulse and explicit_dt is not None and explicit_dt > seg.duration / 50.0:
        raise StepTooLarge(
            f"dt = {explicit_dt:.3e} exceeds tau_d/50 = {seg.duration / 50.0:.3e} "
            f"for a finite-width pulse")
    omega_peak = (float(pulse_envelope(shape, seg.duration, seg.duration / 2.0))
                  if seg.is_pulse else 0.0)
    b_sup = noise.b_sup if noise is not None else 0.0
    if explicit_dt is not None:
        nstep = max(1, math.ceil(seg.duration / min(explicit_dt, seg.duration) - 1e-9))
        h = seg.duration / nstep
        # A priori local error of a fourth-order step, ~ (|H| h)^5 / 120.
        est = (0.5 * math.hypot(omega_peak + b_sup, delta_max) * h) ** 5 / 120.0
        if est > 1e-6:
            raise StepTooLarge(
                f"local truncation estimate {est:.2e} > 1e-6 at dt = {h:.3e}; reduce dt")
    else:
        comb_max = float(noise.omega[-1]) if noise is not None and noise.omega.size else 0.0
        scale = max(omega_peak + b_sup, delta_max, comb_max)
        nstep = max(1, math.ceil(seg.duration * scale / _THETA))
    varies = noise is not None or (seg.is_pulse and shape.kind != "Square")
    return (nstep, True) if varies else (1, False)


def _exact_propagator(hz: np.ndarray, c, t: float):
    """exp(-i t H) for H = [[hz, c], [conj(c), -hz]] as four element-wise arrays.

    Returns (u00, u01, u10, u11) = cos(|h| t) - i t sinc(|h| t / pi) H with
    |h| = sqrt(hz^2 + |c|^2); hz and c are scalars or arrays that
    broadcast together, such as one row per step and one column per
    realization.
    """
    wt = np.sqrt(hz * hz + abs(c) ** 2) * t
    cos = np.cos(wt)
    s = (-1j * t) * np.sinc(wt / math.pi)
    return cos + s * hz, s * c, s * np.conj(c), cos - s * hz


def _magnus_steps(seg: Segment, shape: PulseShape, noise: Comb | None,
                  hz: np.ndarray, t_abs: float, nstep: int):
    """Yield the propagators of a segment's nstep Magnus steps, one block at a time.

    The segment starts at t_abs; each block is (u00, u01, u10, u11),
    (steps, M) arrays.  A step of length h with transverse coefficients
    c1, c2 at its two Gauss nodes is exp(-i h H_eff), Omega^[4] =
    (h/2)(A1 + A2) - (sqrt(3) h^2 / 12)[A1, A2] with A = -iH; in SU(2)
    the commutator is a cross product, so with k = sqrt(3) h / 6

        c_eff = (c1 + c2) / 2 - i k hz (c1 - c2),
        hz_eff = hz + k Im(conj(c1) c2),

    and H_eff = H when c1 = c2.  hz is the diagonal of H, constant in a run.
    """
    h = seg.duration / nstep
    k = math.sqrt(3.0) * h / 6.0
    for done in range(0, nstep, _BLOCK):
        steps = np.arange(done, min(nstep, done + _BLOCK))
        # The two Gauss nodes of every step in the block, interleaved.
        rel = ((steps[:, None] + _NODES[None, :]) * h).ravel()
        c = noise.c_at(t_abs + rel).T if noise is not None else np.zeros((rel.size, 1), complex)
        if seg.is_pulse:
            c = c + (0.5 * np.exp(-1j * seg.phase)) * pulse_envelope(shape, seg.duration,
                                                                     rel)[:, None]
        c1, c2 = c[0::2], c[1::2]
        c_eff = 0.5 * (c1 + c2) - (1j * k) * hz * (c1 - c2)
        hz_eff = hz + k * (np.conj(c1) * c2).imag
        yield _exact_propagator(hz_eff, c_eff, h)


def _propagate_items(items, shape: PulseShape, noise: Comb | None,
                     deltas: np.ndarray, psi0: np.ndarray,
                     diagnostics: dict | None = None):
    """Propagate a batch through ("seg", Segment, nstep, varies) / ("snap",) items.

    nstep and varies are the segment's ``_segment_steps``.  psi0 is the
    initial 2-vector of all M = deltas.size realizations; returns one
    (M, 2) wavefunction copy per "snap" marker.  Delta pulses are exact
    pi rotations, and every finite segment takes its Magnus steps,
    built once per (duration, phase) without the comb.  `diagnostics`,
    if given, receives "integrated_steps", "exact_segments" and
    "max_norm_drift".
    """
    a = np.full(deltas.size, psi0[0], dtype=complex)
    b = np.full(deltas.size, psi0[1], dtype=complex)
    hz = 0.5 * np.asarray(deltas, dtype=float)
    snaps: list[np.ndarray] = []
    cache: dict = {}
    t_abs = 0.0
    n_steps = n_exact = 0
    max_drift = 0.0
    for item in items:
        if item[0] == "snap":
            snaps.append(np.stack([a, b], axis=1))
            continue
        _, seg, nstep, varies = item
        if seg.duration == 0.0:
            if seg.is_pulse:  # Delta pulse: exact pi rotation about (cos phi, sin phi)
                u = axis_rotation(seg.phase, math.pi)
                a, b = u[0, 0] * a + u[0, 1] * b, u[1, 0] * a + u[1, 1] * b
                n_exact += 1
            continue
        blocks = _magnus_steps(seg, shape, noise, hz, t_abs, nstep)
        if noise is None and nstep * hz.size <= _CACHE_ENTRIES:
            # Without the comb the steps do not depend on t_abs: build them once.
            key = (seg.duration, seg.phase)
            if key not in cache:
                cache[key] = list(blocks)
            blocks = cache[key]
        for u00, u01, u10, u11 in blocks:
            for j in range(u00.shape[0]):
                a, b = u00[j] * a + u01[j] * b, u10[j] * a + u11[j] * b
                if diagnostics is not None:
                    norm = np.sqrt(a.real**2 + a.imag**2 + b.real**2 + b.imag**2)
                    max_drift = max(max_drift, float(np.max(np.abs(norm - 1.0))))
        if varies:
            n_steps += nstep
        else:
            n_exact += 1
        t_abs += seg.duration
    if diagnostics is not None:
        diagnostics.update(integrated_steps=n_steps, exact_segments=n_exact,
                           max_norm_drift=max_drift)
    return snaps


def _split_idles_at(schedule: Schedule, times: list[float]):
    """Item list with a "snap" marker inserted at each requested time.

    Snapshot times must fall on segment boundaries or inside idle
    segments, which are split; a time inside a pulse is an error.
    Boundary matching absorbs the float drift of summing segment
    durations by comparing at 1e-6 of the shortest segment.
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
            cut = queue[qi] - t
            items.append(("seg", Segment(cut, None)))
            items.append(("snap",))
            seg = Segment(t_end - queue[qi], None)
            t = queue[qi]
            qi += 1
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
                   dephasing: DephasingSpec | None, params: SimParams, indices=None):
    """The comb (None without a field) and detunings of realizations ``indices``.

    indices defaults to the run's 0 .. M-1; the draws are in index order.
    """
    idx = np.arange(params.realizations) if indices is None else indices
    noise = None
    if noise_spec is not None and noise_spec.A > 0.0:
        spec = _seeded(noise_spec, params, _TAG_NOISE)
        noise = Comb.of(spec, sample_realization(spec, idx))
    if dephasing is None:
        return noise, np.zeros(len(idx))
    return noise, sample_detuning(_seeded(dephasing, params, _TAG_DETUNING), idx)


def _run_batch(schedule: Schedule, times: list[float], noise: Comb | None,
               deltas: np.ndarray, psi0: np.ndarray, dt: float | None,
               diagnostics: dict | None = None) -> list[np.ndarray]:
    """The one propagation entry point: every realization starts from psi0.

    Returns one (deltas.size, 2) array per sorted time.  The step rule
    runs once per segment, sized by the run's detuning bound; ValueError,
    before propagating, when segments whose H varies need more than
    _STEP_BUDGET steps.
    """
    shape = schedule.spec.shape if schedule.spec is not None else PulseShape("Square")
    delta_max = float(np.max(np.abs(deltas)))
    items = [item + _segment_steps(item[1], shape, noise, delta_max, dt) if item[0] == "seg"
             else item for item in _split_idles_at(schedule, times)]
    steps = sum(item[2] for item in items if item[0] == "seg" and item[3])
    if steps > _STEP_BUDGET:
        raise ValueError(f"the run needs {steps:,} integration steps, beyond the "
                         f"budget of {_STEP_BUDGET:,}; shorten it or weaken the noise")
    return _propagate_items(items, shape, noise, deltas, psi0, diagnostics)


def _curve(schedule: Schedule, times: list[float], ns: list[int],
           noise_spec: LorentzianNoiseSpec | None, dephasing: DephasingSpec | None,
           params: SimParams, pulses: bool) -> DecayCurve:
    """Mean ground-state population and its stderr at each of the sorted times, N = ns[k].

    With ``pulses`` a run starts in the prepared superposition and is
    read out after the readout pulse; without, it starts in |0>.
    """
    noise, deltas = _prepare_batch(noise_spec, dephasing, params)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    psi0 = prep_unitary() @ ket0 if pulses else ket0
    read = readout_unitary()
    points = []
    for psi, t, n in zip(_run_batch(schedule, times, noise, deltas, psi0, params.dt),
                         times, ns):
        a = read[0, 0] * psi[:, 0] + read[0, 1] * psi[:, 1] if pulses else psi[:, 0]
        pop = np.clip(a.real**2 + a.imag**2, 0.0, 1.0)
        stderr = float(np.std(pop, ddof=1) / math.sqrt(pop.size)) if pop.size > 1 else 0.0
        points.append(CurvePoint(t, n, float(np.mean(pop)), stderr))
    return DecayCurve(tuple(points))


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
              initial_state: np.ndarray | None = None,
              snapshot_times: list[float] | None = None,
              diagnostics: dict | None = None):
    """Propagate a single realization through a schedule.

    The state starts from `initial_state` (a normalized 2-vector) or,
    by default, from the prepared superposition state.  Returns the
    final SpinState, or a list of SpinStates at the sorted
    `snapshot_times` when those are given.  Bad input (a realization
    index outside [0, 2^64), a non-finite delta, a negative or
    non-finite snapshot time) raises ValueError before any work; like
    every run, it also raises ValueError before propagating when it
    needs more than 2,000,000 steps on segments whose H varies.
    `diagnostics`, if provided, receives "integrated_steps" (Magnus
    steps on segments whose H varies), "exact_segments" (segments
    with a constant H, each one exact step, and Delta pulses) and
    "max_norm_drift", the largest | |psi| - 1 | after a step, which
    only rounding moves.
    """
    params = params or SimParams()
    index = _indices(realization_index)
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    times = ([schedule.total_time] if snapshot_times is None
             else _checked_times(snapshot_times))
    if initial_state is None:
        psi0 = prep_unitary() @ np.array([1.0, 0.0], dtype=complex)
    else:
        vec = np.asarray(initial_state, dtype=complex).reshape(2)
        nrm = float(np.linalg.norm(vec))
        if not math.isclose(nrm, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError("initial_state must be normalized")
        psi0 = vec / nrm
    noise, _ = _prepare_batch(noise_spec, None, params, index)
    snaps = _run_batch(schedule, times, noise, np.array([float(delta)]), psi0, params.dt,
                       diagnostics)
    states = [SpinState.from_ket(psi[0]) for psi in snaps]
    return states if snapshot_times is not None else states[-1]


# Default N grid: multiples of 8 up to 360, subsampled to 16 points.
DEFAULT_N_LIST = tuple(range(8, 360, 24)) + (360,)


def run_dd_scan(spec: SequenceSpec, n_list: list[int] | None = None,
                noise_spec: LorentzianNoiseSpec | None = None,
                dephasing: DephasingSpec | None = None,
                params: SimParams | None = None) -> DecayCurve:
    """Readout fidelity after N cycles for each N in n_list.

    A single schedule at max(n_list) is propagated once per
    realization, with the state snapshotted at every requested cycle
    boundary t = N tau_c; this is exact because each prefix of the
    schedule equals the N-cycle schedule.  If params.envelope_T2 is
    set the intrinsic-dephasing envelope is applied to the resulting
    curve.  n_list defaults to DEFAULT_N_LIST.
    """
    params = params or SimParams()
    if n_list is None:
        n_list = DEFAULT_N_LIST
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValueError("n_list must contain positive cycle counts")
    base = len(spec.base_phases)
    for n in n_list:
        if n % base:
            raise ValueError(f"N = {n} is not a multiple of the {spec.name} "
                             f"cycle length {base}")
    full = SequenceSpec(name=spec.name, N=n_list[-1], tau=spec.tau, tau_d=spec.tau_d,
                        shape=spec.shape, phases=spec.phases)
    times = [n * full.tau_c for n in n_list]
    curve = _curve(build_schedule(full), times, n_list, noise_spec, dephasing, params,
                   pulses=True)
    if params.envelope_T2 is not None:
        curve = apply_envelope(curve, params.envelope_T2)
    return curve


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
                   params: SimParams | None = None) -> DecayCurve:
    """Ground-state population under transverse noise, starting from |0>.

    No preparation or readout pulse is applied; the curve is the
    survival probability P0(t), decaying from 1 toward 1/2.
    """
    params = params or SimParams()
    times = _checked_times(t_list)
    return _curve(_idle_schedule(times[-1]), times, [0] * len(times), noise_spec,
                  dephasing, params, pulses=False)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of an amplitude calibration against a target relaxation time."""

    A: float
    achieved_T1: float
    target_T1: float
    iterations: int
    curve: DecayCurve


def calibrate_amplitude(noise_spec: LorentzianNoiseSpec, target_T1: float,
                        params: SimParams | None = None, tolerance: float = 0.05,
                        max_iter: int = 30) -> CalibrationResult:
    """Bisect the noise amplitude A until the fitted T1 matches target_T1.

    The fitted time comes from an exponential fit with free baseline
    over t in [0.5, 2] x target_T1; the spec's A field is ignored.
    Raises NoConvergence if no bracket exists or max_iter bisections
    do not reach the relative tolerance.
    """
    from .analysis import Degenerate, NoDecay, fit_decay

    params = params or SimParams()
    if not 0 < target_T1 < math.inf:
        raise ValueError("target_T1 must be positive and finite")
    guess = golden_rule_amplitude(noise_spec.R, target_T1)
    t_list = list(np.linspace(0.5 * target_T1, 2.0 * target_T1, 16))
    # Guard against hopeless targets: one relaxation run at the top of the
    # first bracket, 8 x guess, has to resolve the comb over 2 x target.
    top = Comb.of(replace(noise_spec, A=8.0 * guess), np.zeros((1, noise_spec.indices.size)))
    steps, _ = _segment_steps(Segment(t_list[-1], None), PulseShape("Square"), top, 0.0,
                              params.dt)
    if steps > _STEP_BUDGET:
        raise NoConvergence(
            f"target_T1 = {target_T1:.3e} s needs ~{steps:.1e} integration steps "
            f"per run; beyond the calibration budget of {_STEP_BUDGET:,}")

    # Fidelity level one e^-1 contrast step above the mixed state.
    level = 0.5 + 0.5 * math.exp(-1.0)

    def fitted_t1(amp: float) -> tuple[float, DecayCurve]:
        curve = run_relaxation(replace(noise_spec, A=amp), t_list, params=params)
        vals = curve.value
        if vals[0] <= level:
            # Decayed before the window opened: definitely too strong.
            return 0.5 * t_list[0], curve
        try:
            fit = fit_decay(curve, p=1, model="free")
        except (NoDecay, Degenerate):
            return math.inf, curve
        if fit.contrast <= 0.0:
            # Overdriven runs swing around 0.5 instead of decaying; the
            # inverted fit is meaningless, so fall back to the first
            # crossing of the e^-1 level as the effective time scale.
            below = np.nonzero(vals <= level)[0]
            return (t_list[below[0]] if below.size else t_list[0]), curve
        return fit.T, curve

    lo, hi = guess / 8.0, guess * 8.0
    t_lo, curve_lo = fitted_t1(lo)
    evals = 1
    # T1 decreases with A: lo must overshoot the target, hi undershoot.
    t_hi = None
    while t_lo < target_T1 and evals < max_iter:
        hi, t_hi = lo, t_lo
        lo = lo / 8.0
        t_lo, curve_lo = fitted_t1(lo)
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
    best = (abs(t_lo - target_T1), lo, t_lo, curve_lo)
    while evals < max_iter:
        mid = math.sqrt(lo * hi)
        t_mid, curve_mid = fitted_t1(mid)
        evals += 1
        if abs(t_mid - target_T1) < best[0]:
            best = (abs(t_mid - target_T1), mid, t_mid, curve_mid)
        if abs(t_mid - target_T1) <= tolerance * target_T1:
            return CalibrationResult(A=mid, achieved_T1=t_mid, target_T1=target_T1,
                                     iterations=evals, curve=curve_mid)
        if t_mid > target_T1:
            lo = mid
        else:
            hi = mid
    raise NoConvergence(
        f"no convergence after {max_iter} runs; best fitted T1 = {best[2]:.4e} "
        f"at A = {best[1]:.4e} (target {target_T1:.4e})")
