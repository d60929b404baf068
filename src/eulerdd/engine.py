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

Realizations are propagated as one vectorized batch: the wavefunction
components are (M,) arrays.  Segments are exact SU(2) rotations
without the noise comb and RK4-integrated with it.  Without the comb
the Hamiltonian is constant on every idle and Square-pulse segment,
so each takes its closed-form propagator

    exp(-i t H) = cos(|h| t) - i t sinc(|h| t / pi) H,   |h| = sqrt(delta^2/4 + |c|^2),

computed once per distinct (duration, phase) as four (M,) arrays;
Delta pulses are exact pi rotations in every run.  Gaussian pulses,
and every segment of a run with the comb, are integrated by classical
RK4 steps acting on the whole batch.  Every array expression is
element-wise, including the term-by-term accumulation of the noise
coefficient, so slicing the batch across worker threads cannot
change a single bit of any realization's trajectory; results are
reproducible from the master seed at any worker count.

Step control: integrated segments use uniform substeps
h = duration / ceil(duration / dt).  When no explicit dt is given,
each segment gets dt = its characteristic duration (tau_d for pulses,
the inter-pulse gap for idles) divided by 200, capped by 1/(50 f_max)
where f_max is the largest angular scale present (drive peak plus
field bound, detuning, comb bandwidth) expressed as a frequency.
That keeps the per-step error orders of magnitude below the Monte
Carlo uncertainty at 1000 realizations.  The step is checked on every
finite segment, exact ones included, so an explicit dt that is too
coarse raises StepTooLarge whichever way the segment is propagated.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .control import (PulseShape, Schedule, Segment, SequenceSpec, build_schedule,
                      prep_unitary, pulse_envelope, readout_unitary)
from .noise import (Comb, DephasingSpec, LorentzianNoiseSpec, derive_seed,
                    sample_detuning, sample_realization, weights_all)
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
    segment but used only by integrated (RK4) segments, shortened as
    needed to divide each one exactly; exact segments do not step.
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


def _check_step(hmax: float, dt: float) -> None:
    # Classic RK4 leading local error ~ (|H| dt)^5 / 120 per step.
    est = (hmax * dt) ** 5 / 120.0
    if est > 1e-6:
        raise StepTooLarge(
            f"local truncation estimate {est:.2e} > 1e-6 at dt = {dt:.3e}; reduce dt")


def _segment_step(seg: Segment, idle_ref: float, scale: float,
                  explicit_dt: float | None) -> float:
    if explicit_dt is not None:
        dt = explicit_dt
    else:
        dt = 2.0 * math.pi / (50.0 * scale) if scale > 0 else seg.duration
        ref = seg.duration if seg.is_pulse else idle_ref
        if ref > 0:
            dt = min(dt, ref / 200.0)
    return min(dt, seg.duration)


def _exact_propagator(hz: np.ndarray, c: complex, t: float):
    """exp(-i t H) for H = [[hz, c], [conj(c), -hz]] as four element-wise arrays.

    Returns (u00, u01, u10, u11) = cos(|h| t) - i t sinc(|h| t / pi) H with
    |h| = sqrt(hz^2 + |c|^2); hz holds one value per realization and c is
    the transverse coefficient they share.
    """
    wt = np.sqrt(hz * hz + abs(c) ** 2) * t
    cos = np.cos(wt)
    s = (-1j * t) * np.sinc(wt / math.pi)
    return cos + s * hz, s * c, s * np.conj(c), cos - s * hz


def _propagate_items(items, shape: PulseShape, noise: Comb | None,
                     deltas: np.ndarray, psi0: np.ndarray,
                     explicit_dt: float | None, idle_ref: float,
                     delta_max: float, drift_out: list | None = None):
    """Propagate a batch through ("seg", Segment) / ("snap",) items.

    psi0 is (M, 2); returns one (M, 2) wavefunction copy per "snap"
    marker.  delta_max must be the bound over the full run, not the
    chunk, so that step sizes do not depend on how the batch is split.
    Without the comb, idle and Square-pulse segments take their exact
    propagator; all other finite segments are RK4-integrated.
    """
    a = psi0[:, 0].astype(complex).copy()
    b = psi0[:, 1].astype(complex).copy()
    hz = 0.5 * np.asarray(deltas, dtype=float)
    b_sup = noise.b_sup if noise is not None else 0.0
    comb_max = float(noise.omega[-1]) if noise is not None and noise.omega.size else 0.0
    snaps: list[np.ndarray] = []
    exact: dict = {}
    t_abs = 0.0
    max_drift = 0.0
    for item in items:
        if item[0] == "snap":
            snaps.append(np.stack([a, b], axis=1))
            continue
        seg: Segment = item[1]
        if seg.duration == 0.0:
            if seg.is_pulse:  # Delta pulse: exact pi rotation about (cos phi, sin phi)
                u = axis_rotation(seg.phase, math.pi)
                a, b = u[0, 0] * a + u[0, 1] * b, u[1, 0] * a + u[1, 1] * b
            continue
        if seg.is_pulse and explicit_dt is not None and explicit_dt > seg.duration / 50.0:
            raise StepTooLarge(
                f"dt = {explicit_dt:.3e} exceeds tau_d/50 = {seg.duration / 50.0:.3e} "
                f"for a finite-width pulse")
        omega_peak = (float(pulse_envelope(shape, seg.duration, seg.duration / 2.0))
                      if seg.is_pulse else 0.0)
        scale = max(omega_peak + b_sup, delta_max, comb_max)
        dt = _segment_step(seg, idle_ref, scale, explicit_dt)
        nstep = max(1, math.ceil(seg.duration / dt - 1e-9))
        h = seg.duration / nstep
        _check_step(0.5 * math.hypot(omega_peak + b_sup, delta_max), h)
        if noise is None and (shape.kind == "Square" or not seg.is_pulse):
            # Constant Hamiltonian: one closed-form propagator per (duration, phase).
            key = (seg.duration, seg.phase)
            u = exact.get(key)
            if u is None:
                c = (0.5 * np.exp(-1j * seg.phase)) * omega_peak if seg.is_pulse else 0j
                u = exact[key] = _exact_propagator(hz, c, seg.duration)
            a, b = u[0] * a + u[1] * b, u[2] * a + u[3] * b
        else:
            done = 0
            while done < nstep:
                block = min(nstep - done, 256)
                # RK4 node times: step starts, midpoints, and ends on a half-step grid.
                rel = (done + 0.5 * np.arange(2 * block + 1)) * h
                if noise is not None:
                    c_nodes = noise.c_at(t_abs + rel)
                else:
                    c_nodes = np.zeros((1, rel.size), dtype=complex)
                if seg.is_pulse:
                    env = pulse_envelope(shape, seg.duration, rel)
                    c_nodes = c_nodes + (0.5 * np.exp(-1j * seg.phase)) * env[None, :]
                for j in range(block):
                    c0 = c_nodes[:, 2 * j]
                    cm = c_nodes[:, 2 * j + 1]
                    c1 = c_nodes[:, 2 * j + 2]
                    k1a = -1j * (c0 * b + hz * a)
                    k1b = -1j * (np.conj(c0) * a - hz * b)
                    a2 = a + (0.5 * h) * k1a
                    b2 = b + (0.5 * h) * k1b
                    k2a = -1j * (cm * b2 + hz * a2)
                    k2b = -1j * (np.conj(cm) * a2 - hz * b2)
                    a3 = a + (0.5 * h) * k2a
                    b3 = b + (0.5 * h) * k2b
                    k3a = -1j * (cm * b3 + hz * a3)
                    k3b = -1j * (np.conj(cm) * a3 - hz * b3)
                    a4 = a + h * k3a
                    b4 = b + h * k3b
                    k4a = -1j * (c1 * b4 + hz * a4)
                    k4b = -1j * (np.conj(c1) * a4 - hz * b4)
                    a = a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
                    b = b + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
                    norm = np.sqrt(a.real**2 + a.imag**2 + b.real**2 + b.imag**2)
                    if drift_out is not None:
                        max_drift = max(max_drift, float(np.max(np.abs(norm - 1.0))))
                    a = a / norm
                    b = b / norm
                done += block
        t_abs += seg.duration
    if drift_out is not None:
        drift_out.append(max_drift)
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


def _idle_ref(schedule: Schedule) -> float:
    if schedule.spec is not None:
        return 2.0 * schedule.spec.tau
    return 0.0


# Stream tags mixed into SimParams.master_seed when a spec carries no seed.
_TAG_NOISE = 0x656E676E
_TAG_DETUNING = 0x656E6764


def _seeded(spec, params: SimParams, tag: int):
    """The spec if it carries a seed, else a copy seeded by derive_seed(master_seed, tag)."""
    if spec.master_seed is not None:
        return spec
    return replace(spec, master_seed=derive_seed(params.master_seed, tag))


def _comb(noise_spec: LorentzianNoiseSpec | None, params: SimParams, indices) -> Comb | None:
    """Comb of the given realization indices, None when there is no field."""
    if noise_spec is None or noise_spec.A <= 0.0:
        return None
    spec = _seeded(noise_spec, params, _TAG_NOISE)
    return Comb.of(spec, np.stack([sample_realization(spec, i).phases for i in indices]))


def _prepare_batch(noise_spec: LorentzianNoiseSpec | None,
                   dephasing: DephasingSpec | None,
                   params: SimParams):
    """Draw the full per-realization randomness for one run, in index order."""
    m = params.realizations
    noise = _comb(noise_spec, params, range(m))
    if dephasing is not None and dephasing.sigma_delta > 0.0:
        spec = _seeded(dephasing, params, _TAG_DETUNING)
        deltas = np.array([sample_detuning(spec, i) for i in range(m)])
    else:
        deltas = np.zeros(m)
    return noise, deltas


def _run_batch(items, shape: PulseShape, noise: Comb | None,
               deltas: np.ndarray, psi0_row: np.ndarray, idle_ref: float,
               params: SimParams, threads: int) -> np.ndarray:
    """Propagate the full batch, threaded by contiguous index chunks.

    Returns an (n_snap, M, 2) array ordered by realization index; the
    result is bitwise independent of the chunking.
    """
    m = params.realizations
    delta_max = float(np.max(np.abs(deltas))) if m else 0.0
    psi0 = np.broadcast_to(psi0_row, (m, 2))

    def work(lo: int, hi: int):
        part = replace(noise, coef=noise.coef[lo:hi]) if noise is not None else None
        return _propagate_items(items, shape, part, deltas[lo:hi], psi0[lo:hi],
                                params.dt, idle_ref, delta_max)

    threads = max(1, threads)
    if threads == 1 or m < 2 * threads:
        chunks = [work(0, m)]
        bounds = [(0, m)]
    else:
        size = -(-m // threads)
        bounds = [(lo, min(lo + size, m)) for lo in range(0, m, size)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda be: work(*be), bounds))
    n_snap = len(chunks[0])
    out = np.empty((n_snap, m, 2), dtype=complex)
    for (lo, hi), snaps in zip(bounds, chunks):
        for k in range(n_snap):
            out[k, lo:hi] = snaps[k]
    return out


def _readout_populations(psi: np.ndarray, unitary: np.ndarray | None) -> np.ndarray:
    """Ground-state populations per realization, optionally after a readout pulse."""
    if unitary is not None:
        a = unitary[0, 0] * psi[:, 0] + unitary[0, 1] * psi[:, 1]
    else:
        a = psi[:, 0]
    return np.clip(a.real**2 + a.imag**2, 0.0, 1.0)


def _mean_stderr(pop: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(pop))
    if pop.size < 2:
        return mean, 0.0
    return mean, float(np.std(pop, ddof=1) / math.sqrt(pop.size))


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
    final SpinState, or a list of SpinStates at `snapshot_times` when
    those are given.  `diagnostics`, if provided, receives
    "max_norm_drift", the largest single-step norm deviation before
    renormalization; it is 0.0 when no segment was integrated, as in a
    run without the comb and without Gaussian pulses.
    """
    params = params or SimParams()
    noise = _comb(noise_spec, params, [realization_index])
    if initial_state is None:
        psi0 = (prep_unitary() @ np.array([1.0, 0.0], dtype=complex))[None, :]
    else:
        vec = np.asarray(initial_state, dtype=complex).reshape(2)
        nrm = float(np.linalg.norm(vec))
        if not math.isclose(nrm, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError("initial_state must be normalized")
        psi0 = (vec / nrm)[None, :]
    times = list(snapshot_times) if snapshot_times is not None else [schedule.total_time]
    items = _split_idles_at(schedule, times)
    shape = schedule.spec.shape if schedule.spec is not None else PulseShape("Square")
    drift: list = [] if diagnostics is not None else None
    snaps = _propagate_items(items, shape, noise, np.array([delta]), psi0,
                             params.dt, _idle_ref(schedule),
                             abs(delta), drift_out=drift)
    if diagnostics is not None:
        diagnostics["max_norm_drift"] = max(drift) if drift else 0.0
    states = [SpinState.from_ket(s[0]) for s in snaps]
    if snapshot_times is not None:
        return states
    return states[-1]


# Default N grid: multiples of 8 up to 360, subsampled to 16 points.
DEFAULT_N_LIST = tuple(range(8, 360, 24)) + (360,)


def run_dd_scan(spec: SequenceSpec, n_list: list[int] | None = None,
                noise_spec: LorentzianNoiseSpec | None = None,
                dephasing: DephasingSpec | None = None,
                params: SimParams | None = None,
                threads: int = 1) -> DecayCurve:
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
    schedule = build_schedule(full)
    tau_c = full.tau_c
    times = [n * tau_c for n in n_list]
    noise, deltas = _prepare_batch(noise_spec, dephasing, params)
    psi0 = prep_unitary() @ np.array([1.0, 0.0], dtype=complex)
    items = _split_idles_at(schedule, times)
    out = _run_batch(items, full.shape, noise, deltas, psi0,
                     _idle_ref(schedule), params, threads)
    read = readout_unitary()
    pts = []
    for k, n in enumerate(n_list):
        mean, err = _mean_stderr(_readout_populations(out[k], read))
        pts.append(CurvePoint(times[k], n, mean, err))
    curve = DecayCurve(tuple(pts))
    if params.envelope_T2 is not None:
        curve = apply_envelope(curve, params.envelope_T2)
    return curve


def _checked_times(t_list: list[float]) -> list[float]:
    """The readout times sorted, or ValueError unless all are finite and non-negative."""
    times = sorted(float(t) for t in t_list)
    if not times or not all(0.0 <= t < math.inf for t in times):
        raise ValueError("t_list must contain finite non-negative times")
    return times


def _idle_schedule(total: float) -> Schedule:
    return Schedule(segments=(Segment(total, None),), total_time=total, spec=None)


def run_fid(dephasing: DephasingSpec, t_list: list[float],
            params: SimParams | None = None, threads: int = 1) -> DecayCurve:
    """Free-induction decay: prepare, idle for t, read out.

    With detunings drawn from N(0, sigma_delta) the ensemble fidelity
    is 0.5 + 0.5 exp(-(t sigma_delta)^2 / 2), i.e. a Gaussian decay
    with T2* = sqrt(2) / sigma_delta.
    """
    params = params or SimParams()
    times = _checked_times(t_list)
    _, deltas = _prepare_batch(None, dephasing, params)
    psi0 = prep_unitary() @ np.array([1.0, 0.0], dtype=complex)
    schedule = _idle_schedule(times[-1])
    items = _split_idles_at(schedule, times)
    out = _run_batch(items, PulseShape("Square"), None, deltas, psi0,
                     0.0, params, threads)
    read = readout_unitary()
    pts = []
    for k, t in enumerate(times):
        mean, err = _mean_stderr(_readout_populations(out[k], read))
        pts.append(CurvePoint(t, 0, mean, err))
    return DecayCurve(tuple(pts))


def run_relaxation(noise_spec: LorentzianNoiseSpec, t_list: list[float],
                   dephasing: DephasingSpec | None = None,
                   params: SimParams | None = None, threads: int = 1) -> DecayCurve:
    """Ground-state population under transverse noise, starting from |0>.

    No preparation or readout pulse is applied; the curve is the
    survival probability P0(t), decaying from 1 toward 1/2.
    """
    params = params or SimParams()
    times = _checked_times(t_list)
    noise, deltas = _prepare_batch(noise_spec, dephasing, params)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    schedule = _idle_schedule(times[-1])
    items = _split_idles_at(schedule, times)
    out = _run_batch(items, PulseShape("Square"), noise, deltas, psi0,
                     0.0, params, threads)
    pts = []
    for k, t in enumerate(times):
        mean, err = _mean_stderr(_readout_populations(out[k], None))
        pts.append(CurvePoint(t, 0, mean, err))
    return DecayCurve(tuple(pts))


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of an amplitude calibration against a target relaxation time."""

    A: float
    achieved_T1: float
    target_T1: float
    iterations: int
    curve: DecayCurve


def calibrate_amplitude(noise_spec: LorentzianNoiseSpec, target_T1: float,
                        params: SimParams | None = None, threads: int = 1,
                        tolerance: float = 0.05, max_iter: int = 30) -> CalibrationResult:
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
    # Guard against hopeless targets: the comb has to be resolved over a
    # 2 x target horizon, so huge targets imply astronomical step counts.
    guess = golden_rule_amplitude(noise_spec.R, target_T1)
    comb_max = 2.0 * math.pi * noise_spec.n_max * noise_spec.delta_omega
    b_sup = 8.0 * guess * float(np.sum(weights_all(noise_spec)))
    steps = 2.0 * target_T1 * 50.0 * max(comb_max, b_sup) / (2.0 * math.pi)
    if steps > 2e6:
        raise NoConvergence(
            f"target_T1 = {target_T1:.3e} s needs ~{steps:.1e} integration steps "
            f"per run; beyond the calibration budget of 2e6")
    t_list = list(np.linspace(0.5 * target_T1, 2.0 * target_T1, 16))

    # Fidelity level one e^-1 contrast step above the mixed state.
    level = 0.5 + 0.5 * math.exp(-1.0)

    def fitted_t1(amp: float) -> tuple[float, DecayCurve]:
        curve = run_relaxation(replace(noise_spec, A=amp), t_list, params=params, threads=threads)
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
