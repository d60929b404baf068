"""Monte Carlo engine: propagation accuracy, determinism, and runners."""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from eulerdd import (CurvePoint, DecayCurve, DephasingSpec, DEFAULT_N_LIST,
                     LorentzianNoiseSpec, NoConvergence, PulseShape,
                     SequenceSpec, SimParams, SpinState, StepTooLarge,
                     apply_envelope, axis_rotation, build_schedule,
                     calibrate_amplitude, fit_decay, golden_rule_amplitude,
                     population0, prep_unitary, propagate, readout_unitary,
                     run_dd_scan, run_fid, run_relaxation)
from eulerdd import engine
from eulerdd.cli import main as cli_main
from eulerdd.control import Segment, pulse_envelope

KET0 = np.array([1.0, 0.0], dtype=complex)
R_FAST = 2 * math.pi * 5e3
SIGMA_FID = 764439.7634449162  # sqrt(2) / 1.85 us
SX = np.array([[0, 1], [1, 0]], dtype=complex) / 2
SY = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
SZ = np.array([[1, 0], [0, -1]], dtype=complex) / 2
# Base phase words, written out here so the oracle shares no table with control.
ORACLE_PHASES = {
    "CPMG_Y": (math.pi / 2,),
    "XY4": (0.0, math.pi / 2),
    "XY8": (0.0, math.pi / 2, 0.0, math.pi / 2, math.pi / 2, 0.0, math.pi / 2, 0.0),
}


def small_noise(A=1.4e5, seed=None):
    return LorentzianNoiseSpec(R=R_FAST, A=A, master_seed=seed)


@pytest.mark.parametrize("kind", ["Square", "Gaussian"])
def test_pi_pulse_inverts_population(kind):
    # One noiseless pi pulse about Y takes |0> to |1> up to RK4 error.
    spec = SequenceSpec("CPMG_Y", N=1, tau=1e-6, tau_d=100e-9,
                        shape=PulseShape(kind))
    state = propagate(build_schedule(spec), initial_state=KET0)
    assert population0(state) < 1e-8


def test_delta_pulses_are_exact_rotations():
    spec = SequenceSpec("XY4", N=4, tau=1e-6, tau_d=0.0, shape=PulseShape("Delta"))
    final = propagate(build_schedule(spec), initial_state=KET0)
    u = np.eye(2, dtype=complex)
    for phase in (0.0, math.pi / 2, 0.0, math.pi / 2):
        u = axis_rotation(phase, math.pi) @ u
    expect = SpinState.from_ket(u @ KET0)
    assert np.allclose(final.rho, expect.rho, atol=1e-12)


def test_propagate_snapshots_at_cycle_boundaries():
    spec = SequenceSpec("XY4", N=2, tau=1e-6, tau_d=0.0, shape=PulseShape("Delta"))
    tau_c = spec.tau_c
    states = propagate(build_schedule(spec), initial_state=KET0,
                       snapshot_times=[tau_c, 2 * tau_c])
    assert len(states) == 2
    # After X then Y the noiseless state is back to a population eigenstate.
    assert population0(states[0]) == pytest.approx(0.0, abs=1e-12)
    assert population0(states[1]) == pytest.approx(1.0, abs=1e-12)


def quadrature_fidelity(phases, tau, tau_d, sigma, n_list, nodes=64):
    """Ensemble readout fidelity after each N, by Gauss-Hermite quadrature.

    The detuning delta ~ N(0, sigma) is integrated with `nodes`-point
    Gauss-Hermite quadrature.  Each period [idle tau][square pulse
    tau_d][idle tau] is the product of the matrix exponentials of its
    constant rotating-frame Hamiltonians; the state is prepared and read
    out by pi/2 rotations about +X and -X.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    prep = expm(-1j * (math.pi / 2) * SX)
    read = expm(1j * (math.pi / 2) * SX)
    drive = math.pi / tau_d
    fid = np.zeros(len(n_list))
    for delta, weight in zip(math.sqrt(2) * sigma * x, w / math.sqrt(math.pi)):
        idle = expm(-1j * tau * delta * SZ)
        period = {}
        for phi in set(phases):
            h = drive * (math.cos(phi) * SX + math.sin(phi) * SY) + delta * SZ
            period[phi] = idle @ expm(-1j * tau_d * h) @ idle
        psi = prep[:, 0]
        for k in range(1, max(n_list) + 1):
            psi = period[phases[(k - 1) % len(phases)]] @ psi
            if k in n_list:
                fid[n_list.index(k)] += weight * abs((read @ psi)[0]) ** 2
    return fid


def test_dd_scan_matches_gauss_hermite_oracle():
    # Pure dephasing at the criterion-5 slow timing (500 ns square pulses,
    # tau_c = 1924 ns): the Monte Carlo curve sits within 5 stderr of the
    # quadrature at every N, so the engine computes the model it states.
    # XY4's curve lies more than 6 stderr below XY8's quadrature here.
    n_list = [8, 16, 24, 32, 40]
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    params = SimParams(realizations=1000, master_seed=20260815)
    for name, phases in ORACLE_PHASES.items():
        spec = SequenceSpec(name, N=8, tau=712e-9, tau_d=500e-9)
        curve = run_dd_scan(spec, n_list, dephasing=deph, params=params)
        expect = quadrature_fidelity(phases, spec.tau, spec.tau_d, SIGMA_FID, n_list)
        dev = np.abs(curve.value - expect) / curve.stderr
        assert np.all(dev <= 5.0), f"{name}: deviations {np.round(dev, 2)} stderr"


def test_square_xy8_propagate_matches_expm_product():
    # Without the comb every idle and square pulse is a constant-Hamiltonian
    # segment, so propagate equals the product of the segments' matrix
    # exponentials at every cycle boundary.
    spec = SequenceSpec("XY8", N=16, tau=712e-9, tau_d=500e-9)
    delta = 0.5 * SIGMA_FID
    idle = expm(-1j * spec.tau * delta * SZ)
    drive = math.pi / spec.tau_d
    u = np.eye(2, dtype=complex)
    expect = []
    for k in range(spec.N):
        phi = ORACLE_PHASES["XY8"][k % 8]
        h = drive * (math.cos(phi) * SX + math.sin(phi) * SY) + delta * SZ
        u = idle @ expm(-1j * spec.tau_d * h) @ idle @ u
        if (k + 1) % 8 == 0:
            psi = u @ KET0
            expect.append(np.outer(psi, psi.conj()))
    states = propagate(build_schedule(spec), delta=delta, initial_state=KET0,
                       snapshot_times=[8 * spec.tau_c, 16 * spec.tau_c])
    for state, rho in zip(states, expect):
        assert np.max(np.abs(state.rho - rho)) <= 1e-12


def rk4_dd_scan(spec, n_list, noise_spec, dephasing, params, dt):
    """run_dd_scan's curve values with every finite segment RK4-integrated.

    The reference integrator: classical RK4 at the step
    duration / ceil(duration / step), with step = dt on pulses and 1 ns
    on idles, renormalized after every step, fed by the engine's own
    draws (engine._prepare_batch) and snapshot items
    (engine._split_idles_at).
    """
    full = replace(spec, N=max(n_list))
    times = [n * full.tau_c for n in n_list]
    noise, deltas = engine._prepare_batch(noise_spec, dephasing, params)
    items = engine._split_idles_at(build_schedule(full), times)
    psi0 = prep_unitary() @ KET0
    a = np.full(deltas.size, psi0[0])
    b = np.full(deltas.size, psi0[1])
    hz = 0.5 * deltas
    read = readout_unitary()
    values = []
    t_abs = 0.0
    for item in items:
        if item[0] == "snap":
            values.append(float(np.mean(np.abs(read[0, 0] * a + read[0, 1] * b) ** 2)))
            continue
        seg = item[1]
        if seg.duration == 0.0:
            if seg.is_pulse:
                u = axis_rotation(seg.phase, math.pi)
                a, b = u[0, 0] * a + u[0, 1] * b, u[1, 0] * a + u[1, 1] * b
            continue
        step = dt if seg.is_pulse else 1e-9
        nstep = max(1, math.ceil(seg.duration / min(step, seg.duration) - 1e-9))
        h = seg.duration / nstep
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
                env = pulse_envelope(full.shape, seg.duration, rel)
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
                a = a / norm
                b = b / norm
            done += block
        t_abs += seg.duration
    return np.array(values)


# The strong comb and detuning of the fig4 Gaussian workload.
FIG4_NOISE = LorentzianNoiseSpec(R=R_FAST, A=1838870.610118221)
FIG4_SPEC = SequenceSpec("XY8", N=32, tau=82e-9, tau_d=100e-9, shape=PulseShape("Gaussian"))


def test_gaussian_comb_scan_matches_rk4_oracle():
    # XY8 with 100 ns Gaussian pulses under the strong 21-tone comb plus
    # detuning: the Magnus curve sits within 1e-6 of RK4 at tau_d / 400.
    n_list = [8, 16, 24, 32]
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    params = SimParams(realizations=64, master_seed=41)
    curve = run_dd_scan(FIG4_SPEC, n_list, FIG4_NOISE, deph, params)
    expect = rk4_dd_scan(FIG4_SPEC, n_list, FIG4_NOISE, deph, params, FIG4_SPEC.tau_d / 400)
    assert np.max(np.abs(curve.value - expect)) <= 1e-6


@pytest.mark.parametrize("tau_d", [24e-9, 100e-9, 500e-9])
def test_square_comb_scan_matches_rk4_oracle(tau_d):
    # Square pulses under the same comb and detuning: only the comb varies
    # within a segment, and after one XY8 block the Magnus curve sits
    # within 1e-9 of RK4.
    n_list = [8]
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    params = SimParams(realizations=64, master_seed=41)
    spec = replace(FIG4_SPEC, tau_d=tau_d, shape=PulseShape("Square"))
    curve = run_dd_scan(spec, n_list, FIG4_NOISE, deph, params)
    expect = rk4_dd_scan(spec, n_list, FIG4_NOISE, deph, params, tau_d / 400)
    assert np.max(np.abs(curve.value - expect)) <= 1e-9


@pytest.mark.parametrize("tau_d", [100e-9, 500e-9])
def test_gaussian_scan_without_comb_matches_rk4_oracle(tau_d):
    # Comb-free Gaussian pulses under detuning only: the engine builds each
    # pulse's steps once and reuses them, and stays within 1e-6 of RK4.
    n_list = [8, 16, 24, 32]
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    params = SimParams(realizations=64, master_seed=41)
    spec = replace(FIG4_SPEC, tau_d=tau_d)
    curve = run_dd_scan(spec, n_list, None, deph, params)
    expect = rk4_dd_scan(spec, n_list, None, deph, params, tau_d / 400)
    assert np.max(np.abs(curve.value - expect)) <= 1e-6


@pytest.mark.parametrize("nstep", [1, 7, 40])
def test_magnus_steps_are_exact_for_a_constant_hamiltonian(nstep):
    # Without the comb a Square pulse has a constant H, so any number of
    # Magnus steps, across step blocks too, multiplies out to its closed form.
    seg = Segment(100e-9, math.pi / 2)
    hz = 0.5 * np.array([-2.0, 0.0, 0.5, 3.0]) * SIGMA_FID
    psi = prep_unitary() @ KET0
    a, b = np.full(hz.size, psi[0]), np.full(hz.size, psi[1])
    a_m, b_m = a, b
    for u00, u01, u10, u11 in engine._magnus_steps(seg, PulseShape("Square"), None, hz,
                                                   0.0, nstep):
        for j in range(u00.shape[0]):
            a_m, b_m = u00[j] * a_m + u01[j] * b_m, u10[j] * a_m + u11[j] * b_m
    c = 0.5 * np.exp(-1j * seg.phase) * math.pi / seg.duration
    u = engine._exact_propagator(hz, c, seg.duration)
    assert np.max(np.abs(a_m - (u[0] * a + u[1] * b))) <= 1e-14
    assert np.max(np.abs(b_m - (u[2] * a + u[3] * b))) <= 1e-14


def test_comb_scan_does_not_depend_on_the_step_block(monkeypatch):
    # Steps are grouped into blocks only to vectorize their propagators;
    # one step per block gives the same bytes.
    spec = replace(FIG4_SPEC, N=16)
    params = SimParams(realizations=16, master_seed=3)
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    default = run_dd_scan(spec, [8, 16], FIG4_NOISE, deph, params).to_csv_text()
    monkeypatch.setattr(engine, "_BLOCK", 1)
    assert run_dd_scan(spec, [8, 16], FIG4_NOISE, deph, params).to_csv_text() == default


def test_scan_without_comb_does_not_depend_on_the_step_cache(monkeypatch):
    # Comb-free steps are kept for reuse only to save work; building them
    # anew for every segment gives the same bytes.
    spec = replace(FIG4_SPEC, N=16)
    params = SimParams(realizations=16, master_seed=3)
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    default = run_dd_scan(spec, [8, 16], None, deph, params).to_csv_text()
    monkeypatch.setattr(engine, "_CACHE_ENTRIES", 0)
    assert run_dd_scan(spec, [8, 16], None, deph, params).to_csv_text() == default


def test_step_counts_of_the_fig4_schedule():
    # One realization through the fig4 workload's schedule (32 Gaussian
    # pulses, strong comb, a 3-sigma detuning) integrates at most 1500
    # Magnus steps, about 0.3 rad of rotation each.
    diag = {}
    propagate(build_schedule(FIG4_SPEC), FIG4_NOISE, delta=3 * SIGMA_FID,
              params=SimParams(master_seed=1), diagnostics=diag)
    assert 0 < diag["integrated_steps"] <= 1500
    assert diag["exact_segments"] == 0
    # Without the comb only the 32 pulses are integrated; the 33 idles are exact.
    diag = {}
    propagate(build_schedule(FIG4_SPEC), delta=3 * SIGMA_FID, diagnostics=diag)
    assert 32 <= diag["integrated_steps"] <= 1000
    assert diag["exact_segments"] == 33


def test_step_budget_refuses_runs_before_propagating(monkeypatch):
    def propagation_started(*args, **kwargs):
        raise AssertionError("propagation started")

    # One second under the strong comb needs about 2.3e7 steps, and so
    # does a dd scan of 1000 periods of 200 us; the budget is 2e6.
    monkeypatch.setattr(engine, "_propagate_items", propagation_started)
    with pytest.raises(ValueError, match="budget"):
        run_relaxation(FIG4_NOISE, [1.0], params=SimParams(realizations=2))
    spec = replace(FIG4_SPEC, tau=100e-6)
    with pytest.raises(ValueError, match="budget"):
        run_dd_scan(spec, [1000], FIG4_NOISE, params=SimParams(realizations=2))
    # A single realization through propagate meets the same budget.
    with pytest.raises(ValueError, match="budget"):
        propagate(build_schedule(replace(spec, N=1000)), FIG4_NOISE)


def test_propagate_validation(monkeypatch):
    spec = SequenceSpec("XY4", N=2, tau=1e-6, tau_d=100e-9)
    sched = build_schedule(spec)
    with pytest.raises(ValueError, match="normalized"):
        propagate(sched, initial_state=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="inside a pulse"):
        propagate(sched, snapshot_times=[1e-6 + 50e-9])
    # Bad input raises ValueError before any work, with or without the comb.
    def work_started(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(engine, "_prepare_batch", work_started)
    for noise in (None, small_noise()):
        for kwargs in ({"delta": math.nan}, {"delta": math.inf},
                       {"snapshot_times": [-1e-6]}, {"snapshot_times": [math.nan]},
                       {"snapshot_times": [math.inf]}, {"realization_index": 2**64},
                       {"realization_index": -1}):
            with pytest.raises(ValueError):
                propagate(sched, noise, **kwargs)


def test_norm_drift_stays_tiny():
    spec = SequenceSpec("XY8", N=8, tau=500e-9, tau_d=100e-9)
    diag = {}
    propagate(build_schedule(spec), noise_spec=small_noise(seed=4), delta=2e5,
              params=SimParams(master_seed=4), diagnostics=diag)
    assert 0.0 < diag["max_norm_drift"] <= 1e-10


def test_propagate_and_dd_scan_share_the_seeding_route():
    # An unseeded comb takes its seed from params.master_seed the same way
    # in both entry points, so realization 0 is the same trajectory.  The
    # readouts differ only in rounding: propagate returns the density
    # matrix and reads out U rho U^dagger, the runner |(U psi)_0|^2.
    spec = SequenceSpec("XY4", N=4, tau=500e-9, tau_d=100e-9, shape=PulseShape("Gaussian"))
    noise = small_noise(A=1.4e6)
    params = SimParams(realizations=8, master_seed=5)

    def single(p, index=0):
        state = propagate(build_schedule(spec), noise, realization_index=index, params=p)
        return population0(state.evolved(readout_unitary()))

    curve = run_dd_scan(spec, [4], noise, params=replace(params, realizations=1))
    assert single(params) == pytest.approx(curve.points[0].value, rel=0.0, abs=1e-14)
    for other in (single(replace(params, master_seed=6)), single(params, index=1)):
        assert abs(other - curve.points[0].value) > 1e-3


def test_dd_scan_prefix_consistency():
    # The N = 8 point must not depend on whether the scan continues to 16.
    spec = SequenceSpec("XY4", N=4, tau=500e-9, tau_d=100e-9)
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    params = SimParams(realizations=8, master_seed=3)
    both = run_dd_scan(spec, [8, 16], small_noise(), deph, params)
    single = run_dd_scan(spec, [8], small_noise(), deph, params)
    assert both.points[0].N == single.points[0].N == 8
    assert both.points[0].value == pytest.approx(single.points[0].value, abs=1e-12)
    assert both.points[0].stderr == pytest.approx(single.points[0].stderr, abs=1e-12)


def test_thread_count_does_not_change_results(tmp_path):
    # The CLI validates and ignores --threads, and the single-batch
    # engine runs every realization in one batch whatever its value:
    # a comb run, an exact-propagator run and an FID give the same CSV
    # bytes at 1 and 4 threads.
    dd = ("experiment = dd\nsequence = xy4\ntau = 5e-7\ntau_d = 1e-7\n"
          f"sigma_delta = {SIGMA_FID!r}\nmaster_seed = 3\n")
    configs = {
        "comb": dd + f"n_list = 8\nnoise_r = {R_FAST!r}\nnoise_a = 140000.0\n"
                     "realizations = 12\n",
        "exact": dd + "n_list = 8,16\nrealizations = 13\n",
        "fid": (f"experiment = fid\nsigma_delta = {SIGMA_FID!r}\nt_min = 1e-6\n"
                "t_max = 2e-6\nt_points = 2\nrealizations = 3\nmaster_seed = 9\n"),
    }
    for name, text in configs.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        blobs = []
        for threads in ("1", "4"):
            out = tmp_path / f"{name}_{threads}.csv"
            assert cli_main([str(cfg), "--threads", threads, "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], name


def test_seed_changes_results():
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    a = run_fid(deph, [1e-6], SimParams(realizations=16, master_seed=0))
    b = run_fid(deph, [1e-6], SimParams(realizations=16, master_seed=1))
    assert a.points[0].value != b.points[0].value


def test_stderr_scales_like_one_over_sqrt_m():
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    errs = [run_fid(deph, [1.85e-6], SimParams(realizations=m, master_seed=5)
                    ).points[0].stderr for m in (100, 400)]
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.35)


def test_fid_matches_quasistatic_analytic():
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    t_list = [0.5e-6, 1.0e-6, 1.85e-6, 3.0e-6]
    curve = run_fid(deph, t_list, SimParams(realizations=400, master_seed=11))
    for p in curve.points:
        analytic = 0.5 + 0.5 * math.exp(-0.5 * (p.t * SIGMA_FID) ** 2)
        assert abs(p.value - analytic) < 5 * p.stderr + 1e-3


def test_fid_time_zero_is_exact():
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    curve = run_fid(deph, [0.0, 1e-6], SimParams(realizations=32, master_seed=2))
    assert curve.points[0].value == 1.0
    assert curve.points[0].stderr == 0.0


def test_fid_validation():
    for bad in ([-1e-6], [math.nan], [1e-6, math.inf]):
        with pytest.raises(ValueError, match="non-negative"):
            run_fid(DephasingSpec(sigma_delta=SIGMA_FID), bad,
                    SimParams(realizations=2))


def test_relaxation_validation():
    for bad in ([], [-1e-6], [math.nan], [1e-6, math.inf]):
        with pytest.raises(ValueError, match="non-negative"):
            run_relaxation(small_noise(), bad, params=SimParams(realizations=2))


def test_relaxation_matches_frozen_t1():
    # Amplitude frozen by calibration against T1 = 12.87 us at M = 1000.
    spec = LorentzianNoiseSpec(R=R_FAST, A=142031.9491052709)
    t1 = 12.87e-6
    start = run_relaxation(spec, [0.0, t1],
                           params=SimParams(realizations=16, master_seed=0))
    assert start.points[0].value == 1.0
    assert start.points[1].value < 1.0
    # Fit over the calibration window; the early quasi-coherent shape is
    # not exponential, so pointwise levels are checked only via the fit.
    t_list = list(np.linspace(0.5 * t1, 2.0 * t1, 10))
    curve = run_relaxation(spec, t_list,
                           params=SimParams(realizations=200, master_seed=0))
    fit = fit_decay(curve, p=1, model="free")
    assert fit.T == pytest.approx(t1, rel=0.2)


def test_step_control_rejects_coarse_dt():
    spec = SequenceSpec("XY4", N=2, tau=500e-9, tau_d=100e-9)
    with pytest.raises(StepTooLarge):
        run_dd_scan(spec, [2], params=SimParams(dt=1e-8, realizations=2))
    with pytest.raises(StepTooLarge):
        run_fid(DephasingSpec(sigma_delta=1e9, master_seed=2), [1e-5],
                SimParams(dt=1e-6, realizations=4))


def test_dd_scan_n_list_validation():
    spec = SequenceSpec("XY8", N=8, tau=500e-9, tau_d=100e-9)
    with pytest.raises(ValueError, match="not a multiple"):
        run_dd_scan(spec, [12], params=SimParams(realizations=2))
    with pytest.raises(ValueError, match="positive cycle counts"):
        run_dd_scan(spec, [], params=SimParams(realizations=2))


def test_default_n_list_shape():
    assert DEFAULT_N_LIST[0] == 8 and DEFAULT_N_LIST[-1] == 360
    assert len(DEFAULT_N_LIST) == 16
    assert all(n % 8 == 0 for n in DEFAULT_N_LIST)


def test_apply_envelope_factors():
    t2 = 896e-6
    curve = DecayCurve((CurvePoint(0.0, 0, 1.0, 0.1),
                        CurvePoint(t2, 8, 1.0, 0.1)))
    out = apply_envelope(curve, t2)
    assert out.points[0].value == pytest.approx(1.0)
    factor = 0.5 * math.exp(-1) + 0.5
    assert out.points[1].value == pytest.approx(factor)
    assert out.points[1].stderr == pytest.approx(0.1 * factor)
    with pytest.raises(ValueError, match="positive"):
        apply_envelope(curve, 0.0)


def test_simparams_validation():
    with pytest.raises(ValueError, match="dt"):
        SimParams(dt=0.0)
    with pytest.raises(ValueError, match="realizations"):
        SimParams(realizations=0)
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="envelope_T2"):
            SimParams(envelope_T2=bad)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=r"master_seed .* is outside \[0, 2\^64\)"):
            SimParams(master_seed=bad)
    assert SimParams(master_seed=2**64 - 1).master_seed == 2**64 - 1


def test_decay_curve_validation_and_csv(tmp_path):
    with pytest.raises(ValueError, match="strictly increasing"):
        DecayCurve((CurvePoint(1e-6, 1, 0.5, 0.0), CurvePoint(1e-6, 2, 0.5, 0.0)))
    with pytest.raises(ValueError, match="outside"):
        DecayCurve((CurvePoint(0.0, 1, 1.5, 0.0),))
    with pytest.raises(ValueError, match="stderr"):
        DecayCurve((CurvePoint(0.0, 1, 0.5, -0.1),))
    curve = DecayCurve((CurvePoint(0.0, 8, 1.0, 0.0), CurvePoint(2.5e-6, 16, 0.75, 0.01)))
    text = curve.to_csv_text()
    assert text.startswith("N,t_s,value,stderr\n")
    assert "16,2.5e-06,0.75,0.01" in text
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    assert path.read_bytes() == text.encode()


def test_golden_rule_amplitude_formula():
    assert golden_rule_amplitude(4.0, 1e-6) == pytest.approx(2e3)


def test_calibration_converges_and_is_monotonic():
    base = LorentzianNoiseSpec(R=R_FAST, A=0.0)
    params = SimParams(realizations=120, master_seed=7)
    res = calibrate_amplitude(base, 12.87e-6, params=params)
    assert res.achieved_T1 == pytest.approx(res.target_T1, rel=0.15)
    assert res.iterations <= 30 and res.A > 0
    assert isinstance(res.curve, DecayCurve)
    # Halving the target time needs a stronger field.
    res2 = calibrate_amplitude(base, 6.4e-6, params=params)
    assert res2.A > res.A


def test_calibration_rejects_hopeless_targets():
    base = LorentzianNoiseSpec(R=R_FAST, A=0.0)
    with pytest.raises(NoConvergence, match="budget"):
        calibrate_amplitude(base, 10.0, params=SimParams(realizations=60))
    with pytest.raises(ValueError, match="target_T1"):
        calibrate_amplitude(base, 0.0)
