"""Monte Carlo engine: propagation accuracy, determinism, and runners."""
import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.linalg import expm

from eulerdd import (CurvePoint, DecayCurve, DephasingSpec, DEFAULT_N_LIST,
                     LorentzianNoiseSpec, NoConvergence, PulseShape,
                     SequenceSpec, SimParams,
                     apply_envelope, axis_rotation, build_schedule,
                     calibrate_amplitude, fit_decay, golden_rule_amplitude,
                     field_at, prep_unitary, propagate, readout_unitary,
                     run_dd_scan, run_fid, run_relaxation, sample_realization,
                     weights_all)
from eulerdd import engine
from eulerdd.cli import main as cli_main
from eulerdd.control import Segment, pulse_envelope
from eulerdd.noise import Comb
from helpers import population0

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
    u = propagate(build_schedule(spec))
    assert population0(u @ KET0) < 1e-8


def test_delta_pulses_are_exact_rotations():
    spec = SequenceSpec("XY4", N=4, tau=1e-6, tau_d=0.0, shape=PulseShape("Delta"))
    final = propagate(build_schedule(spec)) @ KET0
    u = np.eye(2, dtype=complex)
    for phase in (0.0, math.pi / 2, 0.0, math.pi / 2):
        u = axis_rotation(phase, math.pi) @ u
    expect = u @ KET0
    assert np.allclose(np.outer(final, final.conj()), np.outer(expect, expect.conj()),
                       atol=1e-12)


def test_propagate_snapshots_at_cycle_boundaries():
    spec = SequenceSpec("XY4", N=2, tau=1e-6, tau_d=0.0, shape=PulseShape("Delta"))
    tau_c = spec.tau_c
    props = propagate(build_schedule(spec), snapshot_times=[tau_c, 2 * tau_c])
    assert len(props) == 2
    # After X then Y the noiseless state is back to a population eigenstate.
    assert population0(props[0] @ KET0) == pytest.approx(0.0, abs=1e-12)
    assert population0(props[1] @ KET0) == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("name", ["XY4", "XY8"])
@pytest.mark.parametrize("tau_d", [125e-9, 250e-9, 500e-9])
def test_square_xy8_propagate_matches_expm_product(name, tau_d):
    # Without the comb every idle and square pulse is a constant-Hamiltonian
    # segment, so propagate's U equals the product of the segments' matrix
    # exponentials at every cycle boundary, global phase included.  These
    # are the blocks, at tau_c = 1924 ns, whose loss exponents criterion 5
    # reads.
    spec = SequenceSpec(name, N=16, tau=(1924e-9 - tau_d) / 2, tau_d=tau_d)
    phases = ORACLE_PHASES[name]
    delta = 0.5 * SIGMA_FID
    idle = expm(-1j * spec.tau * delta * SZ)
    drive = math.pi / spec.tau_d
    u = np.eye(2, dtype=complex)
    expect = []
    for k in range(spec.N):
        phi = phases[k % len(phases)]
        h = drive * (math.cos(phi) * SX + math.sin(phi) * SY) + delta * SZ
        u = idle @ expm(-1j * spec.tau_d * h) @ idle @ u
        if (k + 1) % 8 == 0:
            expect.append(u)
    props = propagate(build_schedule(spec), delta=delta,
                      snapshot_times=[8 * spec.tau_c, 16 * spec.tau_c])
    for got, want in zip(props, expect):
        assert np.max(np.abs(got - want)) <= 1e-12


# The strong comb and detuning of the fig4 Gaussian workload.
FIG4_NOISE = LorentzianNoiseSpec(R=R_FAST, A=1838870.610118221)
# The criterion-6 comb: its amplitude holds T1 at 12.87 us.
RELAX_NOISE = LorentzianNoiseSpec(R=R_FAST, A=142031.9491052709)
FIG4_SPEC = SequenceSpec("XY8", N=32, tau=82e-9, tau_d=100e-9, shape=PulseShape("Gaussian"))


def oracle_comb(spec, phases, t):
    """(b_x, b_y) of the phase rows ``phases`` at the 1-d times ``t``, each (rows, t.size).

    The comb written out tone by tone, sharing no code with noise.Comb:
    b_x = A sum_n W(n) cos(omega_n t + phi_n) and
    b_y = -A sum_n W(n) sin(omega_n t + phi_n), with W(n) from its
    Lorentzian formula.
    """
    bx = np.zeros((phases.shape[0], t.size))
    by = np.zeros((phases.shape[0], t.size))
    for k, n in enumerate(range(-spec.n_max, spec.n_max + 1)):
        omega = 2 * math.pi * n * spec.delta_omega
        amp = spec.A * math.sqrt(2 * spec.delta_omega * spec.R / (omega**2 + spec.R**2))
        arg = omega * t[None, :] + phases[:, k:k + 1]
        bx += amp * np.cos(arg)
        by -= amp * np.sin(arg)
    return bx, by


def test_field_at_matches_the_tone_by_tone_comb():
    # field_at, and through it the paired cos/sin sum of noise.Comb, against
    # the comb written out tone by tone, over a whole field period.
    spec = replace(FIG4_NOISE, master_seed=8)
    phases = sample_realization(spec, np.arange(5))
    t = np.concatenate([np.linspace(0.0, 3e-6, 97), np.linspace(0.0, spec.period, 61)])
    b_sup = spec.A * float(np.sum(weights_all(spec)))
    want_x, want_y = oracle_comb(spec, phases, t)
    for row, wx, wy in zip(phases, want_x, want_y):
        bx, by = field_at(spec, row, t)
        assert np.max(np.abs(bx - wx)) <= 1e-12 * b_sup
        assert np.max(np.abs(by - wy)) <= 1e-12 * b_sup


def rk4_dd_scan(spec, n_list, noise_spec, dephasing, params, dt):
    """run_dd_scan's curve values with every finite segment RK4-integrated.

    The reference integrator: classical RK4 at the step
    duration / ceil(duration / step), with step = dt on pulses and 1 ns
    on idles, renormalized after every step.  It takes the engine's
    draws (its seeding route engine._seeded and the samplers) and
    snapshot items (engine._split_idles_at), and sums the comb tone by
    tone with oracle_comb.
    """
    full = replace(spec, N=max(n_list))
    times = [n * full.tau_c for n in n_list]
    _, deltas = engine._prepare_batch(None, dephasing, params)
    if noise_spec is not None:
        noise_spec = engine._seeded(noise_spec, params, engine._TAG_NOISE)
        phases = sample_realization(noise_spec, np.arange(params.realizations))
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
            if noise_spec is not None:
                bx, by = oracle_comb(noise_spec, phases, t_abs + rel)
                c_nodes = 0.5 * (bx - 1j * by)
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
    for u00, u01, u10, u11 in engine._magnus_steps([(seg, 0.0, nstep)], PulseShape("Square"),
                                                   None, hz):
        for j in range(u00.shape[0]):
            a_m, b_m = u00[j] * a_m + u01[j] * b_m, u10[j] * a_m + u11[j] * b_m
    c = 0.5 * np.exp(-1j * seg.phase) * math.pi / seg.duration
    u = engine._exact_propagator(hz, c, seg.duration)
    assert np.max(np.abs(a_m - (u[0] * a + u[1] * b))) <= 1e-14
    assert np.max(np.abs(b_m - (u[2] * a + u[3] * b))) <= 1e-14


@pytest.mark.parametrize("hz", [[0.0], [-0.3 * SIGMA_FID], [0.7 * SIGMA_FID], np.concatenate(
    [[0.0, -0.3 * SIGMA_FID, 0.7 * SIGMA_FID],
     0.5 * SIGMA_FID * np.random.default_rng(5).normal(size=997)])], ids=["0", "-", "+", "1000"])
def test_constant_class_step_is_its_magnus_step(hz):
    # The class step of a comb-free idle or Square pulse is one closed-form
    # exponential, taken directly: the bytes of the product of its one
    # Magnus step, on detunings of each sign and zero, at M = 1 and 1000.
    hz = np.array(hz)
    M = hz.size
    shape = PulseShape("Square")
    for seg in (Segment(712e-9), Segment(2 * 712e-9), Segment(500e-9, 0.0),
                Segment(500e-9, math.pi / 2), Segment(500e-9, math.pi),
                Segment(500e-9, -math.pi / 2)):
        got = engine._class_step(seg, shape, hz, 1)
        want = engine._product(engine._magnus_steps([(seg, 0.0, 1)], shape, None, hz))
        for g, w in zip(got, want):
            assert g.shape == w.shape == (1, M)
            assert np.array_equal(g, w) and g.tobytes() == w.tobytes()


def test_exact_propagator_matches_expm():
    # The closed form against scipy's expm on random H, on H whose |h| t is
    # a multiple of pi or just off one, where sin(|h| t) vanishes, and on
    # H = 0, where the w = 0 guard gives the identity.
    rng = np.random.default_rng(17)
    t = 1e-7
    hz = rng.normal(size=48) * 1e7
    c = (rng.normal(size=48) + 1j * rng.normal(size=48)) * 1e7
    hz[:2], c[2:4] = 0.0, 0.0
    turns = np.repeat(np.arange(1, 9), 3) * (1.0 + np.tile([0.0, 1e-9, -1e-13], 8))
    near = slice(4, 4 + turns.size)
    rescale = turns * math.pi / (np.sqrt(hz[near] ** 2 + abs(c[near]) ** 2) * t)
    hz[near] *= rescale
    c[near] *= rescale
    hz[-1], c[-1] = 0.0, 0.0
    u00, u01, u10, u11 = engine._exact_propagator(hz, c, t)
    for j in range(hz.size):
        want = expm(-1j * t * np.array([[hz[j], c[j]], [np.conj(c[j]), -hz[j]]]))
        got = np.array([[u00[j], u01[j]], [u10[j], u11[j]]])
        assert np.max(np.abs(got - want)) <= 1e-14, j
    assert np.max(np.abs(abs(u00) ** 2 + abs(u01) ** 2 - 1.0)) <= 1e-15
    assert (u00[-1], u01[-1], u10[-1], u11[-1]) == (1.0, 0.0, 0.0, 1.0)


# 2 pi to 60 digits, for reducing exact float angles.
TWO_PI = 2 * Decimal("3.14159265358979323846264338327950288419716939937510582097494")
# (hz, Re c, Im c, w) with w = sqrt(hz^2 + |c|^2) an integer, so w is exact in floats.
EXACT_NORMS = [(2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9), (6, 6, 7, 11),
               (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)]


@pytest.mark.parametrize("angle", [0.3, 7.0, 123.4, 3e3, 4.2e4, 1e5, 3 * math.pi,
                                   101 * math.pi, 31831 * math.pi])
def test_exact_propagator_matches_expm_at_large_angles(angle):
    # Up to |h| t = 1e5 rad, and next to the odd multiples of pi where
    # tan(|h| t / 2) has its poles.  Each w t is an exact float product, so
    # the true exp(-i t H) is that of the angle reduced modulo 2 pi, for
    # which expm is accurate.
    scale = 2.0 ** 20
    for hz0, re0, im0, w0 in EXACT_NORMS:
        w = w0 * scale
        exp2 = math.frexp(angle / w)[1] - 49
        t = round(angle / w / 2.0 ** exp2) * 2.0 ** exp2  # w t is exact
        with localcontext() as ctx:
            ctx.prec = 60
            reduced = float(Decimal(w * t) % TWO_PI)
        h = scale * np.array([[hz0, re0 + 1j * im0], [re0 - 1j * im0, -hz0]])
        want = expm(-1j * (reduced / w) * h)
        u00, u01, u10, u11 = engine._exact_propagator(
            np.array([hz0 * scale]), np.array([(re0 + 1j * im0) * scale]), t)
        got = np.array([[u00[0], u01[0]], [u10[0], u11[0]]])
        assert np.max(np.abs(got - want)) <= 1e-14, (hz0, re0, im0)
        assert abs(abs(u00[0]) ** 2 + abs(u01[0]) ** 2 - 1.0) <= 1e-15


def test_exact_propagator_bytes_do_not_depend_on_the_batch_layout():
    # numpy's tan, sqrt and arithmetic run a vector body and a scalar tail;
    # each entry gets the same bytes whether it is computed alone, in
    # 1,000 rows or in a strided sub-batch.
    rng = np.random.default_rng(5)
    t = 1e-7
    hz = rng.normal(size=1000) * 1e7
    c = (rng.normal(size=1000) + 1j * rng.normal(size=1000)) * 1e7
    # Angles w t from 0 to 1e5 rad, some next to odd multiples of pi.
    turns = np.concatenate([rng.uniform(0.0, 1e5, 990), 2 * np.arange(10) + 1.0])
    turns[-10:] *= math.pi
    rescale = turns / (np.sqrt(hz ** 2 + abs(c) ** 2) * t)
    hz *= rescale
    c *= rescale
    hz[7], c[7] = 0.0, 0.0
    full = engine._exact_propagator(hz, c, t)
    for rows in [slice(7, 8), slice(998, 999), slice(None, None, 3), slice(5, 905, 7),
                 slice(None, None, -1), slice(1, 1000)]:
        part = engine._exact_propagator(hz[rows], c[rows], t)
        for got, want in zip(part, full):
            assert got.tobytes() == want[rows].tobytes(), rows


# The fig4 comb over 1000 realizations.
FIG4_PHASES = sample_realization(replace(FIG4_NOISE, master_seed=9), np.arange(1000))


FIG4_HZ = 0.5 * SIGMA_FID * np.random.default_rng(1).normal(size=1000)
SQUARE, GAUSSIAN = PulseShape("Square"), PulseShape("Gaussian")


def fig4_node_fields(seg, shape, rows, interpolate=True, drive=True):
    """The node-field planes of one segment under the fig4 comb, (6, steps, rows).

    The segment starts at t = 3.3 us in a run of ``shape`` pulses and
    takes its own step count, for the realizations ``rows`` of
    FIG4_PHASES and FIG4_HZ: the six planes of ``_node_fields``, the z
    planes of a lab-frame block broadcast to the others, with the comb
    interpolated or summed directly, and a Square pulse's drive, or none.
    """
    noise = Comb.of(replace(FIG4_NOISE, master_seed=9), FIG4_PHASES[rows])
    nstep, _ = engine._segment_steps(seg, shape, noise, 4.0 * SIGMA_FID)
    assert engine._step_class(seg, shape, noise, nstep).points is not None
    with pytest.MonkeyPatch.context() as patch:
        if not interpolate:
            patch.setattr(engine, "_comb_interpolation", lambda *args: None)
        if not drive:
            patch.setattr(engine, "pulse_envelope",
                          lambda shape, tau_d, rel: np.zeros(np.shape(rel)))
        blocks = [np.stack(np.broadcast_arrays(*f)) for _, f in engine._node_fields(
            [(seg, 3.3e-6, nstep)], shape, noise, FIG4_HZ[rows])]
    return np.concatenate(blocks, axis=1)


@pytest.mark.parametrize("seg, shape", [
    (Segment(1e-6, None), SQUARE), (Segment(24e-9, 0.0), SQUARE),
    (Segment(100e-9, math.pi / 2), SQUARE), (Segment(100e-9, math.pi / 2), GAUSSIAN),
    (Segment(500e-9, 0.0), GAUSSIAN), (Segment(1e-6, None), GAUSSIAN)],
    ids=["square-idle", "square-24ns", "square-100ns", "gaussian-100ns", "gaussian-500ns",
         "gaussian-idle"])
def test_interpolated_comb_is_within_its_bound_of_the_direct_sum(seg, shape):
    # Every segment's node fields come from weights summed over the comb
    # at Chebyshev points or over the comb's own basis coefficients; a
    # Gaussian pulse's weights are folded with its drive angle.  The
    # Chebyshev interpolant's error is at most b_sup 2^-53; with the
    # rounding of both sums the two agree within b_sup 2^-51 on every
    # plane, at every step, for all 1000 rows: for an idle and Square
    # pulses of 24 and 100 ns in a Square run, and for Gaussian pulses of
    # 100 and 500 ns and an idle in a Gaussian run.  One Chebyshev point
    # fewer gives about 3e-14 b_sup.  A Square pulse's drive adds one
    # constant to its mean planes after either sum and rounds them at its
    # own scale, 0.5 Omega = 9.5 b_sup for the 24 ns pulse, so it is left
    # out here: the comb is compared on the pulse's steps.
    rows = np.arange(1000)
    b_sup = Comb.of(replace(FIG4_NOISE, master_seed=9), FIG4_PHASES[:1]).b_sup
    got = fig4_node_fields(seg, shape, rows, drive=False)
    want = fig4_node_fields(seg, shape, rows, interpolate=False, drive=False)
    assert got.shape[0] == 6 and got.shape[2] == 1000
    assert np.max(np.abs(got - want)) <= 2.0 ** -51 * b_sup


@pytest.mark.parametrize("shape", [SQUARE, GAUSSIAN], ids=["square", "gaussian"])
def test_interpolated_comb_bytes_do_not_depend_on_layout_or_block(monkeypatch, shape):
    # Every value is summed on its own over the Chebyshev points: one row,
    # a strided or reversed sub-batch, and one step per block give the
    # bytes of the full 1000-row evaluation, on every plane of a 100 ns
    # Square or Gaussian pulse.
    seg = Segment(100e-9, math.pi / 2)
    full = fig4_node_fields(seg, shape, np.arange(1000))
    for rows in [np.array([417]), np.arange(1000)[::-3], np.arange(3, 1000, 7)]:
        assert fig4_node_fields(seg, shape, rows).tobytes() == full[:, :, rows].tobytes()
    monkeypatch.setattr(engine, "_BLOCK", 1)
    assert fig4_node_fields(seg, shape, np.arange(1000)).tobytes() == full.tobytes()


def test_snapshots_split_idles_into_exact_halves():
    # A snapshot at a cycle boundary cuts that 2 tau idle at its midpoint,
    # so every idle lasts exactly tau or 2 tau and a comb-free run builds
    # one step per distinct segment.
    spec = SequenceSpec("XY8", N=40, tau=712e-9, tau_d=500e-9)
    times = [n * spec.tau_c for n in range(8, 41, 8)]
    items = engine._split_idles_at(build_schedule(spec), times)
    idles = {item[1].duration for item in items if item[0] == "seg" and not item[1].is_pulse}
    assert idles == {spec.tau, 2 * spec.tau}
    assert sum(item[0] == "snap" for item in items) == len(times)


def test_comb_scan_does_not_depend_on_the_step_block(monkeypatch):
    # Steps are grouped into blocks only to vectorize their propagators,
    # and a block runs across segment and snapshot boundaries: one step
    # per block, three, or the default give the same bytes.  The runs are
    # a Gaussian scan under the fig4 comb; a relaxation on fig3_relax's
    # grid and a calibration, whose blocks gather many short idles; and a
    # scan shaped like fig3_xy8_fast, whose blocks mix segments that
    # interpolate the comb with idles that sum it directly.
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    fig4 = SimParams(realizations=16, master_seed=3)
    fast = SequenceSpec("XY8", N=64, tau=950e-9, tau_d=24e-9, shape=PulseShape("Square"))
    params = SimParams(realizations=64, master_seed=20260815)
    runs = {
        "fig4": (fig4, lambda: run_dd_scan(replace(FIG4_SPEC, N=16), [8, 16], FIG4_NOISE, deph,
                                           fig4).to_csv_text()),
        "relax": (params, lambda: run_relaxation(RELAX_NOISE, list(np.linspace(0.0, 26e-6, 27)),
                                                 params=params).to_csv_text()),
        "calibrate": (params, lambda: calibrate_amplitude(RELAX_NOISE, 12.87e-6, params).A),
        "fast": (params, lambda: run_dd_scan(fast, [8, 32, 64], RELAX_NOISE, deph,
                                             params).to_csv_text()),
    }
    # The fast scan's 2 tau idles and 24 ns pulses interpolate the comb; its
    # tau idles, at the start and beside each snapshot, sum it directly.
    noise = Comb.of(RELAX_NOISE, sample_realization(RELAX_NOISE, np.arange(4)))
    for seg, interpolates in [(Segment(fast.tau, None), False),
                              (Segment(2 * fast.tau, None), True), (Segment(24e-9, 0.0), True)]:
        nstep, _ = engine._segment_steps(seg, fast.shape, noise, 4.0 * SIGMA_FID)
        assert (engine._step_class(seg, fast.shape, noise, nstep).points is not None
                ) == interpolates
    default = {name: run() for name, (_, run) in runs.items()}
    for name, (run_params, run) in runs.items():
        for steps in (1, 3):
            monkeypatch.setattr(engine, "_BLOCK", steps * run_params.realizations)
            assert run() == default[name], (name, steps)
        monkeypatch.undo()


def test_relaxation_builds_full_blocks_across_segments(monkeypatch):
    # One relaxation shaped like a calibrate_t1 run: the criterion-6 comb,
    # 16 times over [0.5, 2] x 12.87 us, M = 1000.  Its Magnus steps fill
    # blocks of 8 in run order across its 16 segments and snapshots, so it
    # builds ceil(steps / 8) blocks, each full but the last.
    t_list = list(np.linspace(0.5 * 12.87e-6, 2.0 * 12.87e-6, 16))
    noise, deltas = engine._prepare_batch(RELAX_NOISE, None,
                                          SimParams(realizations=1000, master_seed=20260815))
    built = []
    exact_propagator = engine._exact_propagator

    def counted(hz, c, t):
        built.append(hz.shape[0])
        return exact_propagator(hz, c, t)

    monkeypatch.setattr(engine, "_exact_propagator", counted)
    items, shape = engine._plan(engine._idle_schedule(t_list[-1]), t_list, noise, 0.0)
    engine._propagate_items(items, shape, noise, deltas)
    steps = sum(item[2] for item in items if item[0] == "seg" and item[3])
    assert len(built) == math.ceil(steps / 8) < len(t_list)
    assert built == [8] * (steps // 8) + ([steps % 8] if steps % 8 else [])


def test_repeated_readout_times_are_refused_before_any_draw(monkeypatch):
    # A curve's times must be strictly increasing: FID and relaxation runs
    # refuse a repeated time before they draw or propagate a realization.
    # propagate still returns one propagator per snapshot time, repeats
    # included, inside an idle or at the end, with or without the comb.
    spec = SequenceSpec("XY4", N=2, tau=1e-6, tau_d=100e-9)
    for noise in (None, small_noise(seed=2)):
        for t in (0.5e-6, spec.N * spec.tau_c):
            first, second = propagate(build_schedule(spec), noise, snapshot_times=[t, t])
            assert np.array_equal(first, second)

    def work_started(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(engine, "_prepare_batch", work_started)
    with pytest.raises(ValueError, match="strictly increasing"):
        run_fid(DephasingSpec(sigma_delta=SIGMA_FID), [1e-6, 1e-6])
    with pytest.raises(ValueError, match="strictly increasing"):
        run_relaxation(FIG4_NOISE, [2e-6, 1e-6, 2e-6])


def gaussian_frame(phase):
    """(e^{i phi / 2}, L) around the noise steps of a Gaussian pulse at phase phi.

    The steps carry the noise in the pulse's axis frame: the state enters
    it by Z^dagger, (a, b) -> (e^{i phi / 2} a, e^{-i phi / 2} b), and leaves
    it by L = axis_rotation(phi, pi) Z, with Z = exp(-i phi S_z).
    """
    half = np.exp(0.5j * phase)
    return half, axis_rotation(phase, math.pi) * np.array([np.conj(half), half])


def test_scan_without_comb_matches_step_by_step_application():
    # Without the comb the state advances once per snapshot, by a product
    # of the segments' Magnus steps, with each Gaussian pulse's frame
    # change folded in.  Applying those steps to the state one by one, as
    # under the comb, with the state entering each Gaussian pulse's axis
    # frame before its steps and leaving it after them, gives the same
    # curve within 1e-14.
    spec = replace(FIG4_SPEC, N=16)
    n_list = [8, 16]
    params = SimParams(realizations=16, master_seed=3)
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    curve = run_dd_scan(spec, n_list, None, deph, params)
    _, deltas = engine._prepare_batch(None, deph, params)
    hz = 0.5 * deltas
    psi = prep_unitary() @ KET0
    a, b = np.full(hz.size, psi[0]), np.full(hz.size, psi[1])
    read = readout_unitary()
    values, stderrs = [], []
    for item in engine._split_idles_at(build_schedule(spec), [n * spec.tau_c for n in n_list]):
        if item[0] == "snap":
            pop = np.abs(read[0, 0] * a + read[0, 1] * b) ** 2
            values.append(np.mean(pop))
            stderrs.append(np.std(pop, ddof=1) / math.sqrt(pop.size))
            continue
        nstep, _ = engine._segment_steps(item[1], spec.shape, None, 4.0 * SIGMA_FID)
        if item[1].is_pulse:
            half, turn = gaussian_frame(item[1].phase)
            a, b = a * half, b * np.conj(half)
        for u00, u01, u10, u11 in engine._magnus_steps([(item[1], 0.0, nstep)], spec.shape,
                                                       None, hz):
            for j in range(u00.shape[0]):
                a, b = u00[j] * a + u01[j] * b, u10[j] * a + u11[j] * b
        if item[1].is_pulse:
            a, b = turn[0, 0] * a + turn[0, 1] * b, turn[1, 0] * a + turn[1, 1] * b
    assert np.max(np.abs(curve.value - values)) <= 1e-14
    assert np.max(np.abs(curve.stderr - stderrs)) <= 1e-14


def test_scan_without_comb_builds_each_segment_class_once(monkeypatch):
    # Without the comb a segment's steps do not depend on when it starts:
    # at any M, even where the steps of a Gaussian pulse would hold more
    # than a million entries, a run builds them once per distinct finite
    # (duration, phase), here the idles tau and 2 tau and two pulse phases.
    spec = replace(FIG4_SPEC, N=16)
    built = []
    class_step = engine._class_step

    def counted(seg, *args):
        built.append((seg.duration, seg.phase))
        return class_step(seg, *args)

    monkeypatch.setattr(engine, "_class_step", counted)
    run_dd_scan(spec, [8, 16], None, DephasingSpec(sigma_delta=SIGMA_FID),
                SimParams(realizations=60_000, master_seed=3))
    assert len(built) == 4
    assert set(built) == {(spec.tau, None), (2 * spec.tau, None), (spec.tau_d, 0.0),
                          (spec.tau_d, math.pi / 2)}


def class_steps_in_sequence(schedule, times, deltas, delta_max, psi0):
    """Comb-free states at the sorted times, each segment's class step applied in turn."""
    shape = schedule.spec.shape if schedule.spec is not None else PulseShape("Square")
    hz = 0.5 * deltas
    a, b = (np.full(deltas.size, amplitude, dtype=complex) for amplitude in psi0)
    states = []
    for item in engine._split_idles_at(schedule, times):
        if item[0] == "snap":
            states.append(np.stack([a, b], axis=1))
            continue
        nstep, _ = engine._segment_steps(item[1], shape, None, delta_max)
        u00, u01, u10, u11 = engine._class_step(item[1], shape, hz, nstep)
        a, b = u00[0] * a + u01[0] * b, u10[0] * a + u11[0] * b
    return states


FIG2_SLOW = SequenceSpec("XY8", N=360, tau=712e-9, tau_d=500e-9)
INTERVAL_RUNS = [
    (FIG2_SLOW, range(8, 361, 8)),
    (FIG2_SLOW, [8, 16, 40, 48, 200, 352, 360]),
    (replace(FIG2_SLOW, N=64, shape=PulseShape("Gaussian")), range(8, 65, 8)),
    (replace(FIG2_SLOW, N=64, tau_d=0.0, shape=PulseShape("Delta")), range(8, 65, 8)),
]


def readout(columns):
    """Mean readout population and its stderr at each propagator column (a, b) of a run.

    The population is |<0| R U P |0>|^2 with U = [[a, -conj b], [b, conj a]],
    P = prep_unitary() and R = readout_unitary(), as a dd scan reads it.
    """
    read, prep = readout_unitary()[0], prep_unitary()[:, 0]
    pops = [np.abs(np.einsum("i,ijm,j->m", read, np.array(
        [[psi[:, 0], -np.conj(psi[:, 1])], [psi[:, 1], np.conj(psi[:, 0])]]), prep)) ** 2
        for psi in columns]
    return (np.array([np.mean(pop) for pop in pops]),
            np.array([np.std(pop, ddof=1) / math.sqrt(pop.size) for pop in pops]))


@pytest.mark.parametrize("spec, n_list", INTERVAL_RUNS)
def test_scan_without_comb_matches_class_steps_in_sequence(spec, n_list):
    # Without the comb the state advances once per snapshot, by the product
    # of the class steps since the last one: on fig2's regular grid, an
    # irregular one, and comb-free Gaussian and Delta pulses, the curve read
    # from the propagator's column stays within 1e-14 of applying every
    # segment's class step in turn to |0>.
    # A state also carries the product's rounding, about 5e-16 for one XY8
    # cycle, once per snapshot: up to 2.2e-14 after fig2's 45 at M = 1000,
    # so states are held to 1e-13.
    params = SimParams(realizations=256, master_seed=4)
    _, deltas = engine._prepare_batch(None, DephasingSpec(sigma_delta=SIGMA_FID), params)
    times = [n * spec.tau_c for n in n_list]
    plan = engine._plan(build_schedule(spec), times, None, 4.0 * SIGMA_FID)
    got = engine._propagate_items(*plan, None, deltas)
    want = class_steps_in_sequence(build_schedule(spec), times, deltas, 4.0 * SIGMA_FID, KET0)
    assert len(got) == len(want) == len(times)
    assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) <= 1e-13
    for g, w in zip(readout(got), readout(want)):
        assert np.max(np.abs(g - w)) <= 1e-14


KET1 = np.array([0.0, 1.0], dtype=complex)


def second_columns(columns):
    """(-conj b, conj a) of each first column (a, b): U's second column, U|1>."""
    columns = np.array(columns)
    return np.stack([-np.conj(columns[..., 1]), np.conj(columns[..., 0])], axis=-1)


def test_fid_grid_applies_each_class_step_once():
    # Between two times of an FID grid lies one idle, so the state takes
    # that idle's class step itself: the bytes of applying it in turn.
    # The column is the propagator: (-conj b, conj a) equals the class
    # steps applied in turn to |1>, value for value.  Only the sign of
    # zero differs: an idle under detuning alone leaves b exactly 0, and
    # -conj b is -0 where the propagated |1> has +0.
    params = SimParams(realizations=1000, master_seed=4)
    _, deltas = engine._prepare_batch(None, DephasingSpec(sigma_delta=SIGMA_FID), params)
    times = list(np.geomspace(1e-8, 2e-5, 100))
    schedule = engine._idle_schedule(times[-1])
    plan = engine._plan(schedule, times, None, 4.0 * SIGMA_FID)
    got = engine._propagate_items(*plan, None, deltas)
    want = class_steps_in_sequence(schedule, times, deltas, 4.0 * SIGMA_FID, KET0)
    assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
    flipped = class_steps_in_sequence(schedule, times, deltas, 4.0 * SIGMA_FID, KET1)
    assert np.array_equal(second_columns(got), flipped)


def comb_steps_in_sequence(schedule, times, noise, deltas, delta_max, psi0):
    """States at the sorted times under the comb, the engine's own steps applied in run order.

    The steps are the Magnus steps of one engine._magnus_steps over the
    run's finite segments, and each Delta pulse's engine._class_step.
    Around each Gaussian pulse's steps, the state enters and leaves the
    pulse's axis frame (gaussian_frame).
    """
    shape = schedule.spec.shape
    hz = 0.5 * deltas
    items = [item + engine._segment_steps(item[1], shape, noise, delta_max)
             if item[0] == "seg" else item for item in engine._split_idles_at(schedule, times)]
    plan, t_abs = [], 0.0
    for item in items:
        if item[0] == "seg":
            if item[1].duration > 0.0:
                plan.append((item[1], t_abs, item[2]))
            t_abs += item[1].duration
    magnus = ((u, j) for u in engine._magnus_steps(plan, shape, noise, hz)
              for j in range(u[0].shape[0]))
    a, b = (np.full(deltas.size, amplitude, dtype=complex) for amplitude in psi0)
    states = []
    for item in items:
        if item[0] == "snap":
            states.append(np.stack([a, b], axis=1))
            continue
        framed = item[1].is_pulse and shape.kind == "Gaussian"
        if framed:
            half, turn = gaussian_frame(item[1].phase)
            a, b = a * half, b * np.conj(half)
        steps = ([(engine._class_step(item[1], shape, hz, item[2]), 0)]
                 if item[1].duration == 0.0 else [next(magnus) for _ in range(item[2])])
        for u, j in steps:
            a, b = u[0][j] * a + u[1][j] * b, u[2][j] * a + u[3][j] * b
        if framed:
            a, b = turn[0, 0] * a + turn[0, 1] * b, turn[1, 0] * a + turn[1, 1] * b
    return states


@pytest.mark.parametrize("kind", ["Gaussian", "Square", "Delta"])
def test_comb_run_column_is_the_propagator(kind):
    # Every step is in SU(2), so the first column (a, b) that a run returns
    # fixes the realization's propagator: (-conj b, conj a) is, bit for bit,
    # the engine's steps applied in run order to |1>.  XY8 under the fig4
    # comb and detuning, with each pulse shape.
    spec = replace(FIG4_SPEC, N=16, shape=PulseShape(kind),
                   tau_d=0.0 if kind == "Delta" else FIG4_SPEC.tau_d)
    noise, deltas = engine._prepare_batch(FIG4_NOISE, DephasingSpec(sigma_delta=SIGMA_FID),
                                          SimParams(realizations=16, master_seed=3))
    times = [8 * spec.tau_c, 16 * spec.tau_c]
    plan = engine._plan(build_schedule(spec), times, noise, 4.0 * SIGMA_FID)
    got = engine._propagate_items(*plan, noise, deltas)
    want = comb_steps_in_sequence(build_schedule(spec), times, noise, deltas,
                                  4.0 * SIGMA_FID, KET1)
    assert second_columns(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("noise_spec", [FIG4_NOISE, None])
def test_propagate_returns_the_propagator(noise_spec):
    # propagate builds U from the column (a, b) of one run from |0>: at
    # every snapshot time its columns are (a, b) and (-conj b, conj a),
    # byte for byte.  Without snapshot times it returns U at the end alone.
    spec = replace(FIG4_SPEC, N=16)
    params = SimParams(master_seed=5)
    times = [8 * spec.tau_c, 16 * spec.tau_c]
    noise, _ = engine._prepare_batch(noise_spec, None, params, np.array([3]))
    plan = engine._plan(build_schedule(spec), times, noise, SIGMA_FID)
    columns = engine._propagate_items(*plan, noise, np.array([SIGMA_FID]))
    props = propagate(build_schedule(spec), noise_spec, realization_index=3,
                      delta=SIGMA_FID, params=params, snapshot_times=times)
    for u, column in zip(props, columns):
        assert u.shape == (2, 2) and u.dtype == complex
        assert u[:, 0].tobytes() == column[0].tobytes()
        assert u[:, 1].tobytes() == second_columns(column[0]).tobytes()
    final = propagate(build_schedule(spec), noise_spec, realization_index=3,
                      delta=SIGMA_FID, params=params)
    last, = propagate(build_schedule(spec), noise_spec, realization_index=3,
                      delta=SIGMA_FID, params=params, snapshot_times=times[-1:])
    assert final.tobytes() == last.tobytes()


@pytest.mark.parametrize("kind", ["Gaussian", "Square", "Delta"])
def test_propagate_returns_special_unitaries(kind):
    # Each U that propagate returns is in SU(2) to rounding, at the start,
    # between and after the cycles: U^dagger U = I and det U = 1.  So a
    # density matrix U rho U^dagger stays Hermitian with unit trace and
    # its eigenvalues, here those of a pure state, unchanged.  XY8 under
    # the fig4 comb and detuning, with each pulse shape.
    spec = replace(FIG4_SPEC, N=16, shape=PulseShape(kind),
                   tau_d=0.0 if kind == "Delta" else FIG4_SPEC.tau_d)
    times = [0.0, 0.5 * spec.tau, 8 * spec.tau_c, 16 * spec.tau_c]
    props = propagate(build_schedule(spec), FIG4_NOISE, realization_index=7,
                      delta=SIGMA_FID, params=SimParams(master_seed=11),
                      snapshot_times=times)
    assert np.array_equal(props[0], np.eye(2))
    for u in props:
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12
        psi = u @ prep_unitary() @ KET0
        rho = np.outer(psi, psi.conj())
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho) == pytest.approx([0.0, 1.0], abs=1e-12)
    # Later snapshots moved away from the identity: the comb and the pulses acted.
    assert np.max(np.abs(props[-1] - np.eye(2))) > 1e-3


SQUARE_SLOW = SequenceSpec("XY8", N=40, tau=712e-9, tau_d=500e-9, shape=PulseShape("Square"))


@pytest.mark.parametrize("spec, noise_spec, n_list", [
    (FIG4_SPEC, FIG4_NOISE, [8, 16, 32]),
    (SQUARE_SLOW, None, range(8, 41, 8)),
    (replace(SQUARE_SLOW, shape=PulseShape("Gaussian")), None, range(8, 41, 8)),
])
def test_propagate_follows_realization_m_of_a_run(spec, noise_spec, n_list):
    # With realization m's detuning, propagate's first column is, bit for
    # bit, the column a run propagates for realization m at the run's
    # snapshot times.  The run sizes its steps by 4 sigma_delta, as _curve
    # runs it, and propagate by |delta|; that changes no step count for a
    # Gaussian pulse under the fig4 comb, sized by its peak drive, nor
    # without the comb.  (It does for a Square pulse under the comb.)
    params = SimParams(realizations=16, master_seed=20260815)
    schedule = build_schedule(spec)
    times = [n * spec.tau_c for n in n_list]
    noise, deltas = engine._prepare_batch(noise_spec, DephasingSpec(sigma_delta=SIGMA_FID),
                                          params)
    plan = engine._plan(schedule, times, noise, 4.0 * SIGMA_FID)
    run = np.array(engine._propagate_items(*plan, noise, deltas))
    for m, delta in enumerate(deltas):
        props = propagate(schedule, noise_spec, realization_index=m, delta=delta,
                          params=params, snapshot_times=times)
        assert np.array([u[:, 0] for u in props]).tobytes() == run[:, m].tobytes()


DIAGNOSED_RUNS = [
    (FIG4_SPEC, FIG4_NOISE),
    (FIG4_SPEC, None),
    (SequenceSpec("XY8", N=32, tau=82e-9, tau_d=0.0, shape=PulseShape("Delta")), FIG4_NOISE),
]


@pytest.mark.parametrize("spec, noise_spec", DIAGNOSED_RUNS)
def test_diagnostics_count_every_segment_once(spec, noise_spec):
    # integrated_steps is the step rule's count summed over the segments
    # whose H varies, and exact_segments counts the others: a Gaussian run
    # under the comb, the same run without it, and Delta pulses under it.
    params = SimParams(master_seed=5)
    times = [8 * spec.tau_c, 24 * spec.tau_c, spec.N * spec.tau_c]
    diag = {}
    propagate(build_schedule(spec), noise_spec, delta=SIGMA_FID, params=params,
              snapshot_times=times, diagnostics=diag)
    noise, _ = engine._prepare_batch(noise_spec, None, params, np.array([0]))
    rules = [engine._segment_steps(item[1], spec.shape, noise, SIGMA_FID)
             for item in engine._split_idles_at(build_schedule(spec), times)
             if item[0] == "seg"]
    assert diag["integrated_steps"] == sum(nstep for nstep, varies in rules if varies)
    assert diag["exact_segments"] == sum(not varies for _, varies in rules)
    assert diag["max_norm_drift"] <= 1e-13


def test_step_counts_of_the_fig4_schedule():
    # One realization through the fig4 workload's schedule (32 Gaussian
    # pulses, strong comb, a 3-sigma detuning) integrates at most 1500
    # Magnus steps: 16 per pulse, each turning the pulse's drive frame by
    # at most 0.4 rad, and one or two per idle, which varies only through
    # the comb.
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


def test_step_counts_of_segments_that_vary_only_through_the_comb():
    # Under the fig4 comb and a 4-sigma detuning bound, an idle or a Square
    # pulse turns the spin by at most 1 rad per step, and a Gaussian
    # pulse turns its drive frame by at most 0.4 rad per step: 16 steps
    # for its 6.35 rad.  Without the comb an idle or a Square pulse has a
    # constant H and takes one exact step.
    noise = Comb.of(FIG4_NOISE, sample_realization(FIG4_NOISE, np.arange(4)))
    square, gaussian = PulseShape("Square"), PulseShape("Gaussian")
    for seg, shape, want in [(Segment(82e-9, None), square, 1),
                             (Segment(164e-9, None), square, 2),
                             (Segment(500e-9, 0.0), square, 9),
                             (Segment(100e-9, 0.0), gaussian, 16)]:
        assert engine._segment_steps(seg, shape, noise, 4.0 * SIGMA_FID) == (want, True)
    for seg in (Segment(164e-9, None), Segment(500e-9, 0.0)):
        assert engine._segment_steps(seg, square, None, 4.0 * SIGMA_FID) == (1, False)


def refined_steps(monkeypatch, factor):
    """Multiply the automatic step count of every segment whose H varies by ``factor``."""
    rule = engine._segment_steps

    def finer(*args):
        nstep, varies = rule(*args)
        return (factor * nstep if varies else nstep), varies

    monkeypatch.setattr(engine, "_segment_steps", finer)


@pytest.mark.parametrize("points, bound", [(27, 5e-8), (3, 5e-7)])
def test_relaxation_under_the_comb_matches_four_times_the_steps(monkeypatch, points, bound):
    # A relaxation run is one idle under the comb, cut at each snapshot;
    # its steps are sized by the comb's pace.  On fig3_relax's grid of 1 us
    # intervals, one step each, the curve stays within 5e-8 of the same run
    # at four times the steps.  Cut at 13 us only, an interval takes 7
    # steps of 1.9 us and the curve stays within 5e-7 (measured 2.0e-7;
    # 5.8e-6 if the spin may turn by 3 rad per step).
    t_list = list(np.linspace(0.0, 26e-6, points))
    params = SimParams(realizations=64, master_seed=20260815)
    curve = run_relaxation(RELAX_NOISE, t_list, params=params)
    refined_steps(monkeypatch, 4)
    fine = run_relaxation(RELAX_NOISE, t_list, params=params)
    assert np.max(np.abs(curve.value - fine.value)) <= bound


@pytest.mark.parametrize("seed", [20260815, 1, 2, 3, 4, 5, 6, 7])
def test_square_scan_under_the_comb_matches_four_times_the_steps(monkeypatch, seed):
    # 500 ns Square XY4 under the criterion-6 comb and detuning, out to
    # 360 periods, at 1x, 2x and 4x the steps.  The difference itself
    # depends on the draws (1e-9 to 1.1e-8 over these seeds), so the
    # claim is the rule's order: a fourth-order error e_k ~ k^-4 gives
    # |c1 - c4| / |c2 - c4| = 17, a third-order one 9.  The difference is
    # also held to the 5e-8 of the relaxation test's comb idles.  The same
    # scan with Gaussian pulses, integrated in their drive frames, has the
    # same order; its difference, 3e-8 to 1.4e-6 over these seeds, is the
    # pulses' own integration error.
    n_list = [8, 64, 200, 360]
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    params = SimParams(realizations=64, master_seed=seed)
    for kind, bound in [("Square", 5e-8), ("Gaussian", 2e-6)]:
        spec = SequenceSpec("XY4", N=360, tau=712e-9, tau_d=500e-9, shape=PulseShape(kind))
        curves = []
        for factor in (1, 2, 4):
            refined_steps(monkeypatch, factor)
            curves.append(run_dd_scan(spec, n_list, RELAX_NOISE, deph, params).value)
            monkeypatch.undo()
        coarse, half = (np.max(np.abs(c - curves[2])) for c in curves[:2])
        assert coarse <= bound, kind
        assert coarse >= 12 * half, kind


@pytest.mark.parametrize("trunc", [1.5, 1.0])
def test_truncated_gaussian_scan_converges_at_fourth_order(monkeypatch, trunc):
    # A Gaussian truncated inside its pulse has zero envelope in a margin
    # at each end and jumps at the window's edges.  Its steps never
    # straddle a jump, so the fig4 scan under the comb and detuning keeps
    # the order of the step: |c1 - c4| / |c2 - c4| of about 17 at 1x, 2x
    # and 4x the steps (0.95 and 1.0 with steps across the jumps).
    spec = replace(FIG4_SPEC, shape=PulseShape("Gaussian", gauss_trunc=trunc))
    n_list = [8, 16, 24, 32]
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    params = SimParams(realizations=64, master_seed=11)
    curves = []
    for factor in (1, 2, 4):
        refined_steps(monkeypatch, factor)
        curves.append(run_dd_scan(spec, n_list, FIG4_NOISE, deph, params).value)
        monkeypatch.undo()
    coarse, half = (np.max(np.abs(c - curves[2])) for c in curves[:2])
    assert coarse >= 12 * half


@pytest.mark.parametrize("trunc", [2.5, 1.5, 1.0, 0.3])
@pytest.mark.parametrize("factor", [1, 3])
def test_truncated_gaussian_steps_meet_the_envelope_jumps(trunc, factor):
    # A Gaussian pulse's steps, as many as the step rule gives under the
    # fig4 comb or a multiple of that, tile the pulse; where it is
    # truncated inside the pulse, the window's edges, where the envelope
    # jumps, are step boundaries, and no margin step is longer than a
    # window step.
    shape = PulseShape("Gaussian", gauss_trunc=trunc)
    seg = Segment(100e-9, 0.0)
    noise = Comb.of(FIG4_NOISE, sample_realization(FIG4_NOISE, np.arange(4)))
    nstep = factor * engine._segment_steps(seg, shape, noise, 4.0 * SIGMA_FID)[0]
    h, rel = engine._step_layout(seg, shape, nstep)
    lengths = np.broadcast_to(h, (nstep,))
    starts = rel[0] - engine._NODES[0] * lengths
    bounds = np.append(starts, starts[-1] + lengths[-1])
    assert rel.shape == (2, nstep)
    assert bounds[0] == 0.0 and bounds[-1] == pytest.approx(seg.duration, rel=1e-15)
    assert np.allclose(np.diff(bounds), lengths, rtol=1e-12, atol=0.0)
    if trunc < 2.5:
        edges = 0.5 * seg.duration + np.array([-1.0, 1.0]) * trunc * seg.duration / 5.0
        for edge in edges:
            assert np.min(np.abs(bounds - edge)) <= 1e-12 * seg.duration
        inside = (starts >= edges[0] - 1e-18) & (starts < edges[1] - 1e-18)
        assert np.max(lengths[~inside]) <= np.min(lengths[inside]) * (1 + 1e-12)


@pytest.mark.parametrize("tau_d", [24e-9, 100e-9, 500e-9])
def test_noise_free_gaussian_pulse_is_its_ideal_rotation(tau_d):
    # Without the comb and at delta = 0 the drive frame sees no field, so
    # every step of a Gaussian pulse is the identity and the pulse is its
    # exact pi rotation about its axis.
    spec = SequenceSpec("CPMG_Y", N=1, tau=1e-6, tau_d=tau_d, shape=PulseShape("Gaussian"))
    u = propagate(build_schedule(spec))
    assert np.max(np.abs(u - axis_rotation(math.pi / 2, math.pi))) <= 1e-15


def test_step_rule_runs_once_per_segment_class(monkeypatch):
    # The rule reads only a segment's duration and is_pulse; a run asks it
    # once per distinct pair, and propagates the bytes it would with one
    # evaluation per segment.
    spec = replace(FIG4_SPEC, N=16)
    schedule = build_schedule(spec)
    times = [8 * spec.tau_c, 16 * spec.tau_c]
    noise, deltas = engine._prepare_batch(FIG4_NOISE, DephasingSpec(sigma_delta=SIGMA_FID),
                                          SimParams(realizations=16, master_seed=3))
    rule = engine._segment_steps
    per_segment = [item + rule(item[1], spec.shape, noise, 4.0 * SIGMA_FID)
                   if item[0] == "seg" else item
                   for item in engine._split_idles_at(schedule, times)]
    want = engine._propagate_items(per_segment, spec.shape, noise, deltas)
    asked = []

    def counted(seg, *args):
        asked.append((seg.duration, seg.is_pulse))
        return rule(seg, *args)

    monkeypatch.setattr(engine, "_segment_steps", counted)
    plan = engine._plan(schedule, times, noise, 4.0 * SIGMA_FID)
    got = engine._propagate_items(*plan, noise, deltas)
    classes = {(item[1].duration, item[1].is_pulse) for item in per_segment
               if item[0] == "seg"}
    assert sorted(asked) == sorted(classes) and len(classes) < len(per_segment)
    assert [s.tobytes() for s in got] == [s.tobytes() for s in want]


def test_step_budget_refuses_runs_before_propagating(monkeypatch):
    def propagation_started(*args, **kwargs):
        raise AssertionError("propagation started")

    # One second under the strong comb needs about 6.9e6 steps, and a dd
    # scan of 1000 periods of 400 us about 2.8e6; the budget is 2e6.
    monkeypatch.setattr(engine, "_propagate_items", propagation_started)
    with pytest.raises(ValueError, match="budget"):
        run_relaxation(FIG4_NOISE, [1.0], params=SimParams(realizations=2))
    spec = replace(FIG4_SPEC, tau=200e-6)
    with pytest.raises(ValueError, match="budget"):
        run_dd_scan(spec, [1000], FIG4_NOISE, params=SimParams(realizations=2))
    # A single realization through propagate meets the same budget.
    with pytest.raises(ValueError, match="budget"):
        propagate(build_schedule(replace(spec, N=1000)), FIG4_NOISE)


def test_step_budget_refuses_runs_before_any_draw(monkeypatch):
    # The step rule reads only the comb's b_sup and omega, which the spec
    # fixes, so an over-budget run is refused before it draws a comb
    # phase or a detuning.
    def drawn(*args, **kwargs):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(engine, "sample_realization", drawn)
    monkeypatch.setattr(engine, "sample_detuning", drawn)
    deph = DephasingSpec(sigma_delta=SIGMA_FID)
    with pytest.raises(ValueError, match="budget"):
        run_relaxation(FIG4_NOISE, [1.0], deph, params=SimParams(realizations=2))
    spec = replace(FIG4_SPEC, tau=200e-6)
    with pytest.raises(ValueError, match="budget"):
        run_dd_scan(spec, [1000], FIG4_NOISE, deph, params=SimParams(realizations=2))
    with pytest.raises(ValueError, match="budget"):
        propagate(build_schedule(replace(spec, N=1000)), FIG4_NOISE)


def test_propagate_validation(monkeypatch):
    spec = SequenceSpec("XY4", N=2, tau=1e-6, tau_d=100e-9)
    sched = build_schedule(spec)
    with pytest.raises(ValueError, match="inside a pulse"):
        propagate(sched, snapshot_times=[1e-6 + 50e-9])
    # Bad input raises ValueError before any work, with or without the comb.
    def work_started(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(engine, "_prepare_batch", work_started)
    for noise in (None, small_noise()):
        # A delta whose hz^2 = (delta / 2)^2 overflows once gave a NaN propagator.
        for kwargs in ({"delta": math.nan}, {"delta": math.inf}, {"delta": 1e300},
                       {"delta": -2.7e154}, {"delta": np.float64(1e300)},
                       {"delta": 10**400}, {"delta": -10**400},
                       {"snapshot_times": [-1e-6]}, {"snapshot_times": [math.nan]},
                       {"snapshot_times": [math.inf]}, {"realization_index": 2**64},
                       {"realization_index": -1}):
            with pytest.raises(ValueError):
                propagate(sched, noise, **kwargs)


def test_norm_drift_stays_tiny():
    # The drift is that of the propagator's column, which starts at |0>:
    # its norm is still exactly 1 after 8 cycles and off by 4.4e-16 after
    # 16, so the run takes 32 for the drift to be non-zero as well as tiny.
    spec = SequenceSpec("XY8", N=32, tau=500e-9, tau_d=100e-9)
    diag = {}
    propagate(build_schedule(spec), noise_spec=small_noise(seed=4), delta=2e5,
              params=SimParams(master_seed=4), diagnostics=diag)
    assert 0.0 < diag["max_norm_drift"] <= 1e-10


def test_propagate_and_dd_scan_share_the_seeding_route():
    # An unseeded comb takes its seed from params.master_seed the same way
    # in both entry points, so realization 0 is the same trajectory.  The
    # readouts differ only in rounding: here |<0| R U P |0>|^2 is formed by
    # matrix products, the runner's from U's first column by its formula.
    spec = SequenceSpec("XY4", N=4, tau=500e-9, tau_d=100e-9, shape=PulseShape("Gaussian"))
    noise = small_noise(A=1.4e6)
    params = SimParams(realizations=8, master_seed=5)

    def single(p, index=0):
        u = propagate(build_schedule(spec), noise, realization_index=index, params=p)
        return population0(readout_unitary() @ u @ prep_unitary() @ KET0)

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


def test_dd_scan_n_list_validation():
    spec = SequenceSpec("XY8", N=8, tau=500e-9, tau_d=100e-9)
    with pytest.raises(ValueError, match="not a multiple"):
        run_dd_scan(spec, [12], params=SimParams(realizations=2))
    with pytest.raises(ValueError, match="positive cycle counts"):
        run_dd_scan(spec, [], params=SimParams(realizations=2))
    # A fractional count is refused, not truncated to N = 8 or 16.
    for bad in ([8.5], [8, 16.9], [8.0]):
        with pytest.raises(ValueError, match="must be integers"):
            run_dd_scan(spec, bad, params=SimParams(realizations=2))


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
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            apply_envelope(curve, bad)


def test_simparams_validation():
    # Every run takes the automatic step rule: no step length is a parameter.
    with pytest.raises(TypeError, match="dt"):
        SimParams(dt=1e-9)
    with pytest.raises(ValueError, match="realizations"):
        SimParams(realizations=0)
    with pytest.raises(ValueError, match="realizations must be an integer"):
        SimParams(realizations=2.5)
    assert SimParams(realizations=np.int64(3)).realizations == 3
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=r"master_seed .* is outside \[0, 2\^64\)"):
            SimParams(master_seed=bad)
    for bad in (1.5, 2.0, "7"):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            SimParams(master_seed=bad)
    assert SimParams(master_seed=2**64 - 1).master_seed == 2**64 - 1
    assert SimParams(master_seed=np.uint64(2**64 - 1)).master_seed == 2**64 - 1


def test_decay_curve_validation_and_csv(tmp_path):
    with pytest.raises(ValueError, match="strictly increasing"):
        DecayCurve((CurvePoint(1e-6, 1, 0.5, 0.0), CurvePoint(1e-6, 2, 0.5, 0.0)))
    with pytest.raises(ValueError, match="outside"):
        DecayCurve((CurvePoint(0.0, 1, 1.5, 0.0),))
    with pytest.raises(ValueError, match="stderr"):
        DecayCurve((CurvePoint(0.0, 1, 0.5, -0.1),))
    # Non-finite times and stderrs are refused, wherever they stand.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            DecayCurve((CurvePoint(bad, 1, 0.5, 0.0),))
        with pytest.raises(ValueError, match="not finite"):
            DecayCurve((CurvePoint(0.0, 1, 0.5, 0.0), CurvePoint(bad, 2, 0.5, 0.0)))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="stderr .* must be non-negative and finite"):
            DecayCurve((CurvePoint(0.0, 1, 0.5, 0.0), CurvePoint(1e-6, 2, 0.5, bad)))
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


def test_calibration_expands_its_bracket_upward_to_the_fig4_amplitude(monkeypatch):
    # At T1 = 1 us both ends of the first bracket, guess / 8 and 8 guess,
    # relax too slowly, so calibration moves the top up 8x before it
    # bisects.  At the criterion-6 seed it reproduces the frozen fig4
    # amplitude, which holds T1 within 15% at a fresh seed.
    guess = golden_rule_amplitude(R_FAST, 1e-6)
    amplitudes = []
    relaxation = engine.run_relaxation

    def counted(spec, *args, **kwargs):
        amplitudes.append(spec.A / guess)
        return relaxation(spec, *args, **kwargs)

    monkeypatch.setattr(engine, "run_relaxation", counted)
    cal = calibrate_amplitude(LorentzianNoiseSpec(R=R_FAST, A=0.0), 1e-6,
                              params=SimParams(realizations=1000, master_seed=20260815))
    assert amplitudes[:3] == pytest.approx([0.125, 8.0, 64.0], rel=1e-12)
    assert cal.iterations == len(amplitudes) == 6
    assert abs(cal.A - FIG4_NOISE.A) / FIG4_NOISE.A <= 1e-9
    t_list = list(np.linspace(0.5e-6, 2e-6, 16))
    refit = fit_decay(relaxation(replace(FIG4_NOISE, A=cal.A), t_list,
                                 params=SimParams(realizations=1000, master_seed=20260816)),
                      p=1, model="free")
    assert refit.T == pytest.approx(1e-6, rel=0.15)


def test_calibration_draws_its_phase_rows_once(monkeypatch):
    # Only A changes between the runs of a calibration, so they share one
    # draw of the phase rows: the rows each run would draw itself.
    draws = []

    def counted(spec, index):
        draws.append(spec)
        return sample_realization(spec, index)

    monkeypatch.setattr(engine, "sample_realization", counted)
    base = LorentzianNoiseSpec(R=R_FAST, A=0.0)
    params = SimParams(realizations=120, master_seed=7)
    res = calibrate_amplitude(base, 12.87e-6, params=params)
    assert res.iterations > 1 and len(draws) == 1
    t_list = list(np.linspace(0.5 * 12.87e-6, 2.0 * 12.87e-6, 16))
    fresh = run_relaxation(replace(base, A=res.A), t_list, params=params)
    assert fresh.to_csv_text() == res.curve.to_csv_text()


def synthetic_relaxation(monkeypatch, decay):
    """Make calibration's runs return exact curves baseline + contrast
    e^{-t/T}, with (baseline, contrast, T) = decay(A / guess) at its
    target of 12.87 us; returns the list of A / guess of each run."""
    guess = golden_rule_amplitude(R_FAST, 12.87e-6)
    amplitudes = []

    def relaxation(spec, t_list, *args, **kwargs):
        amplitudes.append(spec.A / guess)
        base, contrast, T = decay(spec.A / guess)
        return DecayCurve(tuple(CurvePoint(t, 0, base + contrast * math.exp(-t / T), 1e-3)
                                for t in t_list))

    monkeypatch.setattr(engine, "run_relaxation", relaxation)
    return amplitudes


def synthetic_calibration():
    return calibrate_amplitude(LorentzianNoiseSpec(R=R_FAST, A=0.0), 12.87e-6,
                               params=SimParams(realizations=2))


def test_calibration_expands_its_bracket_downward(monkeypatch):
    # T1 = target / (512 a^2) at A = a guess: guess / 8 relaxes too fast,
    # so the bottom moves down 8x, and the bracket's geometric midpoint,
    # guess / sqrt(512), is on target.
    target = 12.87e-6
    amplitudes = synthetic_relaxation(monkeypatch,
                                      lambda a: (0.5, 0.5, target / (512.0 * a * a)))
    cal = synthetic_calibration()
    assert amplitudes == pytest.approx([1 / 8, 1 / 64, 1 / math.sqrt(512)], rel=1e-12)
    assert cal.iterations == 3
    assert cal.achieved_T1 == pytest.approx(target, rel=1e-3)


def test_calibration_refuses_a_target_it_cannot_bracket(monkeypatch):
    # A curve that never decays fits no time at any amplitude, so the top
    # of the bracket moves up 8x until the 30 runs are spent.
    amplitudes = synthetic_relaxation(monkeypatch, lambda a: (1.0, 0.0, 1.0))
    with pytest.raises(NoConvergence, match="could not bracket"):
        synthetic_calibration()
    assert amplitudes == pytest.approx([1 / 8] + [8.0**k for k in range(1, 30)], rel=1e-12)


def test_calibration_stops_after_30_runs(monkeypatch):
    # T1 jumps from 2 to 0.6 target at A = 2 guess: the bracket holds the
    # jump, and no bisection point comes within 5% of the target.
    target = 12.87e-6
    amplitudes = synthetic_relaxation(
        monkeypatch, lambda a: (0.5, 0.5, (2.0 if a < 2.0 else 0.6) * target))
    with pytest.raises(NoConvergence, match="no convergence after 30 runs; best fitted "
                                            r"T1 = 7\.72\d\de-06"):
        synthetic_calibration()
    assert len(amplitudes) == 30
    assert amplitudes[:2] == pytest.approx([1 / 8, 8.0], rel=1e-12)
    assert amplitudes[-1] == pytest.approx(2.0, rel=1e-6)


def test_calibration_reads_an_overdriven_run_at_its_first_point(monkeypatch):
    # From 4 guess up the population rises instead of decaying.  Its fit
    # has a negative contrast and T = 10 target; calibration reads such a
    # run as relaxed by the window's first time, 0.5 target, so 8 guess
    # closes the bracket and its midpoint, guess, is on target.
    target = 12.87e-6
    amplitudes = synthetic_relaxation(
        monkeypatch, lambda a: ((0.95, -0.25, 10.0 * target) if a >= 4.0
                                else (0.5, 0.5, target / (a * a))))
    cal = synthetic_calibration()
    assert amplitudes == pytest.approx([1 / 8, 8.0, 1.0], rel=1e-12)
    assert cal.iterations == 3
    assert cal.achieved_T1 == pytest.approx(target, rel=1e-3)


def test_calibration_rejects_hopeless_targets():
    base = LorentzianNoiseSpec(R=R_FAST, A=0.0)
    with pytest.raises(NoConvergence, match="budget"):
        calibrate_amplitude(base, 10.0, params=SimParams(realizations=60))
    with pytest.raises(ValueError, match="target_T1"):
        calibrate_amplitude(base, 0.0)
