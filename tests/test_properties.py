"""Property tests: schedule-layout invariants, batch-layout independence of the
comb and the propagation, batched detunings against per-index generators, and
config dump/parse round trips."""
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eulerdd import (DephasingSpec, LorentzianNoiseSpec, PulseShape,  # noqa: E402
                     SEQUENCE_PHASES, SequenceSpec, SimParams, build_schedule,
                     sample_detuning, sample_realization)
from eulerdd import engine  # noqa: E402
from eulerdd.cli import (_EXPERIMENTS, ConfigError, _dump_config,  # noqa: E402
                         parse_config)
from eulerdd.noise import Comb  # noqa: E402
from helpers import per_index_normal  # noqa: E402

# Fixed example sequence, no example database: every run checks the same cases.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
# An --out path may hold what a config line cannot: a '#' or edge spaces.
any_path = st.text(alphabet="abc0123456789_-./# ", min_size=1, max_size=16)


@st.composite
def sequence_specs(draw):
    name = draw(st.sampled_from(["CPMG_Y", "XY4", "XY8", "Custom"]))
    phases = ()
    if name == "Custom":
        phases = tuple(draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True),
                                     min_size=1, max_size=9)))
    shape = PulseShape(draw(st.sampled_from(["Delta", "Square", "Gaussian"])))
    tau = draw(st.floats(1e-9, 1e-3))
    tau_d = draw(st.floats(0.0 if shape.kind == "Delta" else 1e-10, 1e-4))
    return SequenceSpec(name, N=draw(st.integers(1, 200)), tau=tau, tau_d=tau_d,
                        shape=shape, phases=phases)


@PROPERTY
@given(sequence_specs())
def test_schedule_layout_invariants(spec):
    schedule = build_schedule(spec)
    segs = schedule.segments
    total = spec.N * spec.tau_c
    tol = 1e-12 * total
    assert len(segs) == 2 * spec.N + 1
    assert math.fsum(s.duration for s in segs) == pytest.approx(total, rel=0, abs=tol)
    assert schedule.total_time == total
    assert all(not s.is_pulse and s.duration > 0 for s in segs[0::2])
    base = spec.base_phases
    for k in range(1, spec.N + 1):
        pulse = segs[2 * k - 1]
        assert pulse.duration == spec.effective_tau_d
        assert pulse.phase == base[(k - 1) % len(base)]
        start = math.fsum(s.duration for s in segs[:2 * k - 1])
        centre = start + pulse.duration / 2
        assert centre == pytest.approx((2 * k - 1) * spec.tau_c / 2, rel=0, abs=tol)


# The strong comb and detuning of the fig4 workloads, over 16 realizations.
FIG4_NOISE = LorentzianNoiseSpec(R=2 * math.pi * 5e3, A=1838870.610118221, master_seed=11)
FIG4_DEPHASING = DephasingSpec(sigma_delta=764439.7634449162, master_seed=12)
ROWS = 16


def index_layouts(size):
    """Index arrays into range(size): a single index, a reversed run, or any
    subset in any order, repeats included."""
    any_order = st.lists(st.integers(0, size - 1), min_size=1, max_size=size)
    return st.one_of(st.integers(0, size - 1).map(lambda i: [i]),
                     any_order.map(lambda rows: sorted(set(rows), reverse=True)),
                     any_order).map(np.array)


COMB_TIMES = 3e-6 + np.arange(48) * 2.9e-9
FULL_C = Comb.of(FIG4_NOISE, sample_realization(FIG4_NOISE, np.arange(ROWS))).c_at(COMB_TIMES)


@PROPERTY
@given(index_layouts(ROWS),
       st.lists(st.integers(0, COMB_TIMES.size), min_size=2, max_size=2, unique=True))
def test_comb_values_do_not_depend_on_the_batch_layout(rows, ends):
    # Each comb value is computed on its own: any rows, in any order, at
    # any sub-range of the times give exactly the full evaluation's bytes.
    start, stop = sorted(ends)
    part = Comb.of(FIG4_NOISE, sample_realization(FIG4_NOISE, rows)).c_at(COMB_TIMES[start:stop])
    assert part.tobytes() == FULL_C[rows, start:stop].tobytes()


# Four XY8 runs.  With 100 ns Gaussian pulses under the fig4 comb, the
# pulses' peak drive and the comb's field bound b_sup set every step, and
# the pulses take theirs in their drive frames.  With the 500 ns Square pulses
# and weak comb of the bundled fig3_xy8_slow, the detuning bound
# 4 sigma_delta sets the idles' steps; a bound taken from the batch's
# largest draw would make them depend on which realizations share it.
# Without the comb, Gaussian pulses and Delta pulses advance the state
# once per snapshot, by a cached product of the segments' class steps
# (products of Magnus steps, or pi rotations).
FIG3_NOISE = LorentzianNoiseSpec(R=2 * math.pi * 5e3, A=142031.9491052709, master_seed=11)
GAUSSIAN_XY8 = SequenceSpec("XY8", N=8, tau=82e-9, tau_d=100e-9, shape=PulseShape("Gaussian"))
BATCH_RUNS = [
    (GAUSSIAN_XY8, FIG4_NOISE, FIG4_DEPHASING),
    (SequenceSpec("XY8", N=16, tau=712e-9, tau_d=500e-9, shape=PulseShape("Square")),
     FIG3_NOISE, FIG4_DEPHASING),
    (GAUSSIAN_XY8, None, FIG4_DEPHASING),
    (SequenceSpec("XY8", N=8, tau=82e-9, tau_d=0.0, shape=PulseShape("Delta")),
     None, FIG4_DEPHASING),
]
RUN_PARAMS = SimParams(realizations=ROWS, master_seed=0)


def batch_states(rows):
    """Each run's states at its half and full length, for realizations ``rows``."""
    states = []
    for spec, noise_spec, dephasing in BATCH_RUNS:
        noise, deltas = engine._prepare_batch(noise_spec, dephasing, RUN_PARAMS, rows)
        times = [spec.N // 2 * spec.tau_c, spec.N * spec.tau_c]
        plan = engine._plan(build_schedule(spec), times, noise, 4.0 * dephasing.sigma_delta,
                            None)
        states += engine._propagate_items(*plan, noise, deltas)
    return states


FULL_STATES = batch_states(np.arange(ROWS))


@PROPERTY
@given(index_layouts(ROWS))
def test_run_batch_states_do_not_depend_on_the_batch_layout(rows):
    # A realization's states are the same bytes whether it runs in the full
    # batch, in a sub-batch, alone or in reversed index order.
    for part, full in zip(batch_states(rows), FULL_STATES):
        assert part.tobytes() == full[rows].tobytes()


def dispatch_targets():
    """The SIMD targets numpy dispatches to at run time that this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def test_layout_checks_hold_at_every_dispatch_level():
    # The two layout checks above rest on numpy's dispatched loops (einsum's
    # multiply-add, tan, the detunings' log1p and cos) rounding their
    # vector body and scalar tail alike.
    # Rerun them with each dispatch target disabled, one process per core.
    checks = [f"{__file__}::{test.__name__}" for test in
              (test_comb_values_do_not_depend_on_the_batch_layout,
               test_run_batch_states_do_not_depend_on_the_batch_layout)]
    targets = dispatch_targets()
    width = os.cpu_count() or 1
    for start in range(0, len(targets), width):
        runs = {}
        for target in targets[start:start + width]:
            env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=target)
            runs[target] = subprocess.Popen(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *checks],
                cwd=pathlib.Path(__file__).parents[1], env=env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True)
        for target, run in runs.items():
            out, _ = run.communicate(timeout=120)
            assert run.returncode == 0, f"{target} disabled:\n{out[-3000:]}"


@PROPERTY
@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_detuning_draws_equal_per_index_generators(master_seed, indices):
    # Oracle: a fresh default_rng per index and the Box-Muller normal of
    # its first two random() doubles.
    spec = DephasingSpec(sigma_delta=1.0, master_seed=master_seed)
    want = np.array([per_index_normal(master_seed, m) for m in indices])
    got = sample_detuning(spec, np.array(indices, dtype=np.uint64))
    assert got.tobytes() == want.tobytes()


VALUES = {
    "master_seed": st.integers(0, 2**64 - 1),
    "realizations": st.integers(1, 10**7),
    "dt": positive,
    "out": any_path,
    "sequence": st.sampled_from(["CPMG_Y", "XY4", "XY8"]),
    "tau": finite,
    "tau_d": finite,
    "shape": st.sampled_from(["Delta", "Square", "Gaussian"]),
    "gauss_trunc": finite,
    "noise_r": finite,
    "noise_a": non_negative,
    "delta_omega": finite,
    "n_max": st.integers(-5, 100),
    "sigma_delta": non_negative,
    "envelope_t2": positive,
    "f_larmor": positive,
    "t_min": non_negative,
    "t_max": non_negative,
    "t_points": st.integers(2, 1000),
    "t_spacing": st.sampled_from(["linear", "geometric"]),
    "target_t1": positive,
    "duration": positive,
    "sample_rate": positive,
    "realization_index": st.integers(0, 2**64 - 1),
    "word": st.text(alphabet="XYZ", min_size=1, max_size=12),
    "fit_p": st.sampled_from([1, 2]),
    "fit_model": st.sampled_from(["free", "fixed"]),
}


@st.composite
def configs(draw):
    """Configs that parse_config accepts, as the typed dicts it returns;
    `out` may be any path that --out can set."""
    exp = draw(st.sampled_from(sorted(_EXPERIMENTS)))
    required, optional = _EXPERIMENTS[exp].required, _EXPERIMENTS[exp].optional
    cfg = {"experiment": exp}
    for key in sorted((required | optional) & VALUES.keys()):
        if key in required or draw(st.booleans()):
            cfg[key] = draw(VALUES[key])
    if cfg.get("shape") != "Gaussian":
        cfg.pop("gauss_trunc", None)
    # The comb keys come together, and delta_omega and n_max need them.
    comb = {"noise_r", "noise_a"} & (required | optional)
    if not comb <= cfg.keys():
        for key in ("noise_r", "noise_a", "delta_omega", "n_max"):
            cfg.pop(key, None)
    if exp == "dd" and draw(st.booleans()):
        # Cycle counts are positive multiples of the sequence's cycle length.
        base = len(SEQUENCE_PHASES[cfg["sequence"]])
        cfg["n_list"] = tuple(base * m for m in draw(
            st.lists(st.integers(1, 100), min_size=1, max_size=8)))
    return cfg


@PROPERTY
@given(configs())
def test_dump_config_round_trips(cfg):
    try:
        text = _dump_config(cfg)
    except ConfigError as exc:
        # Only an out that would read back cut at '#' or stripped is refused.
        assert "out" in str(exc) and cfg["out"].split("#", 1)[0].strip() != cfg["out"]
        return
    assert parse_config(text) == cfg
    assert _dump_config(parse_config(text)) == text
