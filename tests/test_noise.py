"""Comb weights, phase streams, field synthesis, and noise statistics."""
import math

import numpy as np
import pytest
from scipy import stats

from eulerdd import (CutoffExceeded, DephasingSpec, LorentzianNoiseSpec,
                     SampleBudgetExceeded, derive_seed,
                     estimate_autocorrelation, export_waveform, field_at,
                     parseval_power, sample_detuning, sample_realization,
                     splitmix64, weight, weights_all)
from eulerdd.noise import STREAM_DETUNING, STREAM_NOISE

R_SLOW = 2 * math.pi * 1e3
R_FAST = 2 * math.pi * 5e3


def spec_with(R=R_FAST, A=1.0, **kw):
    return LorentzianNoiseSpec(R=R, A=A, **kw)


def test_splitmix64_known_answers():
    # Reference outputs of the standard splitmix64 stream from seed 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_derive_seed_separates_streams():
    assert derive_seed(0) == splitmix64(0)
    noise0 = derive_seed(0, STREAM_NOISE, 0)
    assert noise0 == derive_seed(0, STREAM_NOISE, 0)
    assert noise0 != derive_seed(0, STREAM_DETUNING, 0)
    assert noise0 != derive_seed(0, STREAM_NOISE, 1)
    assert noise0 != derive_seed(1, STREAM_NOISE, 0)


def test_spec_validation_and_derived_quantities():
    spec = spec_with()
    assert list(spec.indices) == list(range(-10, 11))
    assert spec.period == pytest.approx(1e-3)
    assert spec.seed_or_zero() == 0
    for bad in (dict(R=0.0), dict(A=-1.0), dict(n_max=0), dict(delta_omega=0.0)):
        with pytest.raises(ValueError):
            LorentzianNoiseSpec(**{**dict(R=R_FAST, A=1.0), **bad})


def test_weights_lorentzian_profile():
    spec = spec_with()
    assert weight(spec, 0) == pytest.approx(math.sqrt(2 * spec.delta_omega / spec.R))
    w = weights_all(spec)
    assert w.shape == (21,)
    assert np.all(w[:10] == w[:10:-1])  # even in n
    for n, wn in zip(spec.indices, w):
        assert weight(spec, int(n)) == wn
        omega_n = 2 * math.pi * n * spec.delta_omega
        # W(n)^2 (omega_n^2 + R^2) is the flat Lorentzian numerator.
        assert wn**2 * (omega_n**2 + spec.R**2) == pytest.approx(
            2 * spec.delta_omega * spec.R)
    with pytest.raises(CutoffExceeded):
        weight(spec, spec.n_max + 1)


def test_sample_realization_deterministic_per_index():
    spec = spec_with(master_seed=42)
    a = sample_realization(spec, 3)
    b = sample_realization(spec, 3)
    assert np.array_equal(a.phases, b.phases)
    assert a.realization_index == 3
    assert not np.array_equal(a.phases, sample_realization(spec, 4).phases)
    other = LorentzianNoiseSpec(R=spec.R, A=spec.A, master_seed=43)
    assert not np.array_equal(a.phases, sample_realization(other, 3).phases)


def test_phases_are_uniform():
    spec = spec_with(master_seed=7)
    pooled = np.concatenate([sample_realization(spec, m).phases for m in range(200)])
    assert pooled.min() >= 0.0 and pooled.max() < 2 * np.pi
    result = stats.kstest(pooled, "uniform", args=(0.0, 2 * np.pi))
    assert result.pvalue > 1e-3


def test_realization_validation_and_immutability():
    with pytest.raises(ValueError, match="1-d"):
        sample_realization(spec_with(), 0).__class__(
            phases=np.zeros((2, 3)), realization_index=0)
    with pytest.raises(ValueError, match="0, 2 pi"):
        sample_realization(spec_with(), 0).__class__(
            phases=np.array([7.0]), realization_index=0)
    real = sample_realization(spec_with(), 0)
    with pytest.raises(ValueError):
        real.phases[0] = 0.0


def test_field_is_periodic():
    spec = spec_with(master_seed=5)
    real = sample_realization(spec, 0)
    t = np.linspace(0.0, 0.9e-3, 7)
    bx0, by0 = field_at(spec, real, t)
    bx1, by1 = field_at(spec, real, t + spec.period)
    assert np.allclose(bx0, bx1, atol=1e-9)
    assert np.allclose(by0, by1, atol=1e-9)


def test_field_batching_is_bitwise_stable():
    # Fixed index-order accumulation: vector and scalar calls agree exactly.
    spec = spec_with(master_seed=5)
    real = sample_realization(spec, 1)
    t = np.array([0.0, 1.3e-4, 7.7e-4])
    bx, by = field_at(spec, real, t)
    for i, ti in enumerate(t):
        sx, sy = field_at(spec, real, float(ti))
        assert float(sx) == bx[i] and float(sy) == by[i]


def test_parseval_power_is_phase_independent():
    spec = spec_with(A=2.5e5, master_seed=11)
    targets = []
    for m in range(5):
        measured, target = parseval_power(spec, sample_realization(spec, m))
        assert measured == pytest.approx(target, rel=1e-9)
        targets.append(target)
    assert targets[0] == pytest.approx(
        0.5 * spec.A**2 * float(np.sum(weights_all(spec) ** 2)))


def test_autocorrelation_matches_truncated_comb():
    # Frozen analytic values of sum W^2 cos(omega_n / R) / sum W^2.
    for R, frozen in ((R_SLOW, 0.391252), (R_FAST, 0.638929)):
        spec = LorentzianNoiseSpec(R=R, A=1.0, master_seed=3)
        w2 = weights_all(spec) ** 2
        omega = 2 * np.pi * spec.indices * spec.delta_omega
        analytic = float(np.sum(w2 * np.cos(omega / R)) / np.sum(w2))
        assert analytic == pytest.approx(frozen, abs=1e-6)
        measured = estimate_autocorrelation(spec, 1.0 / R, M=300)
        assert measured == pytest.approx(analytic, abs=0.05)


def test_autocorrelation_validation():
    with pytest.raises(ValueError, match="M must be"):
        estimate_autocorrelation(spec_with(), 1e-4, M=10)
    with pytest.raises(ValueError, match="A = 0"):
        estimate_autocorrelation(spec_with(A=0.0), 1e-4, M=50)


def test_sample_detuning_statistics_and_modes():
    spec = DephasingSpec(sigma_delta=1e5, master_seed=9)
    assert sample_detuning(spec, 12) == sample_detuning(spec, 12)
    draws = np.array([sample_detuning(spec, m) for m in range(2000)])
    assert np.std(draws) == pytest.approx(1e5, rel=0.05)
    assert stats.kstest(draws, "norm", args=(0.0, 1e5)).pvalue > 1e-3
    assert sample_detuning(DephasingSpec(sigma_delta=0.0), 0) == 0.0


def test_dephasing_spec_validation():
    with pytest.raises(ValueError, match="sigma_delta"):
        DephasingSpec(sigma_delta=-1.0)


def test_export_waveform(tmp_path):
    spec = spec_with(A=2e5, master_seed=1)
    real = sample_realization(spec, 0)
    path = tmp_path / "trace.csv"
    count = export_waveform(spec, real, duration=1e-4, sample_rate=1e6, path=path)
    assert count == 100
    lines = path.read_text().split("\n")
    assert lines[0] == "t_s,bx_rad_s,by_rad_s"
    assert len(lines) == count + 2 and lines[-1] == ""
    t0, bx0, by0 = (float(v) for v in lines[1].split(","))
    ex, ey = field_at(spec, real, 0.0)
    assert (t0, bx0, by0) == (0.0, float(ex), float(ey))
    with pytest.raises(SampleBudgetExceeded):
        export_waveform(spec, real, duration=10.0, sample_rate=1e8, path=path)
    with pytest.raises(ValueError, match="positive"):
        export_waveform(spec, real, duration=0.0, sample_rate=1e6, path=path)
