"""Decay fitting: recovery, uncertainty coverage, and normalization."""
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from eulerdd import analysis
from eulerdd import (CurvePoint, DecayCurve, Degenerate, FitResult, NoDecay,
                     RangeViolation, fit_decay, normalize_coherence)


def synthetic(T, p=1, baseline=0.5, contrast=0.5, n=20, t_max=None,
              noise=0.0, seed=0, stderr=None):
    t = np.linspace(0.05, 1.0, n) * (t_max if t_max is not None else 3 * T)
    v = baseline + contrast * np.exp(-((t / T) ** p))
    if noise:
        v = v + np.random.default_rng(seed).normal(0.0, noise, size=n)
    v = np.clip(v, 0.0, 1.0)
    err = noise if stderr is None else stderr
    return DecayCurve(tuple(CurvePoint(float(ti), 0, float(vi), err)
                            for ti, vi in zip(t, v)))


def test_exact_exponential_recovery():
    fit = fit_decay(synthetic(1.83e-3), p=1, model="free")
    assert fit.T == pytest.approx(1.83e-3, rel=1e-6)
    assert fit.baseline == pytest.approx(0.5, abs=1e-6)
    assert fit.contrast == pytest.approx(0.5, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert fit.p == 1


def test_exact_gaussian_recovery_fixed_model():
    fit = fit_decay(synthetic(1.85e-6, p=2), p=2, model="fixed")
    assert fit.T == pytest.approx(1.85e-6, rel=1e-6)
    assert fit.baseline == 0.5 and fit.contrast == 0.5
    assert fit.p == 2


def test_free_model_recovers_shifted_linear_parameters():
    fit = fit_decay(synthetic(2.0, baseline=0.62, contrast=0.31), p=1)
    assert fit.T == pytest.approx(2.0, rel=1e-6)
    assert fit.baseline == pytest.approx(0.62, abs=1e-6)
    assert fit.contrast == pytest.approx(0.31, abs=1e-6)


@pytest.mark.parametrize("p,seed", [(1, 0), (1, 5), (2, 0), (2, 5)])
def test_free_fit_reaches_the_profiled_chi2_minimum(monkeypatch, p, seed):
    # A noisy curve over the calibration window [0.5, 2] x T, where
    # baseline and contrast trade off strongly against T.  Independent
    # oracle: a bounded scalar minimization of the same profiled
    # chi-square.  The fit must reach it well inside the iteration cap.
    T = 12.87e-6
    t = np.linspace(0.5, 2.0, 16) * T
    v = 0.5 + 0.45 * np.exp(-((t / T) ** p)) + np.random.default_rng(seed).normal(0.0, 0.01, 16)
    curve = DecayCurve(tuple(CurvePoint(float(ti), 0, float(vi), 0.01)
                             for ti, vi in zip(t, v)))
    evaluations = []
    profiled = analysis._profiled_chi2

    def counted(*args):
        evaluations.append(args[-1])
        return profiled(*args)

    monkeypatch.setattr(analysis, "_profiled_chi2", counted)
    fit = fit_decay(curve, p=p, model="free")
    monkeypatch.undo()
    w = np.full(t.size, 1.0 / 0.01**2)
    best = minimize_scalar(lambda x: profiled(t, v, w, p, "free", x)[0],
                           bounds=(0.3 * T, 3.0 * T), method="bounded",
                           options={"xatol": 1e-15})
    assert fit.T == pytest.approx(best.x, rel=1e-6)
    assert len(evaluations) < 300  # 241 grid points, then a few steps


def test_noisy_recovery_within_tolerance():
    fit = fit_decay(synthetic(1.83e-3, noise=0.01, seed=4), p=1, model="free")
    assert fit.T == pytest.approx(1.83e-3, rel=0.03)
    assert fit.r_squared > 0.95


def test_scale_equivariance():
    # Rescaling time rescales T and sqrt(covariance) by the same factor.
    a = fit_decay(synthetic(1.0, noise=0.01, seed=1))
    b = fit_decay(synthetic(1e-6, noise=0.01, seed=1))
    assert b.T == pytest.approx(1e-6 * a.T, rel=1e-9)
    assert b.covariance_T == pytest.approx(1e-12 * a.covariance_T, rel=1e-6)
    assert b.r_squared == pytest.approx(a.r_squared, abs=1e-9)


def test_covariance_gives_calibrated_coverage():
    # ~95% of noisy fits should land within 2 sigma of the truth.
    T_true, hits, trials = 1.0, 0, 200
    for s in range(trials):
        fit = fit_decay(synthetic(T_true, noise=0.01, seed=s, n=16), p=1)
        if abs(fit.T - T_true) <= 2.0 * math.sqrt(fit.covariance_T):
            hits += 1
    assert hits / trials > 0.85


def test_weighting_prefers_precise_points():
    # A wild point with a huge stderr must not drag the fit.
    curve = synthetic(1.0, noise=0.0, stderr=0.01)
    pts = list(curve.points)
    pts[10] = CurvePoint(pts[10].t, 0, 0.0, 10.0)
    fit = fit_decay(DecayCurve(tuple(pts)), p=1)
    assert fit.T == pytest.approx(1.0, rel=1e-3)


def test_degenerate_inputs():
    with pytest.raises(Degenerate, match="at least 4"):
        fit_decay(synthetic(1.0, n=3))
    flat = DecayCurve(tuple(CurvePoint(float(t), 0, 0.75, 0.0)
                            for t in range(1, 8)))
    with pytest.raises(Degenerate, match="constant"):
        fit_decay(flat)


def test_no_decay_on_shallow_linear_trend():
    # A linear drift is the T -> infinity limit of the model: the best
    # exponential runs off the search grid and must be reported as NoDecay.
    pts = tuple(CurvePoint(float(t), 0, 0.8 - 1e-6 * t, 0.0)
                for t in range(1, 12))
    with pytest.raises(NoDecay):
        fit_decay(DecayCurve(pts), p=1, model="free")


def test_fit_argument_validation():
    curve = synthetic(1.0)
    with pytest.raises(ValueError, match="p must be"):
        fit_decay(curve, p=3)
    with pytest.raises(ValueError, match="model"):
        fit_decay(curve, model="stretch")


def test_fit_result_validation_and_text():
    with pytest.raises(ValueError, match="r_squared"):
        FitResult(T=1.0, p=1, baseline=0.5, contrast=0.5,
                  r_squared=1.5, covariance_T=0.0)
    with pytest.raises(ValueError, match="T must be"):
        FitResult(T=0.0, p=1, baseline=0.5, contrast=0.5,
                  r_squared=1.0, covariance_T=0.0)
    text = fit_decay(synthetic(2.5)).to_text()
    for key in ("fit_T", "fit_p", "fit_baseline", "fit_contrast",
                "fit_r_squared", "fit_covariance_T"):
        assert f"{key} = " in text
    assert text.endswith("\n")


def test_normalize_coherence_maps_and_clamps():
    curve = DecayCurve((CurvePoint(1.0, 0, 1.0, 0.01),
                        CurvePoint(2.0, 0, 0.75, 0.02),
                        CurvePoint(3.0, 0, 0.47, 0.03)))
    out = normalize_coherence(curve)
    assert [p.value for p in out.points] == pytest.approx([1.0, 0.5, 0.0])
    assert [p.stderr for p in out.points] == pytest.approx([0.02, 0.04, 0.06])
    assert [p.t for p in out.points] == [1.0, 2.0, 3.0]


def test_normalize_coherence_floor():
    curve = DecayCurve((CurvePoint(1.0, 0, 0.44, 0.01),))
    with pytest.raises(RangeViolation, match="0.45 floor"):
        normalize_coherence(curve)
