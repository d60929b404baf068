"""Decay fitting: recovery, uncertainty coverage, and normalization."""
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from eulerdd import analysis, engine
from eulerdd import (CurvePoint, DecayCurve, Degenerate, FitResult,
                     LorentzianNoiseSpec, NoDecay, SimParams, calibrate_amplitude,
                     fit_decay)
from helpers import RangeViolation, normalize_coherence


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


def points(t, v, stderr):
    """A DecayCurve of values v at times t, every point with the same stderr."""
    return DecayCurve(tuple(CurvePoint(float(ti), 0, float(vi), stderr)
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


def lstsq_chi2(t, v, w, p, model, trial_T):
    """Oracle for analysis._profiled_chi2 at one trial T: (chi2, baseline,
    contrast), the linear parameters fixed or solved by np.linalg.lstsq."""
    e = np.exp(-((t / trial_T) ** p))
    if model == "fixed":
        base, con = 0.5, 0.5
    else:
        sw = np.sqrt(w)
        design = np.stack([sw, sw * e], axis=1)
        sol, *_ = np.linalg.lstsq(design, sw * v, rcond=None)
        base, con = float(sol[0]), float(sol[1])
    r = v - (base + con * e)
    return float(np.sum(w * r * r)), base, con


@pytest.mark.parametrize("p,seed", [(1, 0), (1, 5), (2, 0), (2, 5)])
def test_free_fit_reaches_the_profiled_chi2_minimum(monkeypatch, p, seed):
    # A noisy curve over the calibration window [0.5, 2] x T, where
    # baseline and contrast trade off strongly against T.  Independent
    # oracle: a bounded scalar minimization of the lstsq profiled
    # chi-square.  The fit must reach it within a bounded number of trial T.
    T = 12.87e-6
    t = np.linspace(0.5, 2.0, 16) * T
    v = 0.5 + 0.45 * np.exp(-((t / T) ** p)) + np.random.default_rng(seed).normal(0.0, 0.01, 16)
    curve = DecayCurve(tuple(CurvePoint(float(ti), 0, float(vi), 0.01)
                             for ti, vi in zip(t, v)))
    evaluations = []
    profiled = analysis._profiled_chi2

    def counted(*args):
        evaluations.extend(args[-1])
        return profiled(*args)

    monkeypatch.setattr(analysis, "_profiled_chi2", counted)
    fit = fit_decay(curve, p=p, model="free")
    monkeypatch.undo()
    w = np.full(t.size, 1.0 / 0.01**2)
    best = minimize_scalar(lambda x: lstsq_chi2(t, v, w, p, "free", x)[0],
                           bounds=(0.3 * T, 3.0 * T), method="bounded",
                           options={"xatol": 1e-15})
    assert fit.T == pytest.approx(best.x, rel=1e-6)
    chi2, base, con = lstsq_chi2(t, v, w, p, "free", fit.T)
    assert fit.baseline == pytest.approx(base, rel=1e-9)
    assert fit.contrast == pytest.approx(con, rel=1e-9)
    assert len(evaluations) < 300  # 241 grid points, 5 passes of 9, then the vertex


def test_calibration_fits_take_a_bounded_number_of_trial_T(monkeypatch):
    # The criterion-6 calibration at its own seed.  Its bisection probes
    # include poorly fitting curves (the 4th: r^2 0.84, contrast 6.3), on
    # which a refinement that overshoots the minimum wanders for many
    # steps.  Every fit must stay within the trial-T budget of the test above.
    counts = []
    profiled, fit = analysis._profiled_chi2, analysis.fit_decay

    def counted_fit(*args, **kwargs):
        counts.append(0)
        return fit(*args, **kwargs)

    def counted_chi2(*args):
        counts[-1] += len(args[-1])
        return profiled(*args)

    monkeypatch.setattr(analysis, "fit_decay", counted_fit)
    monkeypatch.setattr(analysis, "_profiled_chi2", counted_chi2)
    cal = calibrate_amplitude(LorentzianNoiseSpec(R=31415.926535897932, A=0.0), 12.87e-6,
                              params=SimParams(realizations=1000, master_seed=20260815))
    # One of its 10 runs decays before the fit window opens and is not fitted.
    assert cal.iterations == 10 and len(counts) == 9
    assert max(counts) <= 300, counts


def scan_and_each(t, v, w, p, model):
    """fit_decay's grid scan, and the lstsq oracle at each of its trial T alone."""
    span = t[-1] - t[0]
    grid = np.geomspace(span * 1e-3, span * 2.0 * analysis._NO_DECAY_FACTOR, 241)
    each = [lstsq_chi2(t, v, w, p, model, x)[0] for x in grid]
    return (analysis._profiled_chi2(analysis._fit_data(t, v, w), p, model, grid)[0],
            np.array(each))


@pytest.mark.parametrize("model", ["free", "fixed"])
@pytest.mark.parametrize("p", [1, 2])
def test_grid_scan_has_the_argmin_of_the_profiled_chi2(p, model):
    # The one-pass grid scan against the lstsq oracle evaluated at each
    # trial T on its own: random decays sampled over several points, with random
    # sizes, weights, offsets and time scales.
    rng = np.random.default_rng(100 * p + len(model))
    for _ in range(40):
        n = int(rng.integers(8, 40))
        T = 10.0 ** rng.uniform(-7, 0)
        t = T * (np.linspace(rng.uniform(0.0, 0.3), rng.uniform(2.0, 6.0), n)
                 + rng.uniform(0.0, 0.02, n))
        err = rng.uniform(0.002, 0.05, n)
        v = (rng.uniform(0.3, 0.6) + rng.uniform(0.2, 0.6) * np.exp(-((t / T) ** p))
             + rng.normal(0.0, 1.0, n) * err)
        scan, each = scan_and_each(t, v, 1.0 / err**2, p, model)
        assert int(np.argmin(scan)) == int(np.argmin(each))


def test_grid_scan_keeps_the_rank_cut_of_lstsq():
    # One high point before a flat tail: the best fits are the fastest
    # decays that lstsq still resolves from a constant.  Where the design
    # has rank 1 to working precision, the scan too takes the constant fit.
    for seed in range(6):
        v = 0.5 + np.random.default_rng(seed).normal(0.0, 0.01, 10)
        v[0] = 0.9
        scan, each = scan_and_each(np.linspace(1.0, 10.0, 10), v, np.full(10, 1e4), 1, "free")
        assert int(np.argmin(scan)) == int(np.argmin(each))


def test_a_minimum_the_search_cannot_bracket_has_no_variance():
    # One high point before a flat tail: the free fit matches that point
    # exactly down to the smallest T that lstsq still resolves from a
    # constant, where the chi-square steps up instead of curving.  That T
    # is about t[0] / 32; with the curve sampled from five steps in, it
    # lies above a tenth of a step, so the fit stands, with no variance.
    noise = np.random.default_rng(0).normal(0.0, 0.01, 10)
    spike = 0.5 + noise
    spike[0] = 0.9
    t = np.linspace(5.0, 14.0, 10)
    fit = fit_decay(points(t, spike, 0.01), p=1, model="free")
    assert 0.1 < fit.T < 0.03 * (t[-1] - t[0])
    assert fit.covariance_T == math.inf
    # Sampled from one step in, the same spike fits below a tenth of a
    # step.  Under 0.5, a fixed-model curve fits best with every point
    # fully decayed: its chi-square falls toward T -> 0 and the scan's best
    # is its smallest T.  Both are decays faster than the sampling.
    t = np.linspace(1.0, 10.0, 10)
    for v, model in ((0.45 + noise, "fixed"), (spike, "free")):
        with pytest.raises(Degenerate, match="below a tenth of the smallest time step"):
            fit_decay(points(t, v, 0.01), p=1, model=model)


@pytest.mark.parametrize("model", ["free", "fixed"])
@pytest.mark.parametrize("T", [1e-9, 50e-9])
def test_a_decay_faster_than_the_sampling_is_degenerate(T, model):
    # 16 points 1 us apart, the fast-end twin of NoDecay: any T below the
    # sampling fits a decay within the first step alike (the scan's floor,
    # 1.4e-8 s, with r^2 = 0.99 for a true T of 1 ns or 50 ns), so a fit
    # below a tenth of the smallest step is refused.
    t = np.linspace(0.0, 15e-6, 16)
    v = 0.5 + 0.5 * np.exp(-t / T) + np.random.default_rng(3).normal(0.0, 0.01, 16)
    with pytest.raises(Degenerate, match="below a tenth of the smallest time step"):
        fit_decay(points(t, np.clip(v, 0.0, 1.0), 0.01), p=1, model=model)
    # A decay over a fifth of a step is resolved and fitted.
    fit = fit_decay(points(t, 0.5 + 0.5 * np.exp(-t / 0.2e-6), 1e-3), p=1, model=model)
    assert fit.T == pytest.approx(0.2e-6, rel=1e-6)


def test_calibration_reads_a_decay_faster_than_the_sampling_as_too_strong(monkeypatch):
    # A stand-in for the relaxation runs: an exponential of T1 ~ 1 / A^2
    # up to twice the golden-rule guess, and above it a curve that falls to
    # the mixed level within a nanosecond, sampled 1 us apart from t = 0.
    # The fit refuses that curve as too fast; the calibration must bracket
    # the target with it as a too strong amplitude, not as one that never
    # decays, and converge at the guess.
    target = 10e-6
    guess = math.sqrt(31415.926535897932 / target)

    def relaxation(spec, t_list, dephasing=None, params=None, *, _phasors=None):
        t = np.array(t_list)
        if spec.A > 2.0 * guess:
            return points(t - t[0], 0.5 + 0.5 * np.exp(-(t - t[0]) / 1e-9), 1e-3)
        return points(t, 0.5 + 0.5 * np.exp(-t / (target * (guess / spec.A) ** 2)), 1e-3)

    monkeypatch.setattr(engine, "run_relaxation", relaxation)
    cal = calibrate_amplitude(LorentzianNoiseSpec(R=31415.926535897932, A=0.0), target,
                              params=SimParams(realizations=4))
    assert cal.A == pytest.approx(guess, rel=1e-12) and cal.iterations == 3


def test_exact_points_are_left_out_of_the_weighted_fit():
    # An exact t = 0 point (stderr 0, as in every relax or fid curve) takes
    # no part in the fit, instead of switching the whole fit to unit weights.
    t = np.linspace(0.1, 3.0, 16)
    err = 0.002 + 0.02 * t / t[-1]
    v = 0.5 + 0.5 * np.exp(-t) + np.random.default_rng(3).normal(0.0, 1.0, t.size) * err
    noisy = [CurvePoint(float(ti), 0, float(vi), float(ei)) for ti, vi, ei in zip(t, v, err)]
    exact = CurvePoint(0.0, 0, 1.0, 0.0)
    for model in ("free", "fixed"):
        fit = fit_decay(DecayCurve((exact, *noisy)), p=1, model=model)
        assert fit == fit_decay(DecayCurve(tuple(noisy)), p=1, model=model)
        assert fit.T == pytest.approx(1.0, rel=0.1)
    # Unit weights remain only for a curve whose every stderr is zero, and a
    # fit needs four points with a nonzero stderr.
    unweighted = DecayCurve(tuple(CurvePoint(p.t, 0, p.value, 0.0) for p in noisy))
    assert fit_decay(unweighted, p=1).T == pytest.approx(1.0, rel=0.1)
    with pytest.raises(Degenerate, match="4 points with a nonzero stderr, got 3"):
        fit_decay(DecayCurve((exact, *noisy[:3], *(CurvePoint(p.t, 0, p.value, 0.0)
                                                    for p in noisy[3:6]))))


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
