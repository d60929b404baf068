"""Decay-curve fitting.

The model is value(t) = baseline + contrast * exp(-(t/T)^p) with the
stretching exponent p fixed to 1 (exponential) or 2 (Gaussian).  Two
modes are supported: "free" treats baseline and contrast as linear
parameters profiled out at each trial T (variable projection), and
"fixed" pins them to the ideal projective-readout values 0.5 + 0.5,
appropriate when the curve is known to relax from 1 to the fully
mixed value 1/2.

The decay time is found by one search, with no starting guess and no
derivative: a geometric grid scan over trial T, then passes of 9
equally spaced log-T points over the two intervals around the best
point so far, each pass a quarter as wide as the last, down to a
spacing of 1e-4 in log T.  T is the vertex of the parabola through the
last pass's argmin and its neighbours, whose second difference sets
the variance of T.  One function, ``_profiled_chi2``, gives the
profiled weighted residual and the closed-form weighted least-squares
linear parameters at an array of trial T in one array pass; the scan,
each pass and the final parameters call it, on the weight and value
sums that ``_fit_data`` takes once per fit.  Points are weighted by
1/stderr^2.  A point whose stderr is zero, such as the exact t = 0
point of a relax or fid curve, would take infinite weight and is left
out of the fit; only a curve whose every stderr is zero is fitted with
unit weights.  A best T beyond 1e3 times the sampled span is no decay
(NoDecay), and one below a tenth of the smallest time step is a decay
the sampling does not resolve (Degenerate).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoDecay",
    "Degenerate",
    "FitResult",
    "fit_decay",
]

# Fitted T beyond this multiple of the sampled span is indistinguishable
# from no decay at all.
_NO_DECAY_FACTOR = 1e3


class NoDecay(RuntimeError):
    """The fitted decay time exceeds 1e3 times the sampled time span."""


class Degenerate(ValueError):
    """The curve carries no decay information (constant, too short, or too sparse).

    Too sparse: the fitted decay time is below a tenth of the smallest
    time step, so the curve falls between two samples.
    """


@dataclass(frozen=True)
class FitResult:
    """Best-fit decay parameters.

    covariance_T is the variance of T, 2 (h T)^2 / d2, from the second
    difference d2 of the profiled chi-square over the search's last
    three points, h apart in log T (times the reduced chi-square under
    unit weights; inf unless d2 > 0); r_squared is the weighted
    coefficient of determination, clamped to [0, 1].  Only about the
    first 8 significant digits of covariance_T carry information: d2
    cancels about half the digits of three chi-square values at most
    1e-4 apart in log T, so curve values moved by 5.6e-16 moved it by
    up to 1.8e-8 relative, and T by 4.0e-13.
    """

    T: float
    p: int
    baseline: float
    contrast: float
    r_squared: float
    covariance_T: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError("r_squared must lie in [0, 1]")
        if self.T <= 0:
            raise ValueError("T must be positive")

    def to_text(self) -> str:
        """Key-value summary lines, ready for CLI output."""
        return ("\n".join([
            f"fit_T = {self.T!r}",
            f"fit_p = {self.p}",
            f"fit_baseline = {self.baseline!r}",
            f"fit_contrast = {self.contrast!r}",
            f"fit_r_squared = {self.r_squared!r}",
            f"fit_covariance_T = {self.covariance_T!r}",
        ]) + "\n")


def _fit_data(t: np.ndarray, v: np.ndarray, w: np.ndarray) -> tuple:
    """(t, v, w, total, vbar, v - vbar, eps n): what every trial T of one fit shares.

    total is the weights' sum, vbar the weighted mean of the values v at
    the n times t, and eps n the free model's rank threshold (``_profiled_chi2``).
    """
    total = w.sum()
    mean_v = (w * v).sum() / total
    return t, v, w, total, mean_v, v - mean_v, np.finfo(float).eps * t.size


def _profiled_chi2(data: tuple, p: int, model: str,
                   trial_T: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted residual at each trial T, linear parameters solved or fixed.

    ``data`` is the ``_fit_data`` of the fitted points.  Returns arrays
    (chi2, baseline, contrast), one entry per trial T.  The fixed model
    pins baseline and contrast to 0.5.  The free model solves the
    two-parameter weighted least squares in its centered closed form,
    contrast = sum w (e - ebar)(v - vbar) / sum w (e - ebar)^2 and
    baseline = vbar - contrast ebar.  Like lstsq, it takes contrast 0
    where the design [sqrt(w), sqrt(w) e] has rank 1 to working
    precision: its smaller singular value at most eps n times the larger.
    """
    t, v, w, total, mean_v, dv, eps_n = data
    e = np.exp(-((t / trial_T[:, None]) ** p))
    if model == "fixed":
        base = con = np.full(trial_T.shape, 0.5)
        r = v - (0.5 + 0.5 * e)
    else:
        we = w * e
        mean_e = we.sum(axis=1) / total
        de = e - mean_e[:, None]
        wde = w * de
        sxx = (wde * de).sum(axis=1)
        # The design's Gram matrix has determinant total sxx and largest
        # eigenvalue top; the singular values are the eigenvalues' roots.
        sq = (we * e).sum(axis=1)
        top = 0.5 * (total + sq) + np.hypot(0.5 * (total - sq), total * mean_e)
        rank2 = total * sxx > (eps_n * top) ** 2
        con = np.divide((wde * dv).sum(axis=1), sxx, out=np.zeros_like(sxx), where=rank2)
        base = mean_v - con * mean_e
        r = dv - con[:, None] * de
    return (w * r * r).sum(axis=1), base, con


def fit_decay(curve, p: int = 1, model: str = "free") -> FitResult:
    """Fit value(t) = baseline + contrast exp(-(t/T)^p) to a decay curve.

    curve provides t, value and stderr arrays (a DecayCurve or
    anything shaped like one).  Points whose stderr is zero are left
    out unless every stderr is zero.  Raises Degenerate for constant
    or too-short curves and when the best T is below a tenth of the
    smallest step between the fitted times, and NoDecay when it runs
    off to more than 1e3 times the sampled span.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if model not in ("free", "fixed"):
        raise ValueError('model must be "free" or "fixed"')
    t = np.asarray(curve.t, dtype=float)
    v = np.asarray(curve.value, dtype=float)
    err = np.asarray(curve.stderr, dtype=float)
    if t.size < 4:
        raise Degenerate(f"need at least 4 points, got {t.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("curve values must be finite")
    unit_weights = bool(np.all(err == 0.0))
    if not unit_weights:
        fitted = err != 0.0
        t, v, err = t[fitted], v[fitted], err[fitted]
        if t.size < 4:
            raise Degenerate(f"need at least 4 points with a nonzero stderr, got {t.size}")
    if float(np.max(v) - np.min(v)) <= 1e-12 * max(1.0, float(np.max(np.abs(v)))):
        raise Degenerate("curve is constant")
    span = float(t[-1] - t[0])
    if span <= 0:
        raise Degenerate("curve spans zero time")
    w = np.ones_like(err) if unit_weights else 1.0 / (err * err)
    data = _fit_data(t, v, w)

    grid = np.geomspace(span * 1e-3, span * 2.0 * _NO_DECAY_FACTOR, 241)
    values = _profiled_chi2(data, p, model, grid)[0]
    k = int(np.argmin(values))
    if k == values.size - 1:
        raise NoDecay(f"best decay time beyond {_NO_DECAY_FACTOR:g} x span")

    # Each pass spans the two log-T intervals around the best point so far
    # with 9 points, a quarter of the last spacing apart, down to 1e-4.
    step = math.log(float(grid[1] / grid[0]))
    x = math.log(float(grid[k]))
    while step > 1e-4:
        step /= 4.0
        xs = x + step * np.arange(-4.0, 5.0)
        values, _, cons = _profiled_chi2(data, p, model, np.exp(xs))
        k = int(np.argmin(values))
        x = float(xs[k])
    # T at the vertex of the parabola through the argmin and its two
    # neighbours.  There is none when the argmin is at the edge of the last
    # pass (the scan's best was its smallest T) or a neighbour has rank 1
    # (the chi-square steps there): T stays and its variance is infinite.
    lo, mid, hi = (values[k - 1:k + 2].tolist() if 0 < k < 8 and np.all(cons[k - 1:k + 2])
                   else (0.0, 0.0, 0.0))
    d2 = lo - 2.0 * mid + hi
    best_T = math.exp(x + (0.5 * step * (lo - hi) / d2 if d2 > 0 else 0.0))
    if best_T > _NO_DECAY_FACTOR * span:
        raise NoDecay(f"fitted T = {best_T:.3e} beyond "
                      f"{_NO_DECAY_FACTOR:g} x span = {span:.3e}")
    # The fast-end twin: a decay within a tenth of one time step falls
    # between two samples, and any T below the sampling fits it alike.
    gaps = np.diff(t)
    resolution = float(gaps[gaps > 0].min())
    if best_T < 0.1 * resolution:
        raise Degenerate(f"fitted T = {best_T:.3e} below a tenth of the "
                         f"smallest time step {resolution:.3e}")
    final = _profiled_chi2(data, p, model, np.array([best_T]))
    chi_min, base, con = (float(a[0]) for a in final)

    ss_tot = float(np.sum(w * data[5] ** 2))  # data[5] = v - vbar
    r2 = min(1.0, max(0.0, 1.0 - chi_min / ss_tot)) if ss_tot > 0 else 0.0

    # Curvature in T from the second difference in log T: at the minimum
    # the first derivative, which would add a term, vanishes.
    curv = d2 / (step * best_T) ** 2
    n_free = 3 if model == "free" else 1  # T plus any profiled linear params
    dof = max(t.size - n_free, 1)
    scale = chi_min / dof if unit_weights else 1.0
    cov = 2.0 * scale / curv if curv > 0 else math.inf

    return FitResult(T=best_T, p=p, baseline=base, contrast=con,
                     r_squared=r2, covariance_T=cov)
