"""Output checks for the benchmark workloads.

Each check accepts any correct Monte Carlo output, whatever the
engine's seeding or integrator, and rejects wrong physics:

- dd under quasi-static detuning only: the curve is compared point by
  point with a Gauss-Hermite quadrature over the detuning, built from
  exact SU(2) products of the square-pulse and idle propagators.
- dd with the noise comb: the curve is compared with a reference curve
  stored beside the benchmark, within k times the combined stderr.
- calibrate: the run must converge, and relaxation runs at fresh seeds
  with the calibrated amplitude must refit T1 within 15% of the target
  with r^2 >= 0.98.

Every check returns (ok, detail).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

# Allowed deviation in units of stderr; the integrator error of a
# correct engine is orders of magnitude below one stderr at M = 1000.
K_STDERR = 5.0
# Absolute slack for points whose stderr is tiny.
ABS_SLACK = 1e-6

# Pulse axes: X = phase 0, Y = phase pi/2.
WORD_PHASE = {"X": 0.0, "Y": math.pi / 2}
SEQUENCE_WORDS = {"cpmg_y": "Y", "xy4": "XYXY", "xy8": "XYXYYXYX"}


@dataclass(frozen=True)
class Curve:
    """Columns of a DecayCurve CSV."""

    N: np.ndarray
    t: np.ndarray
    value: np.ndarray
    stderr: np.ndarray


def parse_curve(text: str) -> Curve:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "N,t_s,value,stderr":
        raise ValueError("not a DecayCurve CSV")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError("DecayCurve CSV has no data rows")
    return Curve(rows[:, 0].astype(int), rows[:, 1], rows[:, 2], rows[:, 3])


def parse_cfg(text: str) -> dict[str, str]:
    """`key = value` pairs of a config file, as strings."""
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def cycle_counts(n_list: str) -> list[int]:
    start, stop, step = (int(p) for p in n_list.split(":"))
    return list(range(start, stop + 1, step))


def _su2_exp(hx, hy, hz, t: float) -> np.ndarray:
    """exp(-i t (h . sigma) / 2), batched over the leading axis."""
    norm = np.sqrt(hx * hx + hy * hy + hz * hz)
    c = np.cos(0.5 * norm * t)
    s = 0.5 * t * np.sinc(norm * t / (2.0 * math.pi))  # sin(|h| t / 2) / |h|
    u = np.empty(np.shape(norm) + (2, 2), dtype=complex)
    u[..., 0, 0] = c - 1j * s * hz
    u[..., 1, 1] = c + 1j * s * hz
    u[..., 0, 1] = -1j * s * (hx - 1j * hy)
    u[..., 1, 0] = -1j * s * (hx + 1j * hy)
    return u


def quadrature_dd_curve(word: str, tau: float, tau_d: float, sigma_delta: float,
                        n_list: list[int], nodes: int = 64) -> np.ndarray:
    """Ensemble readout fidelity after each N in n_list, square pulses.

    The detuning delta ~ N(0, sigma_delta) is integrated by Gauss-Hermite
    quadrature; each period [idle tau][pulse tau_d][idle tau] is the
    exact product of constant-Hamiltonian propagators.
    """
    from eulerdd.control import prep_unitary, readout_unitary

    x, w = np.polynomial.hermite.hermgauss(nodes)
    delta = math.sqrt(2.0) * sigma_delta * x
    w = w / math.sqrt(math.pi)
    zero = np.zeros_like(delta)
    idle = _su2_exp(zero, zero, delta, tau)
    drive = math.pi / tau_d
    period = {}
    for letter in set(word):
        phi = WORD_PHASE[letter]
        pulse = _su2_exp(zero + drive * math.cos(phi), zero + drive * math.sin(phi),
                         delta, tau_d)
        period[letter] = idle @ pulse @ idle
    psi = np.tile(prep_unitary() @ np.array([1.0, 0.0], dtype=complex), (nodes, 1))
    read = readout_unitary()[0]
    wanted = set(n_list)
    out = {}
    for k in range(1, max(n_list) + 1):
        psi = np.einsum("nij,nj->ni", period[word[(k - 1) % len(word)]], psi)
        if k in wanted:
            out[k] = float(w @ np.abs(psi @ read) ** 2)
    return np.array([out[n] for n in n_list])


def _compare(curve: Curve, expected_n: list[int], expected: np.ndarray,
             expected_stderr=0.0) -> tuple[bool, str]:
    """Every point within K_STDERR combined stderr of the expected value."""
    if list(curve.N) != list(expected_n):
        return False, f"cycle counts {list(curve.N)} != {list(expected_n)}"
    stderr = np.sqrt(curve.stderr ** 2 + np.asarray(expected_stderr) ** 2)
    if not np.all(np.isfinite(curve.value)) or not np.all(np.isfinite(stderr)):
        return False, "non-finite value or stderr"
    dev = np.abs(curve.value - expected)
    allowed = K_STDERR * stderr + ABS_SLACK
    worst = int(np.argmax(dev / allowed))
    detail = (f"worst N={int(curve.N[worst])}: |{curve.value[worst]:.6f} - "
              f"{expected[worst]:.6f}| = {dev[worst]:.2e} vs {allowed[worst]:.2e} "
              f"allowed ({K_STDERR:g} stderr)")
    return bool(np.all(dev <= allowed)), detail


def check_dd_quadrature(csv_text: str, cfg: dict[str, str]) -> tuple[bool, str]:
    """Square-pulse dd curve under detuning only vs the quadrature oracle."""
    from eulerdd.engine import CurvePoint, DecayCurve, apply_envelope

    try:
        curve = parse_curve(csv_text)
    except ValueError as exc:
        return False, str(exc)
    n_list = cycle_counts(cfg["n_list"])
    tau, tau_d = float(cfg["tau"]), float(cfg["tau_d"])
    fidelity = quadrature_dd_curve(SEQUENCE_WORDS[cfg["sequence"]], tau, tau_d,
                                   float(cfg["sigma_delta"]), n_list)
    tau_c = 2.0 * tau + tau_d
    exact = DecayCurve(tuple(CurvePoint(n * tau_c, n, f, 0.0)
                             for n, f in zip(n_list, fidelity)))
    if "envelope_t2" in cfg:
        exact = apply_envelope(exact, float(cfg["envelope_t2"]))
    return _compare(curve, n_list, exact.value)


def check_dd_reference(csv_text: str, reference_text: str) -> tuple[bool, str]:
    """dd curve vs a stored reference, within k times the combined stderr."""
    try:
        curve = parse_curve(csv_text)
        ref = parse_curve(reference_text)
    except ValueError as exc:
        return False, str(exc)
    return _compare(curve, list(ref.N), ref.value, ref.stderr)


_CALIBRATION_LINE = re.compile(r"^(calibrated_A|iterations) = (\S+)$", re.M)


def calibration_stdout(stdout: str) -> dict[str, float]:
    return {key: float(value) for key, value in _CALIBRATION_LINE.findall(stdout)}


def check_calibration(stdout: str, cfg: dict[str, str], seed: int,
                      runs: int = 8, realizations: int = 4000) -> tuple[bool, str]:
    """The calibrated amplitude must reproduce the target T1 at fresh seeds.

    The refit averages `runs` relaxation runs of `realizations` each at
    seeds derived from `seed`.  A single run at M = 1000 scatters the
    fitted T1 by ~6% from seed to seed, which puts about a fifth of the
    seeds outside the 15% window for the frozen criterion-6 amplitude.
    """
    from eulerdd import (CurvePoint, DecayCurve, Degenerate, LorentzianNoiseSpec,
                         NoDecay, SimParams, fit_decay, run_relaxation)

    found = calibration_stdout(stdout)
    if not {"calibrated_A", "iterations"} <= set(found):
        return False, "calibration printed no result"
    target = float(cfg["target_t1"])
    amp = found["calibrated_A"]
    if not (math.isfinite(amp) and amp > 0):
        return False, f"calibrated_A = {amp!r}"
    noise = LorentzianNoiseSpec(R=float(cfg["noise_r"]), A=amp)
    grid = list(np.linspace(0.5, 2.0, 16) * target)
    curves = [run_relaxation(noise, grid, params=SimParams(
                  realizations=realizations, master_seed=seed * runs + j))
              for j in range(runs)]
    value = np.mean([c.value for c in curves], axis=0)
    stderr = np.sqrt(np.sum([c.stderr ** 2 for c in curves], axis=0)) / runs
    pooled = DecayCurve(tuple(CurvePoint(t, 0, float(v), float(e))
                              for t, v, e in zip(grid, value, stderr)))
    try:
        fit = fit_decay(pooled, p=1, model="free")
    except (NoDecay, Degenerate) as exc:
        return False, f"A = {amp:.6e}: refit failed ({exc})"
    ok = abs(fit.T - target) <= 0.15 * target and fit.r_squared >= 0.98
    return ok, (f"A = {amp:.6e}, refit T1 = {fit.T * 1e6:.3f} us over "
                f"{runs} x {realizations} realizations (target {target * 1e6:.2f} us, "
                f"15%), r^2 = {fit.r_squared:.4f}")
