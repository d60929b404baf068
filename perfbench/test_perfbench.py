"""Tests of the benchmark itself: span arithmetic, the tracer, and that
every output check accepts correct output and rejects wrong physics.

Run from the repository root:  python3 -m pytest perfbench
"""
import math
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402

DATA = BENCH / "data"
FIG2_CFG = checks.parse_cfg((BENCH / "configs" / "fig2_xy8_slow.cfg").read_text())
CAL_CFG = checks.parse_cfg((BENCH / "configs" / "calibrate_t1.cfg").read_text())
FIG4_REFERENCE = (DATA / "fig4_xy8_slow_gaussian_reference.csv").read_text()
A_CAL = 142031.9491052709  # the frozen criterion-6 calibration


def csv_text(curve: checks.Curve, value=None) -> str:
    value = curve.value if value is None else value
    rows = [f"{n},{t!r},{v!r},{e!r}" for n, t, v, e in
            zip(curve.N, curve.t, value, curve.stderr)]
    return "\n".join(["N,t_s,value,stderr", *rows]) + "\n"


def test_self_time_subtracts_union_of_children():
    spans = [
        (0, 0, -1, "cli.main", 0.0, 10.0),
        (0, 1, 0, "engine.run_dd_scan", 1.0, 4.0),
        (0, 2, 1, "noise.sample_realization", 2.0, 3.0),
        (0, 3, 0, "engine.run_relaxation", 3.0, 6.0),  # overlaps its sibling
        (0, 4, 0, "analysis.fit_decay", 8.0, 9.5),
        (1, 5, -1, "cli.main", 20.0, 21.0),  # a second run, no children
    ]
    names = tracing.self_times(spans)
    assert names["cli.main"] == (10.0 - 5.0 - 1.5) + 1.0
    assert names["engine.run_dd_scan"] == 2.0
    assert names["engine.run_relaxation"] == 3.0
    layers = tracing.layer_self_times(spans)
    assert layers == {"cli": 4.5, "control": 0.0, "noise": 1.0, "engine": 5.0,
                      "analysis": 1.5}


def test_nested_spans_without_overlap_add_up_to_the_root():
    spans = [
        (0, 0, -1, "cli.main", 0.0, 8.0),
        (0, 1, 0, "engine.run_dd_scan", 1.0, 7.0),
        (0, 2, 1, "control.build_schedule", 1.0, 1.5),
        (0, 3, 1, "noise.sample_detuning", 2.0, 3.0),
    ]
    assert sum(tracing.layer_self_times(spans).values()) == 8.0


def test_tracer_wraps_lookups_and_restores_them():
    import eulerdd.cli
    import eulerdd.engine

    original = eulerdd.engine.sample_detuning
    tracer = tracing.Tracer()
    with tracer.recording(run_id=0), tracer.span("cli.main"):
        eulerdd.cli.parse_config("experiment = fid\nsigma_delta = 1e6\nt_max = 1e-6\n")
        spec = eulerdd.noise.DephasingSpec(sigma_delta=1e6, master_seed=3)
        drawn = eulerdd.engine.sample_detuning(spec, 0)
    assert eulerdd.engine.sample_detuning is original
    assert eulerdd.engine.Schedule is eulerdd.control.Schedule
    assert drawn == original(spec, 0)
    by_name = {span[3]: span for span in tracer.spans}
    root = by_name["cli.main"][1]
    assert by_name["cli.parse_config"][2] == root
    assert by_name["noise.sample_detuning"][2] == root
    assert tracer.layer_counts()["noise.draws"] == 1


def test_quadrature_oracle_reproduces_the_criterion_5_minima():
    n_list = list(range(8, 121, 8))
    args = (712e-9, 500e-9, math.sqrt(2) / 1.85e-6, n_list)
    xy8 = checks.quadrature_dd_curve("XYXYYXYX", *args)
    xy4 = checks.quadrature_dd_curve("XYXY", *args)
    assert abs(float(np.min(2 * xy8 - 1)) - 0.93708) < 1e-5
    assert abs(float(np.min(2 * xy4 - 1)) - 0.77175) < 1e-5


def test_fig2_check_accepts_a_monte_carlo_curve():
    ok, detail = checks.check_dd_quadrature(
        (DATA / "fig2_xy8_slow_m1000.csv").read_text(), FIG2_CFG)
    assert ok, detail


def test_fig2_check_rejects_xy4_in_place_of_xy8():
    curve = checks.parse_curve((DATA / "fig2_xy8_slow_m1000.csv").read_text())
    tau, tau_d = float(FIG2_CFG["tau"]), float(FIG2_CFG["tau_d"])
    xy4 = checks.quadrature_dd_curve("XYXY", tau, tau_d,
                                     float(FIG2_CFG["sigma_delta"]), list(curve.N))
    envelope = 0.5 * np.exp(-(curve.t / float(FIG2_CFG["envelope_t2"])) ** 2) + 0.5
    ok, _ = checks.check_dd_quadrature(csv_text(curve, xy4 * envelope), FIG2_CFG)
    assert not ok


def test_fig2_check_rejects_shifted_curve_and_wrong_grid():
    text = (DATA / "fig2_xy8_slow_m1000.csv").read_text()
    curve = checks.parse_curve(text)
    assert not checks.check_dd_quadrature(csv_text(curve, curve.value - 0.05), FIG2_CFG)[0]
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    assert not checks.check_dd_quadrature(short, FIG2_CFG)[0]
    assert not checks.check_dd_quadrature("", FIG2_CFG)[0]


def test_fig4_check_accepts_a_monte_carlo_curve():
    ok, detail = checks.check_dd_reference(
        (DATA / "fig4_xy8_slow_gaussian_m1000.csv").read_text(), FIG4_REFERENCE)
    assert ok, detail


def test_fig4_check_rejects_xy4_and_shifted_curve():
    xy4 = (DATA / "fig4_xy4_slow_gaussian_m1000.csv").read_text()
    assert not checks.check_dd_reference(xy4, FIG4_REFERENCE)[0]
    curve = checks.parse_curve((DATA / "fig4_xy8_slow_gaussian_m1000.csv").read_text())
    assert not checks.check_dd_reference(csv_text(curve, curve.value - 0.05),
                                         FIG4_REFERENCE)[0]


def calibration_output(amp: float) -> str:
    return f"calibrated_A = {amp!r}\nachieved_T1 = 1.3e-05\niterations = 10\n"


def test_calibration_check_accepts_the_frozen_amplitude():
    ok, detail = checks.check_calibration(calibration_output(A_CAL), CAL_CFG, seed=7)
    assert ok, detail


def test_calibration_check_rejects_wrong_amplitude_and_missing_result():
    for amp in (2 * A_CAL, A_CAL / 2, 1.25 * A_CAL):
        assert not checks.check_calibration(calibration_output(amp), CAL_CFG, 7,
                                            runs=2, realizations=1000)[0]
    assert not checks.check_calibration("error: no convergence\n", CAL_CFG, 7)[0]
