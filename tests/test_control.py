"""Pulse envelopes, schedule layout, and the Larmor resonance screen."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from eulerdd import (InvalidTiming, LarmorCheck, PulseShape, SEQUENCE_WORDS,
                     SequenceSpec, build_schedule, check_larmor_resonance,
                     prep_unitary, pulse_angle, readout_unitary)
from helpers import OutOfSegment, envelope_at

TAU_D = 100e-9


def test_square_envelope_value_and_area():
    shape = PulseShape("Square")
    assert envelope_at(shape, 0.0, TAU_D) == pytest.approx(math.pi / TAU_D)
    assert envelope_at(shape, TAU_D, TAU_D) == pytest.approx(math.pi / TAU_D)
    area, _ = quad(lambda t: envelope_at(shape, t, TAU_D), 0.0, TAU_D)
    assert area == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize("trunc", [1.5, 2.5, 10.0])
def test_gaussian_envelope_area_is_pi(trunc):
    # Renormalization must absorb both the truncation window and the
    # [0, tau_d] support limit (half-width 2.5 sigma).
    shape = PulseShape("Gaussian", gauss_trunc=trunc)
    area, _ = quad(lambda t: envelope_at(shape, t, TAU_D), 0.0, TAU_D,
                   points=[TAU_D / 2], limit=200)
    assert area == pytest.approx(math.pi, rel=1e-9)
    # An array of times evaluates each time exactly as the scalar call does.
    t = np.linspace(0.0, TAU_D, 257)
    scalar = [envelope_at(shape, float(ti), TAU_D) for ti in t]
    assert np.array_equal(envelope_at(shape, t, TAU_D), scalar)


@pytest.mark.parametrize("kind, trunc", [("Square", 2.5), ("Gaussian", 0.7), ("Gaussian", 1.5),
                                         ("Gaussian", 2.5), ("Gaussian", 10.0)])
def test_pulse_angle_is_the_integral_of_the_envelope(kind, trunc):
    # The closed-form drive angle is the envelope's integral from the pulse
    # start, flat across a truncated Gaussian's zero margins, and exactly 0
    # and pi at the pulse's ends.
    shape = PulseShape(kind, gauss_trunc=trunc)
    t = np.linspace(0.0, TAU_D, 41)
    angle = pulse_angle(shape, TAU_D, t)
    edges = [TAU_D / 2 + k * trunc * TAU_D / 5 for k in (-1, 0, 1)]
    for ti, theta in zip(t, angle):
        area, _ = quad(lambda s: envelope_at(shape, s, TAU_D), 0.0, ti,
                       points=[e for e in edges if 0.0 < e < ti] or None, limit=200)
        assert theta == pytest.approx(area, rel=1e-12, abs=1e-13)
    assert angle[0] == 0.0 and angle[-1] == math.pi
    assert np.all(np.diff(angle) >= 0.0)


def test_gaussian_truncation_zeroes_tails():
    shape = PulseShape("Gaussian", gauss_trunc=1.0)
    # t = 0 sits 2.5 sigma from center, outside the 1 sigma window.
    assert envelope_at(shape, 0.0, TAU_D) == 0.0
    assert envelope_at(shape, TAU_D / 2, TAU_D) > 0.0


def test_envelope_domain_errors():
    shape = PulseShape("Square")
    with pytest.raises(OutOfSegment):
        envelope_at(shape, -1e-12, TAU_D)
    with pytest.raises(OutOfSegment):
        envelope_at(shape, TAU_D * 1.001, TAU_D)
    with pytest.raises(OutOfSegment):
        envelope_at(shape, np.array([0.0, TAU_D * 1.001]), TAU_D)
    with pytest.raises(OutOfSegment):
        envelope_at(PulseShape("Delta"), TAU_D / 2, TAU_D)
    with pytest.raises(InvalidTiming):
        envelope_at(shape, 0.0, 0.0)


def test_pulse_shape_validation():
    with pytest.raises(ValueError, match="unknown pulse shape"):
        PulseShape("Triangle")
    with pytest.raises(ValueError, match="gauss_trunc"):
        PulseShape("Gaussian", gauss_trunc=0.0)


def test_sequence_spec_validation():
    good = dict(name="XY8", N=8, tau=1e-6, tau_d=TAU_D)
    SequenceSpec(**good)
    with pytest.raises(ValueError, match="unknown sequence name"):
        SequenceSpec(**{**good, "name": "UDD"})
    with pytest.raises(ValueError, match="phase pattern"):
        SequenceSpec(**{**good, "name": "Custom"})
    # A named sequence has its own phases; a given pattern is refused, not dropped.
    for name in ("CPMG_Y", "XY4", "XY8"):
        with pytest.raises(ValueError, match=f"{name} has its own phases"):
            SequenceSpec(**{**good, "name": name, "phases": (1.0,)})
    with pytest.raises(InvalidTiming, match="N must be"):
        SequenceSpec(**{**good, "N": 0})
    with pytest.raises(ValueError, match="N must be an integer"):
        SequenceSpec(**{**good, "N": 2.5})
    assert SequenceSpec(**{**good, "N": np.int64(8)}).N == 8
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="phases must be finite"):
            SequenceSpec(**{**good, "name": "Custom", "phases": (0.0, bad)})
    with pytest.raises(InvalidTiming, match="tau must be positive"):
        SequenceSpec(**{**good, "tau": 0.0})
    with pytest.raises(InvalidTiming, match="tau_d must be positive"):
        SequenceSpec(**{**good, "tau_d": 0.0})


def test_phase_patterns():
    # Each named sequence's phases, read from its word, are the bytes of the
    # float patterns the words replaced: 0.0 for X and pi/2 for Y.
    x, y = (0.0).hex(), (math.pi / 2).hex()
    assert y == "0x1.921fb54442d18p+0"
    pinned = {"CPMG_Y": [y], "XY4": [x, y], "XY8": [x, y, x, y, y, x, y, x]}
    assert SEQUENCE_WORDS.keys() == pinned.keys()
    for name, phases in pinned.items():
        spec = SequenceSpec(name, N=len(phases), tau=1e-6, tau_d=TAU_D)
        assert [phase.hex() for phase in spec.base_phases] == phases
    custom = SequenceSpec("Custom", N=2, tau=1e-6, tau_d=TAU_D, phases=(0.3,))
    assert custom.base_phases == (0.3,)


def test_delta_shape_occupies_zero_time():
    spec = SequenceSpec("CPMG_Y", N=4, tau=1e-6, tau_d=0.0, shape=PulseShape("Delta"))
    assert spec.effective_tau_d == 0.0
    assert spec.tau_c == pytest.approx(2e-6)
    sched = build_schedule(spec)
    assert sched.total_time == pytest.approx(4 * 2e-6)
    assert all(seg.duration == 0.0 for seg in sched.segments if seg.is_pulse)


def test_build_schedule_layout():
    tau = 1e-6
    spec = SequenceSpec("XY4", N=4, tau=tau, tau_d=TAU_D)
    sched = build_schedule(spec)
    assert sched.spec is spec
    assert len(sched.segments) == 2 * spec.N + 1
    assert sched.total_time == pytest.approx(spec.N * spec.tau_c)
    assert sched.segments[0].duration == pytest.approx(tau)
    assert sched.segments[-1].duration == pytest.approx(tau)
    pulses = [seg for seg in sched.segments if seg.is_pulse]
    assert [seg.phase for seg in pulses] == [0.0, math.pi / 2, 0.0, math.pi / 2]
    idles = [seg for seg in sched.segments if not seg.is_pulse]
    assert all(seg.duration == pytest.approx(2 * tau) for seg in idles[1:-1])
    # Pulse k is centered at (2k - 1) * tau_c / 2.
    elapsed, centers = 0.0, []
    for seg in sched.segments:
        if seg.is_pulse:
            centers.append(elapsed + seg.duration / 2)
        elapsed += seg.duration
    expect = [(2 * k - 1) * spec.tau_c / 2 for k in range(1, spec.N + 1)]
    assert centers == pytest.approx(expect)


@pytest.mark.parametrize("shape", ["Square", "Gaussian"])
def test_long_schedules_build(shape):
    # 160,001 segments: a plain float sum of the durations drifts past
    # the layout guard's 1e-12 relative tolerance; the exact sum does not.
    spec = SequenceSpec("XY8", N=80000, tau=500e-9, tau_d=100e-9, shape=PulseShape(shape))
    sched = build_schedule(spec)
    assert len(sched.segments) == 2 * spec.N + 1
    assert sched.total_time == spec.N * spec.tau_c
    assert math.fsum(seg.duration for seg in sched.segments) == pytest.approx(
        sched.total_time, rel=1e-15)


def test_schedule_to_text():
    sched = build_schedule(SequenceSpec("CPMG_Y", N=2, tau=1e-6, tau_d=TAU_D))
    text = sched.to_text()
    lines = text.strip().split("\n")
    assert len(lines) == len(sched.segments)
    assert lines[0].endswith("IDLE")
    assert f"{math.pi / 2 * 1e3:.6f}" in lines[1]


def test_larmor_resonance_bands():
    f = 0.5e6  # spacing 1/(2f) = 1 us
    assert check_larmor_resonance(1.924e-6, f).clear  # 76 ns off k=2
    hit1 = check_larmor_resonance(1.02e-6, f)
    assert not hit1.clear and hit1.nearest_k == 1 and hit1.odd_k
    assert "strong" in hit1.message()
    hit2 = check_larmor_resonance(2.03e-6, f)
    assert not hit2.clear and hit2.nearest_k == 2 and not hit2.odd_k
    assert "weak" in hit2.message()
    assert check_larmor_resonance(0.264e-6, f).clear  # below first band
    assert check_larmor_resonance(1e-6, 0.0).clear  # disabled screen
    assert "clear" in LarmorCheck(clear=True).message()
    with pytest.raises(InvalidTiming):
        check_larmor_resonance(0.0, f)


def test_larmor_band_width_scales_with_spacing():
    f = 0.5e6
    # Edges of the k = 3 band sit at 3 us +- 50 ns for every k.
    assert not check_larmor_resonance(3e-6 + 49e-9, f).clear
    assert check_larmor_resonance(3e-6 + 51e-9, f).clear


def test_prep_and_readout_are_inverse():
    assert np.allclose(readout_unitary() @ prep_unitary(), np.eye(2), atol=1e-12)
    # Preparation puts |0> on the equator: population exactly one half.
    ket = prep_unitary() @ np.array([1.0, 0.0])
    assert abs(ket[0]) ** 2 == pytest.approx(0.5)
