"""Pulse shapes, named sequences, and realized control schedules.

A decoupling run is a train of N pi pulses, one per period tau_c =
2*tau + tau_d: each period is [idle tau][pulse tau_d][idle tau], so the
pulse sits centered in its slot, the gap between neighboring pulses is
2*tau, and the train starts and ends with an idle of tau_c/2 - tau_d/2
= tau.  Pulse axes follow the named sequence pattern (CPMG-Y, XY4,
XY8) or a custom word of phases.

Pulse envelopes carry unit area pi over the pulse duration regardless
of shape; the Delta shape stands for an idealized instantaneous
rotation and occupies zero schedule time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .su2core import axis_rotation

__all__ = [
    "OutOfSegment",
    "InvalidTiming",
    "PulseShape",
    "SequenceSpec",
    "Segment",
    "Schedule",
    "SEQUENCE_PHASES",
    "LarmorCheck",
    "envelope_at",
    "pulse_envelope",
    "build_schedule",
    "check_larmor_resonance",
    "prep_unitary",
    "readout_unitary",
]


class OutOfSegment(ValueError):
    """Envelope evaluated outside [0, tau_d]."""


class InvalidTiming(ValueError):
    """A sequence spec implies a negative or zero duration."""


# Axis phase patterns, repeated cyclically to length N.
SEQUENCE_PHASES: dict[str, tuple[float, ...]] = {
    "CPMG_Y": (math.pi / 2,),
    "XY4": (0.0, math.pi / 2),
    "XY8": (0.0, math.pi / 2, 0.0, math.pi / 2, math.pi / 2, 0.0, math.pi / 2, 0.0),
}


@dataclass(frozen=True)
class PulseShape:
    """Pulse envelope family: Delta, Square, or Gaussian.

    Gaussian pulses have sigma = tau_d / 5, truncated at
    +-``gauss_trunc`` sigma around the pulse center and renormalized so
    the area over [0, tau_d] is exactly pi.
    """

    kind: str = "Square"
    gauss_trunc: float = 2.5

    def __post_init__(self) -> None:
        if self.kind not in ("Delta", "Square", "Gaussian"):
            raise ValueError(f"unknown pulse shape {self.kind!r}")
        if not 0 < self.gauss_trunc < math.inf:
            raise ValueError("gauss_trunc must be positive and finite")


def pulse_envelope(shape: PulseShape, tau_d: float, rel: np.ndarray) -> np.ndarray:
    """Drive envelope Omega in rad/s at relative times ``rel``, unchecked.

    The one definition of the Square and Gaussian envelopes: pi / tau_d,
    or the Gaussian of sigma = tau_d / 5 zeroed beyond +-gauss_trunc
    sigma and renormalized to area pi over its window inside [0, tau_d].
    """
    if shape.kind == "Square":
        return np.full(np.shape(rel), math.pi / tau_d)
    sigma = tau_d / 5.0
    # Integration window is [0, tau_d] intersected with the truncation window.
    half = min(tau_d / (2.0 * sigma), shape.gauss_trunc)
    area = sigma * math.sqrt(2.0 * math.pi) * math.erf(half / math.sqrt(2.0))
    x = (rel - tau_d / 2.0) / sigma
    return np.where(np.abs(x) > shape.gauss_trunc, 0.0, (math.pi / area) * np.exp(-0.5 * x * x))


def envelope_at(shape: PulseShape, t, tau_d: float):
    """Drive envelope Omega(t) in rad/s, for t (a float or an array) inside [0, tau_d].

    Square pulses return pi / tau_d everywhere in the segment.
    Gaussian pulses return the truncated Gaussian, renormalized after
    truncation so the integrated area is pi to 1e-9.  Delta pulses are
    represented as exact rotations and have no envelope.  Evaluates
    ``pulse_envelope``, the envelope the engine integrates.

    Raises
    ------
    OutOfSegment
        If t is outside [0, tau_d].
    """
    if shape.kind == "Delta":
        raise OutOfSegment("Delta pulses have no time-resolved envelope")
    if tau_d <= 0:
        raise InvalidTiming("tau_d must be positive for a finite-width pulse")
    rel = np.asarray(t, dtype=float)
    if not np.all((rel >= 0.0) & (rel <= tau_d)):
        raise OutOfSegment(f"t = {t!r} outside pulse segment [0, {tau_d!r}]")
    env = pulse_envelope(shape, tau_d, rel)
    return float(env) if env.ndim == 0 else env


@dataclass(frozen=True)
class SequenceSpec:
    """A named (or custom) decoupling sequence with its timing.

    Parameters
    ----------
    name : str
        One of CPMG_Y, XY4, XY8, or Custom.
    N : int
        Pulse count; for named sequences a multiple of the base word
        length whenever word verification is requested.
    tau : float
        Half of the inter-pulse gap, seconds.
    tau_d : float
        Pulse duration, seconds (ignored for Delta shape).
    shape : PulseShape
    phases : tuple of float
        For Custom only: the base phase pattern in radians.
    """

    name: str
    N: int
    tau: float
    tau_d: float
    shape: PulseShape = field(default_factory=PulseShape)
    phases: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.name not in ("CPMG_Y", "XY4", "XY8", "Custom"):
            raise ValueError(f"unknown sequence name {self.name!r}")
        if self.name == "Custom" and len(self.phases) == 0:
            raise ValueError("Custom sequence needs a non-empty phase pattern")
        if self.N < 1:
            raise InvalidTiming("N must be >= 1")
        if not 0 < self.tau < math.inf:
            raise InvalidTiming("tau must be positive and finite")
        if not math.isfinite(self.tau_d):
            raise InvalidTiming("tau_d must be finite")
        if self.shape.kind != "Delta" and self.tau_d <= 0:
            raise InvalidTiming("tau_d must be positive for finite-width pulses")

    @property
    def base_phases(self) -> tuple[float, ...]:
        return self.phases if self.name == "Custom" else SEQUENCE_PHASES[self.name]

    @property
    def effective_tau_d(self) -> float:
        """Pulse duration actually occupying schedule time (0 for Delta)."""
        return 0.0 if self.shape.kind == "Delta" else self.tau_d

    @property
    def tau_c(self) -> float:
        """Full period 2*tau + tau_d."""
        return 2 * self.tau + self.effective_tau_d


@dataclass(frozen=True)
class Segment:
    """One schedule segment: an idle gap or a pulse at a fixed phase."""

    duration: float
    phase: float | None = None  # None marks an idle segment

    @property
    def is_pulse(self) -> bool:
        return self.phase is not None


@dataclass(frozen=True)
class Schedule:
    """Realized segment list of a sequence, total_time = N * tau_c.

    spec is None for bare idle schedules built outside build_schedule.
    """

    segments: tuple[Segment, ...]
    total_time: float
    spec: SequenceSpec | None

    def to_text(self) -> str:
        """Plain-text segment table: `duration_ns, phase_mrad | IDLE` per line."""
        lines = []
        for seg in self.segments:
            tag = "IDLE" if seg.phase is None else f"{seg.phase * 1e3:.6f}"
            lines.append(f"{seg.duration * 1e9:.6f}, {tag}")
        return "\n".join(lines) + "\n"


def build_schedule(spec: SequenceSpec) -> Schedule:
    """Lay out ``spec`` as explicit segments.

    Layout: [idle tau] then N repetitions of [pulse tau_d][idle 2*tau],
    with the final idle shortened to tau, i.e. pulse k is centered at
    (2k - 1) * tau_c / 2.  Delta pulses occupy zero time.

    Raises
    ------
    InvalidTiming
        If any idle duration would be negative (guarded by the spec
        validation; rechecked here).
    """
    tau, tau_d = spec.tau, spec.effective_tau_d
    edge_idle = spec.tau_c / 2 - tau_d / 2
    if edge_idle < 0 or tau <= 0:
        raise InvalidTiming("idle durations must be positive")
    phases = spec.base_phases
    segments: list[Segment] = [Segment(edge_idle)]
    for k in range(spec.N):
        segments.append(Segment(tau_d, float(phases[k % len(phases)])))
        segments.append(Segment(2 * tau if k < spec.N - 1 else edge_idle))
    total = sum(s.duration for s in segments)
    expected = spec.N * spec.tau_c
    if abs(total - expected) > 1e-15 + 1e-12 * expected:  # 1 fs class rounding guard
        raise InvalidTiming(f"segment sum {total!r} != N*tau_c {expected!r}")
    return Schedule(segments=tuple(segments), total_time=expected, spec=spec)


@dataclass(frozen=True)
class LarmorCheck:
    """Result of the tau_c resonance screen."""

    clear: bool
    nearest_k: int = 0
    nearest_tau_c: float = 0.0
    odd_k: bool = False

    def message(self) -> str:
        if self.clear:
            return "larmor check: clear"
        strength = "strong (odd k)" if self.odd_k else "weak (even k)"
        return (f"larmor check: WARNING, tau_c within 5% of "
                f"{self.nearest_k}/(2 f_larmor) = {self.nearest_tau_c * 1e9:.1f} ns, {strength}")


def check_larmor_resonance(tau_c: float, f_larmor: float) -> LarmorCheck:
    """Screen tau_c against Larmor resonances k / (2 f_larmor).

    A warning is issued when tau_c falls within 5% of the resonance
    spacing 1/(2 f_larmor) of some integer multiple k >= 1; odd k is
    the strongest (first-harmonic) condition.  The tolerance is
    measured against the spacing, not against k/(2 f) itself, so the
    bands stay 0.05/(2 f) wide for every k.
    """
    if tau_c <= 0:
        raise InvalidTiming("tau_c must be positive")
    if f_larmor <= 0:
        return LarmorCheck(clear=True)
    spacing = 1.0 / (2.0 * f_larmor)
    k = max(1, round(tau_c / spacing))
    nearest = k * spacing
    if abs(tau_c - nearest) <= 0.05 * spacing:
        return LarmorCheck(clear=False, nearest_k=k, nearest_tau_c=nearest, odd_k=k % 2 == 1)
    return LarmorCheck(clear=True, nearest_k=k, nearest_tau_c=nearest)


def prep_unitary() -> np.ndarray:
    """pi/2 pulse along X preparing the superposition from |0>."""
    return axis_rotation(0.0, math.pi / 2)


def readout_unitary() -> np.ndarray:
    """pi/2 pulse along -X mapping the prepared superposition back to |0>."""
    return axis_rotation(math.pi, math.pi / 2)
