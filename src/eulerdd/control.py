"""Pulse shapes, named sequences, and realized control schedules.

A decoupling run is a train of N pi pulses, one per period tau_c =
2*tau + tau_d: each period is [idle tau][pulse tau_d][idle tau], so the
pulse sits centered in its slot, the gap between neighboring pulses is
2*tau, and the train starts and ends with an idle of tau_c/2 - tau_d/2
= tau.  A named sequence is a word of pulse letters, repeated
cyclically to length N: ``SEQUENCE_WORDS`` gives each name its word
(CPMG-Y = Y, XY4 = XY, XY8 = XYXYYXYX), and each letter is a drive
phase, X at 0 and Y at pi/2.  The same letters name the generators of
``dgroup``'s Cayley graphs, so the word that drives a pulse train is
the word whose Eulerian walk ``eulerian-check`` verifies.  A Custom
sequence takes a phase pattern instead, for words outside any group.

Pulse envelopes carry unit area pi over the pulse duration regardless
of shape; the Delta shape stands for an idealized instantaneous
rotation and occupies zero schedule time.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .noise import _check_integer
from .su2core import axis_rotation

__all__ = [
    "InvalidTiming",
    "PulseShape",
    "SequenceSpec",
    "Segment",
    "Schedule",
    "SEQUENCE_WORDS",
    "LarmorCheck",
    "pulse_envelope",
    "pulse_angle",
    "build_schedule",
    "check_larmor_resonance",
    "prep_unitary",
    "readout_unitary",
]


class InvalidTiming(ValueError):
    """A sequence spec implies a negative or zero duration."""


# The drive phase of each pulse letter; a letter is also its Pauli class in dgroup.
_LETTER_PHASES = {"X": 0.0, "Y": math.pi / 2}
# Each named sequence's base word, repeated cyclically to length N.
SEQUENCE_WORDS: dict[str, str] = {"CPMG_Y": "Y", "XY4": "XY", "XY8": "XYXYYXYX"}


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
        if not 0 < self.gauss_trunc <= sys.float_info.max:
            raise ValueError("gauss_trunc must be positive and finite")


def _gauss_window(shape: PulseShape, tau_d: float) -> tuple[float, float, float]:
    """(sigma, half, erf(half / sqrt 2)) of a Gaussian pulse of duration tau_d.

    The envelope's window is [0, tau_d] intersected with the truncation
    window, +-half sigma around the pulse center.
    """
    sigma = tau_d / 5.0
    half = min(tau_d / (2.0 * sigma), shape.gauss_trunc)
    return sigma, half, math.erf(half / math.sqrt(2.0))


def _envelope_margin(shape: PulseShape, tau_d: float) -> float:
    """Time at each end of a pulse of duration tau_d where its envelope is zero.

    (5/2 - gauss_trunc) sigma for a Gaussian truncated inside its pulse,
    whose envelope jumps at +-gauss_trunc sigma; else 0.
    """
    if shape.kind != "Gaussian" or shape.gauss_trunc >= 2.5:
        return 0.0
    return (2.5 - shape.gauss_trunc) * (tau_d / 5.0)


def pulse_envelope(shape: PulseShape, tau_d: float, rel: np.ndarray) -> np.ndarray:
    """Drive envelope Omega in rad/s at relative times ``rel``, unchecked.

    The one definition of the Square and Gaussian envelopes: pi / tau_d,
    or the Gaussian of sigma = tau_d / 5 zeroed beyond +-gauss_trunc
    sigma and renormalized to area pi over its window inside [0, tau_d].
    """
    if shape.kind == "Square":
        return np.full(np.shape(rel), math.pi / tau_d)
    sigma, _, erf_half = _gauss_window(shape, tau_d)
    area = sigma * math.sqrt(2.0 * math.pi) * erf_half
    x = (rel - tau_d / 2.0) / sigma
    return np.where(np.abs(x) > shape.gauss_trunc, 0.0, (math.pi / area) * np.exp(-0.5 * x * x))


def pulse_angle(shape: PulseShape, tau_d: float, rel: np.ndarray) -> np.ndarray:
    """Drive angle theta = the integral of ``pulse_envelope`` from 0 to ``rel``, unchecked.

    In closed form: pi rel / tau_d, or for the Gaussian pi (erf(x / sqrt
    2) + erf(half / sqrt 2)) / (2 erf(half / sqrt 2)), with x = (rel -
    tau_d / 2) / sigma clipped to the window +-half.  It is 0 at rel = 0
    and exactly pi at rel = tau_d.
    """
    rel = np.asarray(rel, dtype=float)
    if shape.kind == "Square":
        return (math.pi / tau_d) * rel
    sigma, half, erf_half = _gauss_window(shape, tau_d)
    x = np.clip((rel - tau_d / 2.0) / sigma, -half, half) / math.sqrt(2.0)
    erf = np.array([math.erf(v) for v in x.ravel()]).reshape(x.shape)
    return math.pi * ((erf + erf_half) / (2.0 * erf_half))


@dataclass(frozen=True)
class SequenceSpec:
    """A named (or custom) decoupling sequence with its timing.

    Parameters
    ----------
    name : str
        A key of ``SEQUENCE_WORDS`` (CPMG_Y, XY4, XY8), or Custom.
    N : int
        Pulse count; for named sequences a multiple of the base word
        length whenever word verification is requested.
    tau : float
        Half of the inter-pulse gap, seconds.
    tau_d : float
        Pulse duration, seconds (ignored for Delta shape).
    shape : PulseShape
    phases : tuple of float
        For Custom only, and required there: the base phase pattern in
        radians.  A named sequence refuses one.

    ``base_phases`` is the phase pattern a schedule repeats: a named
    sequence's word read letter by letter as drive phases, or Custom's
    ``phases``.
    """

    name: str
    N: int
    tau: float
    tau_d: float
    shape: PulseShape = field(default_factory=PulseShape)
    phases: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.name not in (*SEQUENCE_WORDS, "Custom"):
            raise ValueError(f"unknown sequence name {self.name!r}")
        if self.name == "Custom" and len(self.phases) == 0:
            raise ValueError("Custom sequence needs a non-empty phase pattern")
        if self.name != "Custom" and self.phases:
            raise ValueError(f"{self.name} has its own phases; only Custom takes a phase pattern")
        if not all(math.isfinite(phase) for phase in self.phases):
            raise ValueError("phases must be finite")
        _check_integer(self.N, "N")
        if self.N < 1:
            raise InvalidTiming("N must be >= 1")
        if not 0 < self.tau <= sys.float_info.max:
            raise InvalidTiming("tau must be positive and finite")
        if not abs(self.tau_d) <= sys.float_info.max:
            raise InvalidTiming("tau_d must be finite")
        if self.shape.kind != "Delta" and self.tau_d <= 0:
            raise InvalidTiming("tau_d must be positive for finite-width pulses")

    @property
    def base_phases(self) -> tuple[float, ...]:
        # Only Custom has phases of its own; a named sequence reads its word.
        return self.phases or tuple(_LETTER_PHASES[c] for c in SEQUENCE_WORDS[self.name])

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
    (2k - 1) * tau_c / 2.  Delta pulses occupy zero time.  SequenceSpec
    has already checked that tau is positive.  Each distinct (duration,
    phase) is one Segment, repeated, so lookups keyed on segments match
    on identity.
    """
    tau, tau_d = spec.tau, spec.effective_tau_d
    phases = spec.base_phases
    idle, gap = Segment(tau), Segment(2 * tau)
    pulses = {phase: Segment(tau_d, float(phase)) for phase in phases}
    segments: list[Segment] = [idle]
    for k in range(spec.N):
        segments += (pulses[phases[k % len(phases)]], gap if k < spec.N - 1 else idle)
    total = math.fsum(s.duration for s in segments)
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
