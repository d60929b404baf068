"""Eulerian dynamical decoupling on a spin-1/2: simulation and analysis.

The package is organized as a pipeline:

- su2core: SU(2) primitives (Pauli matrices, rotations, states).
- dgroup: decoupling-group Cayley graphs, Eulerian cycles, word checks.
- control: pulse shapes, sequence timing, schedules, resonance screen.
- noise: the injected Lorentzian comb and quasi-static dephasing.
- engine: batched unitary Monte Carlo propagation and experiment runners.
- analysis: decay fitting and coherence normalization.
- cli: the config-driven ``eulerdd`` command.
"""
from .analysis import (Degenerate, FitResult, NoDecay, RangeViolation,
                       fit_decay, normalize_coherence)
from .control import (InvalidTiming, LarmorCheck, OutOfSegment, PulseShape,
                      Schedule, Segment, SEQUENCE_PHASES, SequenceSpec,
                      build_schedule, check_larmor_resonance, envelope_at,
                      prep_unitary, readout_unitary)
from .dgroup import (CayleyGraph, Disconnected, EmptyGenerators, EulerianCheck,
                     GroupElement, NotClosed, PulseWord, build_cayley,
                     cumulative_path, eulerian_cycle, generated_group,
                     pauli_element, pauli_group, verify_average_decoupling,
                     verify_eulerian)
from .engine import (DEFAULT_N_LIST, CalibrationResult, CurvePoint, DecayCurve,
                     NoConvergence, SimParams, StepTooLarge, apply_envelope,
                     calibrate_amplitude, golden_rule_amplitude, propagate,
                     run_dd_scan, run_fid, run_relaxation)
from .noise import (CutoffExceeded, DephasingSpec, LorentzianNoiseSpec,
                    SampleBudgetExceeded, derive_seed, estimate_autocorrelation,
                    export_waveform, field_at, parseval_power, sample_detuning,
                    sample_realization, splitmix64, weight, weights_all)
from .su2core import (SpinState, axis_rotation, pauli, phase_distance,
                      phase_equal, population0)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # su2core
    "pauli", "axis_rotation", "SpinState", "population0", "phase_distance",
    "phase_equal",
    # dgroup
    "GroupElement", "CayleyGraph", "PulseWord", "EulerianCheck", "NotClosed",
    "EmptyGenerators", "Disconnected", "pauli_group", "pauli_element",
    "generated_group", "build_cayley", "eulerian_cycle", "cumulative_path",
    "verify_eulerian", "verify_average_decoupling",
    # control
    "PulseShape", "SequenceSpec", "Segment", "Schedule", "LarmorCheck",
    "SEQUENCE_PHASES", "OutOfSegment", "InvalidTiming", "envelope_at",
    "build_schedule", "check_larmor_resonance", "prep_unitary",
    "readout_unitary",
    # noise
    "LorentzianNoiseSpec", "DephasingSpec", "CutoffExceeded",
    "SampleBudgetExceeded", "splitmix64", "derive_seed", "weight",
    "weights_all", "sample_realization", "field_at", "sample_detuning",
    "estimate_autocorrelation", "parseval_power", "export_waveform",
    # engine
    "SimParams", "CurvePoint", "DecayCurve", "CalibrationResult",
    "StepTooLarge", "NoConvergence", "DEFAULT_N_LIST",
    "golden_rule_amplitude", "propagate", "run_dd_scan", "run_fid",
    "run_relaxation", "calibrate_amplitude", "apply_envelope",
    # analysis
    "FitResult", "NoDecay", "Degenerate", "RangeViolation", "fit_decay",
    "normalize_coherence",
]
