"""Config-driven command line for simulation runs and exports.

Configs are flat ``key = value`` files: one assignment per line,
``#`` starts a comment, blank lines are ignored.  Unknown keys, bad
values, duplicates and keys that do not apply to the selected
experiment are rejected with their line number.  A handful of
bundled configs ship with the package and can be named directly in
place of a path (e.g. ``eulerdd fig2_xy8_slow``).

Each experiment is one ``_EXPERIMENTS`` record: the keys it reads,
whether it needs an output path, and a builder that builds every spec
and returns the work.  The work runs only after the build, so every
config error is reported before any work starts.  Every value passes
one converter of ``_SCHEMA``, which also holds its range rule: a flag
that sets a key (``--seed``, ``--realizations``, ``--out``) goes
through the same converter and applies only where the experiment
reads the key.  An absent key is the only way to switch a part of the
model off: ``noise_a = 0`` is a comb of zero amplitude and
``sigma_delta = 0`` a detuning of zero width.

Curve experiments write the DecayCurve CSV to the required output
path (``out`` key or ``--out``) and print a fit summary plus, when
``f_larmor`` is set, the Larmor-resonance check.

Exit codes: 0 on success, 1 on config errors (parse failures, a
malformed command line, unknown or inapplicable keys and flags,
out-of-range or non-finite values, or specs that refuse the values), 2
when a valid experiment fails at runtime.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from .analysis import Degenerate, NoDecay, fit_decay
from .control import PulseShape, SEQUENCE_WORDS, SequenceSpec, check_larmor_resonance
from .dgroup import (GroupElement, PulseWord, build_cayley, cumulative_path, eulerian_cycle,
                     verify_average_decoupling, verify_eulerian)
from .engine import (DEFAULT_N_LIST, DecayCurve, SimParams, _TAG_NOISE, _seeded,
                     apply_envelope, calibrate_amplitude, run_dd_scan, run_fid,
                     run_relaxation)
from .noise import (DephasingSpec, LorentzianNoiseSpec, _sample_count, export_waveform,
                    sample_realization)

__all__ = ["ConfigError", "main", "parse_config", "bundled_config_names"]


class ConfigError(Exception):
    """A malformed or inconsistent config file."""


def _as_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _as_nonnegative_float(raw: str) -> float:
    value = _as_float(raw)
    if value < 0:
        raise ValueError("must be non-negative")
    return value


def _as_positive_float(raw: str) -> float:
    value = _as_float(raw)
    if value <= 0:
        raise ValueError("must be positive")
    return value


def _as_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"must be an integer, got {raw!r}") from None


def _as_int_at_least(low: int):
    def convert(raw: str) -> int:
        value = _as_int(raw)
        if value < low:
            raise ValueError(f"must be >= {low}")
        return value
    return convert


def _as_uint64(raw: str) -> int:
    value = _as_int(raw)
    if not 0 <= value < 2**64:
        raise ValueError("must lie in [0, 2^64)")
    return value


def _as_enum(options: dict[str, str]):
    def convert(raw: str) -> str:
        key = raw.strip().lower()
        if key not in options:
            names = sorted({str(v) for v in options.values()})
            raise ValueError(f"expected one of {', '.join(names)}")
        return options[key]
    return convert


def _as_n_list(raw: str) -> tuple[int, ...]:
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError("ranges take the form start:stop:step")
        start, stop, step = (_as_int(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError("range needs step > 0 and stop >= start")
        values = tuple(range(start, stop + 1, step))
    else:
        values = tuple(_as_int(p) for p in raw.split(",") if p.strip())
    if not values:
        raise ValueError("empty list")
    if min(values) < 1:
        raise ValueError("cycle counts must be positive")
    return values


def _as_word(raw: str) -> str:
    letters = raw.strip().upper()
    if not letters or any(ch not in "XYZ" for ch in letters):
        raise ValueError("pulse words use the letters X, Y, Z")
    return letters


def _sim_params(cfg: dict) -> SimParams:
    return SimParams(realizations=cfg.get("realizations", 1000),
                     master_seed=cfg.get("master_seed", 0))


def _comb_spec(cfg: dict, A: float | None = None) -> LorentzianNoiseSpec | None:
    """The config's comb at amplitude A, by default noise_a; None when it sets none."""
    if "noise_r" not in cfg:
        return None
    return LorentzianNoiseSpec(R=cfg["noise_r"], A=cfg["noise_a"] if A is None else A,
                               delta_omega=cfg.get("delta_omega", 1e3),
                               n_max=cfg.get("n_max", 10))


def _dephasing_spec(cfg: dict) -> DephasingSpec | None:
    return DephasingSpec(sigma_delta=cfg["sigma_delta"]) if "sigma_delta" in cfg else None


def _time_grid(cfg: dict) -> list[float]:
    t_max, points = cfg["t_max"], cfg.get("t_points", 24)
    geometric = cfg.get("t_spacing") == "geometric"
    t_min = cfg.get("t_min", t_max / points if geometric else 0.0)
    if t_min > t_max:
        raise ConfigError(f"t_min = {t_min!r} exceeds t_max = {t_max!r}")
    if geometric:
        if t_min <= 0:
            raise ConfigError("geometric spacing needs t_min > 0")
        grid = list(np.geomspace(t_min, t_max, points))
    else:
        grid = list(np.linspace(t_min, t_max, points))
    if len(set(grid)) < points:
        raise ConfigError(f"t_min and t_max do not span {points} distinct times")
    return grid


def _emit_curve(curve: DecayCurve, cfg: dict, p: int, model: str) -> None:
    """Write the CSV and print the fit summary; fit_p/fit_model override p/model."""
    out = cfg["out"]
    curve.to_csv(out)
    print(f"wrote {len(curve.points)} points to {out}")
    try:
        fit = fit_decay(curve, p=cfg.get("fit_p", p), model=cfg.get("fit_model", model))
        sys.stdout.write(fit.to_text())
    except (NoDecay, Degenerate) as exc:
        print(f"fit = none ({exc})")


def _build_dd(cfg: dict):
    params, noise, dephasing = _sim_params(cfg), _comb_spec(cfg), _dephasing_spec(cfg)
    shape = PulseShape(kind=cfg.get("shape", "Square"),
                       gauss_trunc=cfg.get("gauss_trunc", 2.5))
    n_list = sorted(set(cfg.get("n_list", DEFAULT_N_LIST)))
    spec = SequenceSpec(name=cfg["sequence"], N=n_list[-1], tau=cfg["tau"],
                        tau_d=cfg["tau_d"], shape=shape)

    def work() -> None:
        if "f_larmor" in cfg:
            print(check_larmor_resonance(spec.tau_c, cfg["f_larmor"]).message())
        curve = run_dd_scan(spec, n_list, noise_spec=noise, dephasing=dephasing, params=params)
        if "envelope_t2" in cfg:
            curve = apply_envelope(curve, cfg["envelope_t2"])
        _emit_curve(curve, cfg, 1, "free")
    return work


def _build_fid(cfg: dict):
    params, dephasing, grid = _sim_params(cfg), _dephasing_spec(cfg), _time_grid(cfg)
    return lambda: _emit_curve(run_fid(dephasing, grid, params=params), cfg, 2, "fixed")


def _build_relax(cfg: dict):
    params, noise, dephasing = _sim_params(cfg), _comb_spec(cfg), _dephasing_spec(cfg)
    grid = _time_grid(cfg)
    return lambda: _emit_curve(run_relaxation(noise, grid, dephasing=dephasing, params=params),
                               cfg, 1, "free")


def _build_calibrate(cfg: dict):
    params, noise = _sim_params(cfg), _comb_spec(cfg, 1.0)

    def work() -> None:
        result = calibrate_amplitude(noise, cfg["target_t1"], params=params)
        print(f"calibrated_A = {result.A!r}")
        print(f"achieved_T1 = {result.achieved_T1!r}")
        print(f"target_T1 = {result.target_T1!r}")
        print(f"iterations = {result.iterations}")
        if cfg.get("out"):
            result.curve.to_csv(cfg["out"])
            print(f"wrote {len(result.curve.points)} points to {cfg['out']}")
    return work


def _build_export(cfg: dict):
    # Seeded as the runners seed the comb, so the export is the field that
    # realization realization_index of a run at the same seed sees.
    spec = _seeded(_comb_spec(cfg), _sim_params(cfg), _TAG_NOISE)
    _sample_count(cfg["duration"], cfg["sample_rate"])  # refuses a bad request before the work

    def work() -> None:
        phases = sample_realization(spec, cfg.get("realization_index", 0))
        count = export_waveform(spec, phases, cfg["duration"], cfg["sample_rate"], cfg["out"])
        print(f"wrote {count} samples to {cfg['out']}")
    return work


def _build_eulerian_check(cfg: dict):
    if ("word" in cfg) == ("sequence" in cfg):
        raise ConfigError("eulerian-check needs exactly one of word or sequence")
    identity = GroupElement("I")
    word = PulseWord(tuple(cfg["word"] if "word" in cfg else SEQUENCE_WORDS[cfg["sequence"]]))
    # A sequence is checked as one closed cycle: its base word, twice when its
    # product is not the identity; the product is a Pauli, so the doubled word closes.
    if "sequence" in cfg and cumulative_path(word, identity)[-1].label != "I":
        word = PulseWord(2 * word.letters)
    graph = build_cayley(sorted(set(word.letters)))

    def work() -> None:
        check = verify_eulerian(word, graph)
        decoupled = verify_average_decoupling(word, {"X", "Y", "Z"})
        print(f"word = {''.join(word.letters)}")
        print(f"group = {','.join(v.label for v in graph.vertices)}")
        print(f"edges = {len(graph.edges)}")
        print(f"eulerian = {'ok' if check.passed else 'FAIL: ' + check.diagnostic}")
        print(f"decoupling_xyz = {'ok' if decoupled else 'FAIL'}")
        if not check.passed:
            suggestion = eulerian_cycle(graph, identity)
            print(f"suggestion = {''.join(suggestion.letters)}")
    return work


class _Experiment(NamedTuple):
    """The keys an experiment reads, whether it writes `out`, and its builder."""

    required: set[str]
    optional: set[str]
    needs_out: bool
    build: Callable[[dict], Callable[[], None]]  # builds the specs, returns the work


# The run keys of the Monte Carlo experiments, and their fit keys.
_RUN_KEYS = {"master_seed", "realizations", "out"}
_FIT_KEYS = {"fit_p", "fit_model"}
_EXPERIMENTS = {
    "dd": _Experiment({"sequence", "tau", "tau_d"},
                      {"shape", "gauss_trunc", "n_list", "noise_r", "noise_a", "delta_omega",
                       "n_max", "sigma_delta", "envelope_t2", "f_larmor"}
                      | _FIT_KEYS | _RUN_KEYS, True, _build_dd),
    "fid": _Experiment({"sigma_delta", "t_max"}, {"t_min", "t_points"} | _FIT_KEYS | _RUN_KEYS,
                       True, _build_fid),
    "relax": _Experiment({"noise_r", "noise_a", "t_max", "t_points"},
                         {"delta_omega", "n_max", "sigma_delta", "t_min", "t_spacing"}
                         | _FIT_KEYS | _RUN_KEYS, True, _build_relax),
    "calibrate": _Experiment({"noise_r", "target_t1"}, {"delta_omega", "n_max"} | _RUN_KEYS,
                             False, _build_calibrate),
    "export-noise": _Experiment({"noise_r", "noise_a", "duration", "sample_rate"},
                                {"delta_omega", "n_max", "realization_index", "master_seed",
                                 "out"}, True, _build_export),
    "eulerian-check": _Experiment(set(), {"word", "sequence"}, False, _build_eulerian_check),
}

# Key order here is the --dump-config order.
_SCHEMA: dict[str, callable] = {
    "experiment": _as_enum({name: name for name in _EXPERIMENTS}),
    "master_seed": _as_uint64,
    "realizations": _as_int_at_least(1),
    "out": str,
    "sequence": _as_enum({name.lower(): name for name in SEQUENCE_WORDS}),
    "tau": _as_float,
    "tau_d": _as_float,
    "shape": _as_enum({"delta": "Delta", "square": "Square", "gaussian": "Gaussian"}),
    "gauss_trunc": _as_float,
    "n_list": _as_n_list,
    "noise_r": _as_float,
    "noise_a": _as_nonnegative_float,
    "delta_omega": _as_float,
    "n_max": _as_int,
    "sigma_delta": _as_nonnegative_float,
    "envelope_t2": _as_positive_float,
    "f_larmor": _as_positive_float,
    "t_min": _as_nonnegative_float,
    "t_max": _as_nonnegative_float,
    "t_points": _as_int_at_least(2),
    "t_spacing": _as_enum({"linear": "linear", "geometric": "geometric"}),
    "target_t1": _as_positive_float,
    "duration": _as_positive_float,
    "sample_rate": _as_positive_float,
    "realization_index": _as_uint64,
    "word": _as_word,
    "fit_p": _as_enum({"1": 1, "2": 2}),
    "fit_model": _as_enum({"free": "free", "fixed": "fixed"}),
}


def bundled_config_names() -> list[str]:
    """Names of the configs shipped inside the package."""
    root = resources.files("eulerdd") / "configs"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def _config_text(arg: str) -> str:
    if os.path.exists(arg):
        try:
            with open(arg, "r") as fh:
                return fh.read()
        except OSError as exc:
            raise ConfigError(f"config {arg!r}: {exc.strerror or exc}") from None
    name = arg[:-4] if arg.endswith(".cfg") else arg
    candidate = resources.files("eulerdd") / "configs" / f"{name}.cfg"
    if candidate.is_file():
        return candidate.read_text()
    raise ConfigError(f"config {arg!r}: no such file or bundled config "
                      f"(bundled: {', '.join(bundled_config_names())})")


def parse_config(text: str) -> dict:
    """Parse and type-check config text; raises ConfigError with line numbers."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw_line.strip()!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {lines[key]})")
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        try:
            values[key] = _SCHEMA[key](raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
        lines[key] = lineno
    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    exp = values["experiment"]
    required, optional = _EXPERIMENTS[exp].required, _EXPERIMENTS[exp].optional
    for key in values:
        if key not in {"experiment"} | required | optional:
            raise ConfigError(f"line {lines[key]}: key {key!r} does not apply to "
                              f"experiment {exp!r}")
    missing = required - set(values)
    if missing:
        raise ConfigError(f"experiment {exp!r} is missing required keys: "
                          f"{', '.join(sorted(missing))}")
    if "gauss_trunc" in values and values.get("shape") != "Gaussian":
        raise ConfigError(f"line {lines['gauss_trunc']}: gauss_trunc needs shape = gaussian")
    # The comb keys an experiment reads come together; delta_omega and n_max need them.
    comb = {"noise_r", "noise_a"} & (required | optional)
    for key in ("noise_r", "noise_a", "delta_omega", "n_max"):
        if key in values and not comb <= values.keys():
            raise ConfigError(f"line {lines[key]}: {key} is a comb key; "
                              "the comb needs both noise_r and noise_a")
    if "n_list" in values:
        base = len(SEQUENCE_WORDS[values["sequence"]])
        for n in values["n_list"]:
            if n % base:
                raise ConfigError(f"line {lines['n_list']}: n_list entry {n} is not a "
                                  f"multiple of the {values['sequence']} cycle length {base}")
    return values


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _dump_config(cfg: dict) -> str:
    """Config text that parse_config reads back as ``cfg``, or ConfigError naming the key."""
    text = "".join(f"{key} = {_format_value(cfg[key])}\n" for key in _SCHEMA if key in cfg)
    parsed = parse_config(text)
    for key, value in cfg.items():
        if parsed.get(key) != value:
            raise ConfigError(f"{key} = {value!r} cannot be written as a config line")
    return text


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors (exit 1), not exit 2."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eulerdd",
        description="Run decoupling simulations and noise exports from a config file.")
    parser.add_argument("config",
                        help="path to a key=value config file, or a bundled config name")
    # Flags are read as text and pass their key's converter in main.
    parser.add_argument("--seed", help="set master_seed, in [0, 2^64)")
    parser.add_argument("--realizations", help="set the Monte Carlo realization count")
    parser.add_argument("--threads",
                        help="accepted for compatibility: must be >= 1, has no effect")
    parser.add_argument("--out", help="set the output path")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the effective config and exit")
    return parser


def _flag(name: str, convert: Callable[[str], object], raw: str):
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(f"--{name} {exc}") from None


_FLAG_KEYS = {"seed": "master_seed", "realizations": "realizations", "out": "out"}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = parse_config(_config_text(args.config))
        experiment = _EXPERIMENTS[cfg["experiment"]]
        for name, key in _FLAG_KEYS.items():
            raw = getattr(args, name)
            if raw is not None and key not in experiment.optional:
                raise ConfigError(f"--{name} does not apply to experiment "
                                  f"{cfg['experiment']!r}")
            if raw is not None:
                cfg[key] = _flag(name, _SCHEMA[key], raw)
        if args.threads is not None:
            _flag("threads", _as_int_at_least(1), args.threads)
        if experiment.needs_out and not cfg.get("out"):
            raise ConfigError(
                f"{cfg['experiment']} needs an output path: set out= or pass --out")
        work = experiment.build(cfg)
        dump = _dump_config(cfg) if args.dump_config else None
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if dump is not None:
        sys.stdout.write(dump)
        return 0
    try:
        work()
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
