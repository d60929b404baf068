"""Config-driven command line for simulation runs and exports.

Configs are flat ``key = value`` files: one assignment per line,
``#`` starts a comment, blank lines are ignored.  Unknown keys, bad
values, duplicates and keys that do not apply to the selected
experiment are rejected with their line number.  A handful of
bundled configs ship with the package and can be named directly in
place of a path (e.g. ``eulerdd fig2_xy8_slow``).

Curve experiments write the DecayCurve CSV to the required output
path (``out`` key or ``--out``) and print a fit summary plus, when
``f_larmor`` is set, the Larmor-resonance check.

Exit codes: 0 on success, 1 on config errors (parse failures,
unknown or inapplicable keys, out-of-range or non-finite values), 2
when a valid experiment fails at runtime.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from importlib import resources

import numpy as np

from .analysis import Degenerate, NoDecay, fit_decay
from .control import (PulseShape, SEQUENCE_PHASES, SequenceSpec,
                      check_larmor_resonance)
from .dgroup import (PulseWord, build_cayley, eulerian_cycle, generated_group,
                     pauli_element, verify_average_decoupling, verify_eulerian)
from .engine import (DecayCurve, SimParams, calibrate_amplitude, run_dd_scan,
                     run_fid, run_relaxation)
from .noise import (DephasingSpec, LorentzianNoiseSpec, export_waveform,
                    sample_realization)

__all__ = ["ConfigError", "main", "parse_config", "bundled_config_names"]

_EXPERIMENTS = ("fid", "relax", "dd", "eulerian-check", "export-noise", "calibrate")


class ConfigError(Exception):
    """A malformed or inconsistent config file."""


def _as_int(raw: str) -> int:
    return int(raw)


def _as_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _as_str(raw: str) -> str:
    return raw


def _as_enum(options: dict[str, str]):
    def convert(raw: str) -> str:
        key = raw.strip().lower()
        if key not in options:
            raise ValueError(f"expected one of {', '.join(sorted(set(options.values())))}")
        return options[key]
    return convert


def _as_n_list(raw: str) -> tuple[int, ...]:
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError("ranges take the form start:stop:step")
        start, stop, step = (int(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError("range needs step > 0 and stop >= start")
        return tuple(range(start, stop + 1, step))
    values = tuple(int(p) for p in raw.split(",") if p.strip())
    if not values:
        raise ValueError("empty list")
    return values


def _as_word(raw: str) -> str:
    letters = raw.strip().upper()
    if not letters or any(ch not in "XYZ" for ch in letters):
        raise ValueError("pulse words use the letters X, Y, Z")
    return letters


_SCHEMA: dict[str, callable] = {
    "experiment": _as_enum({name: name for name in _EXPERIMENTS}),
    "master_seed": _as_int,
    "realizations": _as_int,
    "threads": _as_int,
    "dt": _as_float,
    "out": _as_str,
    "sequence": _as_enum({"cpmg_y": "CPMG_Y", "xy4": "XY4", "xy8": "XY8"}),
    "tau": _as_float,
    "tau_d": _as_float,
    "shape": _as_enum({"delta": "Delta", "square": "Square", "gaussian": "Gaussian"}),
    "gauss_trunc": _as_float,
    "n_list": _as_n_list,
    "noise_r": _as_float,
    "noise_a": _as_float,
    "delta_omega": _as_float,
    "n_max": _as_int,
    "sigma_delta": _as_float,
    "envelope_t2": _as_float,
    "f_larmor": _as_float,
    "t_min": _as_float,
    "t_max": _as_float,
    "t_points": _as_int,
    "t_spacing": _as_enum({"linear": "linear", "geometric": "geometric"}),
    "target_t1": _as_float,
    "duration": _as_float,
    "sample_rate": _as_float,
    "realization_index": _as_int,
    "word": _as_word,
    "cycles": _as_int,
    "start": _as_str,
    "fit_p": _as_int,
    "fit_model": _as_enum({"free": "free", "fixed": "fixed"}),
}

_COMMON_KEYS = {"experiment", "master_seed", "realizations", "threads", "dt", "out"}
_FIT_KEYS = {"fit_p", "fit_model"}
_EXPERIMENT_KEYS = {
    "dd": {"sequence", "tau", "tau_d", "shape", "gauss_trunc", "n_list", "noise_r",
           "noise_a", "delta_omega", "n_max", "sigma_delta", "envelope_t2",
           "f_larmor"} | _FIT_KEYS,
    "fid": {"sigma_delta", "t_min", "t_max", "t_points"} | _FIT_KEYS,
    "relax": {"noise_r", "noise_a", "delta_omega", "n_max", "sigma_delta",
              "t_min", "t_max", "t_points", "t_spacing"} | _FIT_KEYS,
    "calibrate": {"noise_r", "delta_omega", "n_max", "target_t1"},
    "export-noise": {"noise_r", "noise_a", "delta_omega", "n_max",
                     "realization_index", "duration", "sample_rate"},
    "eulerian-check": {"word", "sequence", "cycles", "start"},
}
_REQUIRED_KEYS = {
    "dd": {"sequence", "tau", "tau_d"},
    "fid": {"sigma_delta", "t_max"},
    "relax": {"noise_r", "noise_a", "t_max", "t_points"},
    "calibrate": {"noise_r", "target_t1"},
    "export-noise": {"noise_r", "noise_a", "duration", "sample_rate"},
    "eulerian-check": set(),
}
# Experiments that must write a DecayCurve CSV, so an output path is
# mandatory (config `out` or --out).
_NEEDS_OUT = {"dd", "fid", "relax", "export-noise"}
# Per-experiment default fit settings (exponent, mode).
_FIT_DEFAULTS = {"dd": (1, "free"), "relax": (1, "free"), "fid": (2, "fixed")}


def bundled_config_names() -> list[str]:
    """Names of the configs shipped inside the package."""
    root = resources.files("eulerdd") / "configs"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def _config_text(arg: str) -> str:
    if os.path.exists(arg):
        with open(arg, "r") as fh:
            return fh.read()
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
    allowed = _COMMON_KEYS | _EXPERIMENT_KEYS[exp]
    for key in values:
        if key not in allowed:
            raise ConfigError(f"line {lines[key]}: key {key!r} does not apply to "
                              f"experiment {exp!r}")
    missing = _REQUIRED_KEYS[exp] - set(values)
    if missing:
        raise ConfigError(f"experiment {exp!r} is missing required keys: "
                          f"{', '.join(sorted(missing))}")
    if "gauss_trunc" in values and values.get("shape") != "Gaussian":
        raise ConfigError(f"line {lines['gauss_trunc']}: gauss_trunc needs shape = gaussian")
    if values.get("fit_p") not in (None, 1, 2):
        raise ConfigError(f"line {lines['fit_p']}: fit_p must be 1 or 2")
    return values


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _dump_config(cfg: dict) -> str:
    lines = [f"{key} = {_format_value(cfg[key])}" for key in _SCHEMA if key in cfg]
    return "\n".join(lines) + "\n"


def _sim_params(cfg: dict) -> SimParams:
    return SimParams(dt=cfg.get("dt"),
                     realizations=cfg.get("realizations", 1000),
                     master_seed=cfg.get("master_seed", 0),
                     envelope_T2=cfg.get("envelope_t2"))


def _noise_spec(cfg: dict) -> LorentzianNoiseSpec | None:
    if cfg.get("noise_a", 0.0) <= 0.0:
        return None
    if "noise_r" not in cfg:
        raise ConfigError("noise_a needs noise_r")
    return LorentzianNoiseSpec(R=cfg["noise_r"], A=cfg["noise_a"],
                               delta_omega=cfg.get("delta_omega", 1e3),
                               n_max=cfg.get("n_max", 10))


def _dephasing_spec(cfg: dict) -> DephasingSpec | None:
    if cfg.get("sigma_delta", 0.0) > 0.0:
        return DephasingSpec(sigma_delta=cfg["sigma_delta"])
    return None


def _time_grid(cfg: dict) -> list[float]:
    t_max = cfg["t_max"]
    points = cfg.get("t_points", 24)
    spacing = cfg.get("t_spacing", "linear")
    if points < 2:
        raise ConfigError("t_points must be at least 2")
    if spacing == "geometric":
        t_min = cfg.get("t_min", t_max / points)
        if t_min <= 0:
            raise ConfigError("geometric spacing needs t_min > 0")
        return list(np.geomspace(t_min, t_max, points))
    return list(np.linspace(cfg.get("t_min", 0.0), t_max, points))


def _emit_curve(curve: DecayCurve, cfg: dict) -> None:
    """Write the CSV and print the fit summary the experiment asks for."""
    out = cfg["out"]
    curve.to_csv(out)
    print(f"wrote {len(curve.points)} points to {out}")
    default_p, default_model = _FIT_DEFAULTS[cfg["experiment"]]
    try:
        fit = fit_decay(curve, p=cfg.get("fit_p", default_p),
                        model=cfg.get("fit_model", default_model))
        sys.stdout.write(fit.to_text())
    except (NoDecay, Degenerate) as exc:
        print(f"fit = none ({exc})")


class _Built:
    """Spec objects built from a config, with errors mapped to ConfigError."""

    def __init__(self, cfg: dict) -> None:
        try:
            self.params = _sim_params(cfg)
            self.noise = _noise_spec(cfg)
            self.dephasing = _dephasing_spec(cfg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _run_dd(cfg: dict, threads: int) -> int:
    built = _Built(cfg)
    try:
        shape = PulseShape(kind=cfg.get("shape", "Square"),
                           gauss_trunc=cfg.get("gauss_trunc", 2.5))
        n_list = sorted(set(cfg["n_list"])) if "n_list" in cfg else None
        spec = SequenceSpec(name=cfg["sequence"], N=max(n_list) if n_list else 360,
                            tau=cfg["tau"], tau_d=cfg["tau_d"], shape=shape)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if "f_larmor" in cfg:
        print(check_larmor_resonance(spec.tau_c, cfg["f_larmor"]).message())
    curve = run_dd_scan(spec, n_list, noise_spec=built.noise,
                        dephasing=built.dephasing,
                        params=built.params, threads=threads)
    _emit_curve(curve, cfg)
    return 0


def _run_fid(cfg: dict, threads: int) -> int:
    built = _Built(cfg)
    try:
        dephasing = DephasingSpec(sigma_delta=cfg["sigma_delta"])
        grid = _time_grid(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    curve = run_fid(dephasing, grid, params=built.params, threads=threads)
    _emit_curve(curve, cfg)
    return 0


def _run_relax(cfg: dict, threads: int) -> int:
    built = _Built(cfg)
    if built.noise is None:
        raise ConfigError("relax needs noise_a > 0")
    try:
        grid = _time_grid(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    curve = run_relaxation(built.noise, grid, dephasing=built.dephasing,
                           params=built.params, threads=threads)
    _emit_curve(curve, cfg)
    return 0


def _run_calibrate(cfg: dict, threads: int) -> int:
    built = _Built(cfg)
    try:
        noise = LorentzianNoiseSpec(R=cfg["noise_r"], A=1.0,
                                    delta_omega=cfg.get("delta_omega", 1e3),
                                    n_max=cfg.get("n_max", 10))
        if cfg["target_t1"] <= 0:
            raise ValueError("target_t1 must be positive")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    result = calibrate_amplitude(noise, cfg["target_t1"],
                                 params=built.params, threads=threads)
    print(f"calibrated_A = {result.A!r}")
    print(f"achieved_T1 = {result.achieved_T1!r}")
    print(f"target_T1 = {result.target_T1!r}")
    print(f"iterations = {result.iterations}")
    if cfg.get("out"):
        result.curve.to_csv(cfg["out"])
        print(f"wrote {len(result.curve.points)} points to {cfg['out']}")
    return 0


def _run_export(cfg: dict) -> int:
    try:
        spec = LorentzianNoiseSpec(R=cfg["noise_r"], A=cfg["noise_a"],
                                   delta_omega=cfg.get("delta_omega", 1e3),
                                   n_max=cfg.get("n_max", 10),
                                   master_seed=cfg.get("master_seed", 0))
        if cfg["duration"] <= 0 or cfg["sample_rate"] <= 0:
            raise ValueError("duration and sample_rate must be positive")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    realization = sample_realization(spec, cfg.get("realization_index", 0))
    count = export_waveform(spec, realization, cfg["duration"],
                            cfg["sample_rate"], cfg["out"])
    print(f"wrote {count} samples to {cfg['out']}")
    return 0


_PHASE_LETTERS = ((0.0, "X"), (math.pi / 2.0, "Y"))


def _word_letters(cfg: dict) -> str:
    if ("word" in cfg) == ("sequence" in cfg):
        raise ConfigError("eulerian-check needs exactly one of word or sequence")
    if "word" in cfg:
        return cfg["word"]
    base = []
    for phase in SEQUENCE_PHASES[cfg["sequence"]]:
        letter = next((lab for val, lab in _PHASE_LETTERS
                       if abs(phase - val) < 1e-12), None)
        if letter is None:
            raise ConfigError(f"sequence phase {phase!r} has no Pauli letter")
        base.append(letter)
    return "".join(base) * cfg.get("cycles", 1)


def _run_eulerian_check(cfg: dict) -> int:
    letters = _word_letters(cfg)
    generators = [pauli_element(lab) for lab in sorted(set(letters))]
    group = generated_group(generators)
    graph = build_cayley(group, generators)
    start_label = cfg.get("start", "I").strip().upper()
    if start_label not in [g.label for g in group]:
        raise ConfigError(f"start vertex {start_label!r} not in the generated group")
    start = pauli_element(start_label)
    word = PulseWord(tuple(letters))
    check = verify_eulerian(word, graph, start=start)
    decoupled = verify_average_decoupling(word, {"X", "Y", "Z"})
    print(f"word = {''.join(word.letters)}")
    print(f"group = {','.join(g.label for g in group)}")
    print(f"edges = {len(graph.edges)}")
    print(f"eulerian = {'ok' if check.passed else 'FAIL: ' + check.diagnostic}")
    print(f"decoupling_xyz = {'ok' if decoupled else 'FAIL'}")
    if not check.passed:
        suggestion = eulerian_cycle(graph, start)
        print(f"suggestion = {''.join(suggestion.letters)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerdd",
        description="Run decoupling simulations and noise exports from a config file.")
    parser.add_argument("config",
                        help="path to a key=value config file, or a bundled config name")
    parser.add_argument("--seed", type=int, default=None,
                        help="override master_seed")
    parser.add_argument("--realizations", type=int, default=None,
                        help="override the Monte Carlo realization count")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: EULERDD_THREADS or 1)")
    parser.add_argument("--out", default=None, help="override the output path")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the effective config and exit")
    return parser


def _resolve_threads(cfg: dict, flag: int | None) -> int:
    if flag is not None:
        threads = flag
    elif "threads" in cfg:
        threads = cfg["threads"]
    else:
        env = os.environ.get("EULERDD_THREADS", "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise ConfigError(f"EULERDD_THREADS must be an integer, got {env!r}")
        else:
            threads = 1
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    return threads


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(_config_text(args.config))
        if args.seed is not None:
            cfg["master_seed"] = args.seed
        if args.realizations is not None:
            if args.realizations < 1:
                raise ConfigError("--realizations must be >= 1")
            cfg["realizations"] = args.realizations
        if args.out is not None:
            cfg["out"] = args.out
        if cfg["experiment"] in _NEEDS_OUT and not cfg.get("out"):
            raise ConfigError(
                f"{cfg['experiment']} needs an output path: set out= or pass --out")
        threads = _resolve_threads(cfg, args.threads)
        cfg["threads"] = threads
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.dump_config:
        sys.stdout.write(_dump_config(cfg))
        return 0
    exp = cfg["experiment"]
    try:
        if exp == "dd":
            return _run_dd(cfg, threads)
        if exp == "fid":
            return _run_fid(cfg, threads)
        if exp == "relax":
            return _run_relax(cfg, threads)
        if exp == "calibrate":
            return _run_calibrate(cfg, threads)
        if exp == "export-noise":
            return _run_export(cfg)
        return _run_eulerian_check(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
