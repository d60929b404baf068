"""SHA-256 digests of the outputs of every bundled run, for byte-identity checks.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/bundled_digests.py [DIR] > digests.txt

Runs in process, at M = 1000 realizations, every config bundled with
the package, the three benchmark configs in perfbench/configs and
acceptance criterion 6's calibration (tests/test_acceptance.py), and
prints two lines for each run:

    NAME csv <sha256 of the CSV it wrote>
    NAME stdout <sha256 of what it printed, its output path written OUT>

Then it runs `eulerian-check` on each named sequence and on a few
words, which write no CSV and take no `--realizations` or `--out`, and
prints their stdout line alone.

Two checkouts give byte-identical outputs when the two printouts are
identical, so `diff` of the two files is the whole check.  With DIR it
also writes each run's CSV and stdout there, as DIR/NAME.csv and
DIR/NAME.stdout, for tests/compare_outputs.py to show how far two
checkouts' outputs moved.  This file is not a test module: pytest does
not collect it.
"""
import contextlib
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

from eulerdd import LorentzianNoiseSpec, SimParams, calibrate_amplitude, cli

PERFBENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"
REALIZATIONS = 1000
# Criterion 6's calibration, as test_criterion_06_relaxation_calibration runs it.
CRITERION_6 = dict(R=2 * math.pi * 5e3, target_T1=12.87e-6, master_seed=20260815)
# The eulerian-check runs: each named sequence, XY4's closed cycle written
# out, a word outside the {X, Y} group, and the worst rotation of XY8.
EULERIAN_CHECKS = [("sequence", "cpmg_y"), ("sequence", "xy4"), ("sequence", "xy8"),
                   ("word", "xyxy"), ("word", "xz"), ("word", "yxxyxyyx")]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(args: list[str]) -> str:
    """Stdout of the command on ``args``; exits on a failed run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli.main(args)
    if status:
        sys.exit(f"{args[0]} exited {status}")
    return stdout.getvalue()


def _run_config(config: str, out: Path) -> str:
    """Stdout of the command on ``config`` writing ``out``."""
    return _run_cli([config, "--realizations", str(REALIZATIONS), "--out", str(out)])


def _run_eulerian_check(key: str, value: str, out: Path) -> str:
    """Stdout of `eulerian-check` on ``key = value``, its config written beside ``out``."""
    config = out.with_name("check.cfg")
    config.write_text(f"experiment = eulerian-check\n{key} = {value}\n")
    return _run_cli([str(config)])


def _run_criterion_6(out: Path) -> str:
    """Criterion 6's calibration: writes its curve to ``out`` and returns its summary."""
    result = calibrate_amplitude(
        LorentzianNoiseSpec(R=CRITERION_6["R"], A=0.0), CRITERION_6["target_T1"],
        params=SimParams(realizations=REALIZATIONS, master_seed=CRITERION_6["master_seed"]))
    result.curve.to_csv(out)
    return (f"calibrated_A = {result.A!r}\nachieved_T1 = {result.achieved_T1!r}\n"
            f"iterations = {result.iterations}\n")


def main(argv: list[str]) -> None:
    keep = Path(argv[0]) if argv else None
    runs = [(name, lambda out, c=name: _run_config(c, out), True)
            for name in cli.bundled_config_names()]
    runs += [(f"perfbench/{cfg.stem}", lambda out, c=str(cfg): _run_config(c, out), True)
             for cfg in sorted(PERFBENCH_CONFIGS.glob("*.cfg"))]
    runs.append(("criterion_6", _run_criterion_6, True))
    runs += [(f"eulerian-check/{key}_{value}",
              lambda out, k=key, v=value: _run_eulerian_check(k, v, out), False)
             for key, value in EULERIAN_CHECKS]
    with tempfile.TemporaryDirectory() as tmp:
        for name, run, writes_csv in runs:
            out = Path(tmp) / "out.csv"
            stdout = run(out).replace(str(out), "OUT").encode()
            outputs = {"csv": out.read_bytes()} if writes_csv else {}
            outputs["stdout"] = stdout
            out.unlink(missing_ok=True)
            for kind, data in outputs.items():
                print(f"{name} {kind} {_sha256(data)}", flush=True)
                if keep is not None:
                    (keep / name).parent.mkdir(parents=True, exist_ok=True)
                    (keep / f"{name}.{kind}").write_bytes(data)


if __name__ == "__main__":
    main(sys.argv[1:])
