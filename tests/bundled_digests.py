"""SHA-256 digests of the outputs of every bundled run, for byte-identity checks.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/bundled_digests.py > digests.txt

Runs in process, at M = 1000 realizations, every config bundled with
the package, the three benchmark configs in perfbench/configs and
acceptance criterion 6's calibration (tests/test_acceptance.py), and
prints two lines for each run:

    NAME csv <sha256 of the CSV it wrote>
    NAME stdout <sha256 of what it printed, its output path written OUT>

Two checkouts give byte-identical outputs when the two printouts are
identical, so `diff` of the two files is the whole check.  This file is
not a test module: pytest does not collect it.
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_config(config: str, out: Path) -> str:
    """Stdout of the command on ``config`` writing ``out``; exits on a failed run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli.main([config, "--realizations", str(REALIZATIONS), "--out", str(out)])
    if status:
        sys.exit(f"{config} exited {status}")
    return stdout.getvalue()


def _run_criterion_6(out: Path) -> str:
    """Criterion 6's calibration: writes its curve to ``out`` and returns its summary."""
    result = calibrate_amplitude(
        LorentzianNoiseSpec(R=CRITERION_6["R"], A=0.0), CRITERION_6["target_T1"],
        params=SimParams(realizations=REALIZATIONS, master_seed=CRITERION_6["master_seed"]))
    result.curve.to_csv(out)
    return (f"calibrated_A = {result.A!r}\nachieved_T1 = {result.achieved_T1!r}\n"
            f"iterations = {result.iterations}\n")


def main() -> None:
    runs = [(name, lambda out, c=name: _run_config(c, out)) for name in cli.bundled_config_names()]
    runs += [(f"perfbench/{cfg.stem}", lambda out, c=str(cfg): _run_config(c, out))
             for cfg in sorted(PERFBENCH_CONFIGS.glob("*.cfg"))]
    runs.append(("criterion_6", _run_criterion_6))
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in runs:
            out = Path(tmp) / "out.csv"
            stdout = run(out).replace(str(out), "OUT")
            print(f"{name} csv {_sha256(out.read_bytes())}")
            print(f"{name} stdout {_sha256(stdout.encode())}", flush=True)
            out.unlink()


if __name__ == "__main__":
    main()
