"""eulerdd benchmark: three Monte Carlo workloads at M = 1000 realizations.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS or `all`, which runs every workload in its
own process and prints one table.  A run repeats the workload through
the CLI entry point `eulerdd.cli.main` with master seed N until S
seconds have passed (at least twice), checks every output, and prints
a JSON object as its last line: `correct`, `attempted`, `failed` and
`metrics`.

With --trace 0 the metrics are end to end: `wall_s` (median time from
the CLI entry point to the CSV written and the fit printed),
`sim_us_per_s` (realization-microseconds of simulated evolution per
wall second), `setup_s` (median of several fresh interpreters that
import eulerdd, parse the config and build the specs) and
`peak_rss_mb`.  Times are reported at reference speed (see
REFERENCE_NOMINAL_S); the raw medians are printed too.  With --trace 1
untraced and traced repeats alternate; the traced ones wrap the
program's layer functions (see tracing.py) and give the per-layer
metrics, and the spans are written to `.perfbench_out/trace-NAME.jsonl`.

A repeat fails when the CLI exits non-zero or raises, when its output
fails the workload's check (checks.py), or when its CSV differs byte
for byte from the first repeat's, since every repeat uses one seed.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 10
# On a shared virtual machine the same work can run 40% slower for
# minutes at a time, and flips between a fast and a slow state within
# seconds.  A fixed kernel shaped like the engine's inner loop is timed
# between repeats (REFERENCE_SHARE of the measured time, at least
# REFERENCE_MIN_S before each repeat), and each repeat's wall time is
# reported at reference speed: multiplied by REFERENCE_NOMINAL_S / (the
# kernel's mean time just before and just after that repeat).  The
# mean, not the median, because a repeat's wall time averages over both
# states too.  Set-up probes alternate with a fresh interpreter that
# only imports numpy, the part of set-up the program does not own, and
# set-up times are scaled by SETUP_REFERENCE_NOMINAL_S / (its median
# time).  That removes the drift the reference and the workload share,
# so runs made minutes apart stay comparable.
# Typical reference times on the machine of baseline.json, so that
# times at reference speed are of the size of raw times there; the
# kernel's by thread count.
REFERENCE_NOMINAL_S = {1: 0.019, 2: 0.018}
SETUP_REFERENCE_NOMINAL_S = 0.18
REFERENCE_SHARE = 0.05
REFERENCE_MIN_S = 0.1

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import tracing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """A bundled experiment cut to benchmark length (configs/NAME.cfg)."""

    name: str
    threads: int
    # Whether the run's seed reaches the CLI as --seed.  The calibration's
    # cost depends on its seed (4 iterations for ~40% of seeds, 9-10 for
    # the rest), so calibrate_t1 keeps the config's criterion-6 seed and
    # uses the run's seed for its output check.
    seeded: bool = True

    @property
    def config_path(self) -> Path:
        return BENCH / "configs" / f"{self.name}.cfg"


# Why each workload is here: see BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("fig2_xy8_slow", threads=1),
    Workload("fig4_xy8_slow_gaussian", threads=2),
    Workload("calibrate_t1", threads=1, seeded=False),
)}

END_TO_END_UNITS = {"wall_s": "s", "sim_us_per_s": "us/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.parse_s": "s", "cli.self_s": "s",
    "control.build_schedule_s": "s", "control.segments": "count",
    "noise.sample_s": "s", "noise.draws": "count",
    "engine.self_s": "s", "engine.runs": "count", "engine.points": "count",
    "engine.calibrate_iterations": "count",
    "analysis.fit_s": "s", "analysis.fits": "count", "analysis.fit_failures": "count",
    "trace.overhead_s": "s", "trace.attributed_frac": "fraction",
}


@dataclass
class Repeat:
    traced: bool
    wall: float
    ok_exit: bool
    stdout: str
    csv: bytes
    spans_run: int = -1
    counts: dict = field(default_factory=dict)  # per-layer counters of a traced repeat

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.csv).hexdigest()


def run_repeat(workload: Workload, seed: int, csv_path: Path,
               tracer: tracing.Tracer | None = None) -> Repeat:
    """One CLI invocation, timed from the entry point to its return."""
    import eulerdd.cli

    argv = [str(workload.config_path), "--threads", str(workload.threads),
            "--out", str(csv_path)]
    if workload.seeded:
        argv += ["--seed", str(seed)]
    if csv_path.exists():
        csv_path.unlink()
    out, err = io.StringIO(), io.StringIO()
    rc = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = eulerdd.cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    rc = eulerdd.cli.main(argv)
        except Exception:  # the benchmark records the crash and goes on
            traceback.print_exc()
    wall = time.perf_counter() - start
    if rc != 0:
        print(f"repeat failed (exit {rc}): {err.getvalue().strip()}", file=sys.stderr)
    csv = csv_path.read_bytes() if csv_path.exists() else b""
    return Repeat(traced=tracer is not None, wall=wall, ok_exit=rc == 0 and bool(csv),
                  stdout=out.getvalue(), csv=csv)


def check_output(workload: Workload, cfg: dict, rep: Repeat, seed: int) -> tuple[bool, str]:
    text = rep.csv.decode()
    if workload.name == "fig2_xy8_slow":
        return checks.check_dd_quadrature(text, cfg)
    if workload.name == "fig4_xy8_slow_gaussian":
        reference = (BENCH / "data" / "fig4_xy8_slow_gaussian_reference.csv").read_text()
        return checks.check_dd_reference(text, reference)
    return checks.check_calibration(rep.stdout, cfg, seed)


def simulated_us(cfg: dict, rep: Repeat) -> float:
    """Simulated spin evolution of one realization in one repeat, in us."""
    if cfg["experiment"] == "calibrate":
        # Each calibration iteration is one relaxation run out to 2 x target.
        runs = checks.calibration_stdout(rep.stdout).get("iterations", 0.0)
        return runs * 2.0 * float(cfg["target_t1"]) * 1e6
    tau_c = 2.0 * float(cfg["tau"]) + float(cfg["tau_d"])
    return max(checks.cycle_counts(cfg["n_list"])) * tau_c * 1e6


def _reference_work(rows: int, comb: bool) -> None:
    """Engine-shaped work on `rows` realizations.

    Without comb: 400 RK4-like steps on (rows,) arrays, which like the
    single-threaded workloads is bound by the interpreter.  With comb: a
    21-tone comb summed on (rows, 129) nodes, then 64 such steps, like
    one block of the threaded comb workload.
    """
    steps = 64 if comb else 400
    c = np.full(rows, 0.3 + 0.0j)
    if comb:
        omega = np.linspace(-6e4, 6e4, 21)
        nodes = np.linspace(0.0, 1e-6, 2 * steps + 1)
        comb_field = np.zeros((rows, nodes.size), dtype=complex)
        for k in range(omega.size):
            comb_field += c[:, None] * np.exp(1j * omega[k] * nodes)[None, :]
    a = np.ones(rows, dtype=complex)
    b = np.zeros(rows, dtype=complex)
    for j in range(steps):
        if comb:
            c = comb_field[:, 2 * j]
        ka = -1j * (c * b + 0.2 * a)
        kb = -1j * (np.conj(c) * a - 0.2 * b)
        a, b = a + 1e-3 * ka, b + 1e-3 * kb
        norm = np.sqrt(a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2)
        a, b = a / norm, b / norm


def reference_kernel(threads: int) -> float:
    """Wall time of 1000 rows of reference work split over `threads`
    threads the way the engine splits realizations; threaded work
    includes the comb, since that is what the threaded workload runs."""
    rows = -(-1000 // threads)
    comb = threads > 1
    others = [threading.Thread(target=_reference_work, args=(rows, comb))
              for _ in range(threads - 1)]
    start = time.perf_counter()
    for worker in others:
        worker.start()
    _reference_work(rows, comb)
    for worker in others:
        worker.join()
    return time.perf_counter() - start


def sample_reference(budget_s: float, threads: int) -> list[float]:
    """Reference kernel times, at least one, until their sum reaches budget_s."""
    samples = [reference_kernel(threads)]
    while sum(samples) < budget_s:
        samples.append(reference_kernel(threads))
    return samples


def _timed_process(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], check=True, cwd=ROOT)
    return time.perf_counter() - start


def measure_setup(workload: Workload) -> tuple[list[float], list[float]]:
    """Set-up probe times, and the times of reference interpreters that
    only import numpy, run alternately with the probes."""
    times, reference = [], []
    for _ in range(SETUP_PROBES):
        reference.append(_timed_process(["-c", "import numpy"]))
        times.append(_timed_process([str(BENCH / "setup_probe.py"), str(SRC),
                                     str(workload.config_path)]))
    return times, reference


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q = statistics.quantiles(values, n=4)
    return f"{q[0]:.6g}..{q[2]:.6g}"


def layer_metrics(tracer: tracing.Tracer, rep: Repeat) -> dict[str, float]:
    spans = [s for s in tracer.spans if s[0] == rep.spans_run]
    names = tracing.self_times(spans)
    layers = tracing.layer_self_times(spans)
    metrics = {
        "cli.parse_s": names.get("cli.parse_config", 0.0),
        "cli.self_s": names.get("cli.main", 0.0),
        "control.build_schedule_s": layers["control"],
        "noise.sample_s": layers["noise"],
        "engine.self_s": layers["engine"],
        "analysis.fit_s": layers["analysis"],
        "trace.attributed_frac": 1.0 - names.get("cli.main", 0.0) / rep.wall,
    }
    for name in ("control.segments", "noise.draws", "engine.runs", "engine.points",
                 "engine.calibrate_iterations", "analysis.fits",
                 "analysis.fit_failures"):
        metrics[name] = rep.counts.get(name, 0)
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "eulerdd" / "__init__.py").is_file():
        print(f"error: no eulerdd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eulerdd

    if Path(eulerdd.__file__).resolve().parent != SRC / "eulerdd":
        print(f"error: imported eulerdd from {eulerdd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    cfg = checks.parse_cfg(workload.config_path.read_text())
    setup, setup_reference = ([], []) if trace else measure_setup(workload)
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"{workload.name}-{os.getpid()}.csv"
    tracer = tracing.Tracer() if trace else None
    repeats: list[Repeat] = []
    # Untraced runs: reference kernel times before repeat i are blocks[i];
    # the last block follows the last repeat.
    blocks: list[list[float]] = []
    deadline = time.perf_counter() + seconds
    try:
        while len(repeats) < 2 or time.perf_counter() < deadline:
            if not trace:
                last = repeats[-1].wall if repeats else 0.0
                blocks.append(sample_reference(max(REFERENCE_SHARE * last, REFERENCE_MIN_S),
                                               workload.threads))
            if trace and len(repeats) % 2 == 1:
                with tracer.recording(run_id=len(repeats)):
                    rep = run_repeat(workload, seed, csv_path, tracer)
                rep.spans_run, rep.counts = tracer.run_id, tracer.layer_counts()
            else:
                rep = run_repeat(workload, seed, csv_path)
            repeats.append(rep)
        if not trace:
            blocks.append(sample_reference(
                max(REFERENCE_SHARE * repeats[-1].wall, REFERENCE_MIN_S), workload.threads))
    finally:
        if csv_path.exists():
            csv_path.unlink()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output checks, once per distinct output; then per-repeat failures.
    verdicts: dict[str, tuple[bool, str]] = {}
    failed = 0
    first = repeats[0].digest
    for rep in repeats:
        key = rep.digest + hashlib.sha256(rep.stdout.encode()).hexdigest()
        if rep.ok_exit and key not in verdicts:
            verdicts[key] = check_output(workload, cfg, rep, seed)
        if not (rep.ok_exit and verdicts[key][0] and rep.digest == first):
            failed += 1
    for ok, detail in verdicts.values():
        print(f"check {'ok' if ok else 'FAILED'}: {detail}")
    digests = sorted({rep.digest for rep in repeats})
    print(f"csv sha256: {', '.join(digests)}"
          f"{'' if len(digests) == 1 else '  (MISMATCH between repeats)'}")

    untraced = [r for r in repeats if not r.traced]
    walls = [r.wall for r in untraced]
    m = int(cfg["realizations"])
    throughput = [m * simulated_us(cfg, r) / r.wall for r in untraced]
    print(f"{workload.name} seed {seed}: {len(repeats)} repeats, "
          f"{len(untraced)} untraced")
    print(f"fail_rate = {failed}/{len(repeats)} = {failed / len(repeats):.3g}")
    if trace:
        traced_reps = [r for r in repeats if r.traced]
        per_rep = [layer_metrics(tracer, r) for r in traced_reps]
        metrics = {name: statistics.median(p[name] for p in per_rep)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r.wall for r in traced_reps)
                                       - statistics.median(walls))
        traced_wall = statistics.median(r.wall for r in traced_reps)
        print(f"traced wall_s = {traced_wall:.6g} s (median of {len(traced_reps)}); "
              f"engine.self share {metrics['engine.self_s'] / traced_wall:.3f}, "
              f"noise.sample + analysis.fit share "
              f"{(metrics['noise.sample_s'] + metrics['analysis.fit_s']) / traced_wall:.3f}")
        tracer.write(OUT / f"trace-{workload.name}.jsonl")
        units = PER_LAYER_UNITS
    else:
        nominal = REFERENCE_NOMINAL_S[workload.threads]
        speeds = [nominal / statistics.fmean(before + after)
                  for before, after in zip(blocks, blocks[1:])]
        setup_speed = SETUP_REFERENCE_NOMINAL_S / statistics.median(setup_reference)
        kernel = [t for block in blocks for t in block]
        print(f"reference kernel: {len(kernel)} times between repeats, quartiles "
              f"{quartiles(kernel)} s; reference interpreter: median "
              f"{statistics.median(setup_reference):.6g} s of {len(setup_reference)} "
              f"between set-up probes; repeats are scaled by x {quartiles(speeds)}, "
              f"set-up by x {setup_speed:.4g}")
        raw = {"wall_s": walls, "sim_us_per_s": throughput, "setup_s": setup}
        scaled = {"wall_s": [w * k for w, k in zip(walls, speeds)],
                  "sim_us_per_s": [t / k for t, k in zip(throughput, speeds)],
                  "setup_s": [t * setup_speed for t in setup]}
        for name, values in raw.items():
            print(f"raw {name} = {statistics.median(values):.6g} "
                  f"{END_TO_END_UNITS[name]} (median of {len(values)}, quartiles "
                  f"{quartiles(values)})")
        for name, values in scaled.items():
            print(f"{name} = {statistics.median(values):.6g} {END_TO_END_UNITS[name]} "
                  f"(median of {len(values)}, quartiles {quartiles(values)})")
        print(f"peak_rss_mb = {peak_rss_mb:.6g} MB")
        metrics = {name: statistics.median(values) for name, values in scaled.items()}
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END_UNITS
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(repeats), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table at the end."""
    rows, attempted, failed, correct, metrics = [], 0, 0, True, {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            correct = False
            continue
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        rows.append((name, result))
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    for name, result in rows:
        cells = ", ".join(f"{k} = {v['value']:.6g} {v['unit']}"
                          for k, v in result["metrics"].items())
        print(f"{name}: {cells}, fail_rate = {result['failed']}/{result['attempted']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
