"""Regenerate the stored curves under data/.

- fig4_xy8_slow_gaussian_reference.csv: the reference the
  fig4_xy8_slow_gaussian check compares against, at M = 4000 and
  master seed REFERENCE_SEED, which no benchmark run needs to use.
- fig2_xy8_slow_m1000.csv, fig4_xy8_slow_gaussian_m1000.csv: ordinary
  M = 1000 outputs that the checks must accept (test_perfbench.py).
- fig4_xy4_slow_gaussian_m1000.csv: the same workload with XY4 in place
  of XY8, which the fig4 check must reject.

Usage (from the repository root; takes about a minute on two cores):

    python3 perfbench/make_reference.py
"""
import contextlib
import io
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from eulerdd.cli import main  # noqa: E402

REFERENCE_SEED = 20260815
DATA = BENCH / "data"


def write_curve(config: Path, out: str, seed: int, realizations: int,
                replace: tuple[str, str] | None = None) -> None:
    if replace is not None:
        text = config.read_text().replace(*replace)
        config = DATA / "variant.cfg"
        config.write_text(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([str(config), "--seed", str(seed), "--realizations", str(realizations),
                       "--threads", "2", "--out", str(DATA / out)])
    finally:
        if replace is not None:
            config.unlink()
    if rc != 0:
        raise SystemExit(f"{out}: eulerdd exited {rc}")
    print(f"wrote {DATA / out}")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    fig2 = BENCH / "configs" / "fig2_xy8_slow.cfg"
    fig4 = BENCH / "configs" / "fig4_xy8_slow_gaussian.cfg"
    write_curve(fig4, "fig4_xy8_slow_gaussian_reference.csv", REFERENCE_SEED, 4000)
    write_curve(fig2, "fig2_xy8_slow_m1000.csv", 1, 1000)
    write_curve(fig4, "fig4_xy8_slow_gaussian_m1000.csv", 1, 1000)
    write_curve(fig4, "fig4_xy4_slow_gaussian_m1000.csv", 1, 1000,
                replace=("sequence = xy8", "sequence = xy4"))
