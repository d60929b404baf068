"""How far the outputs of two checkouts' bundled runs moved.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/bundled_digests.py DIR_B > /dev/null
    python3 tests/compare_outputs.py DIR_A DIR_B

DIR_A and DIR_B hold the NAME.csv and NAME.stdout files that
tests/bundled_digests.py writes for each run, one directory per
checkout.  For each run whose bytes differ it prints the largest
|delta value| and |delta stderr| over the CSV's points and each changed
stdout line, with its relative change where both sides of `key = value`
are numbers.  A run found in one directory only is named as such.  The
report is informational: it always exits 0.  This file is not a test
module: pytest does not collect it.
"""
import sys
from pathlib import Path


def _points(path: Path) -> dict:
    """{(N, t_s): (value, stderr)} of a curve CSV, as the engine writes it."""
    lines = path.read_text().splitlines()[1:]
    rows = (line.split(",") for line in lines)
    return {(n, t): (float(value), float(stderr)) for n, t, value, stderr in rows}


def _number(line: str) -> float | None:
    """The value of a `key = value` stdout line, or None if it is not a number."""
    try:
        return float(line.split(" = ", 1)[1])
    except (IndexError, ValueError):
        return None


def _stdout_changes(old: list[str], new: list[str]) -> list[str]:
    """The stdout lines that differ, position by position, as `old -> new`."""
    changes = []
    for i in range(max(len(old), len(new))):
        a = old[i] if i < len(old) else "(none)"
        b = new[i] if i < len(new) else "(none)"
        if a == b:
            continue
        x, y = _number(a), _number(b)
        rel = f"  (rel {abs(y - x) / abs(x):.2g})" if x and y is not None else ""
        changes.append(f"    {a} -> {b}{rel}")
    return changes


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """The report's lines for the runs of two output directories."""
    names = {str(p.relative_to(d))[:-len(".csv")]
             for d in (dir_a, dir_b) for p in d.rglob("*.csv")}
    report = []
    for name in sorted(names):
        files = [(d / f"{name}.csv", d / f"{name}.stdout") for d in (dir_a, dir_b)]
        missing = [d for d, pair in zip((dir_a, dir_b), files)
                   if not all(p.exists() for p in pair)]
        if missing:
            report.append(f"{name}: only in {dir_b if missing[0] == dir_a else dir_a}")
            continue
        (csv_a, out_a), (csv_b, out_b) = files
        if csv_a.read_bytes() == csv_b.read_bytes() and out_a.read_bytes() == out_b.read_bytes():
            continue
        a, b = _points(csv_a), _points(csv_b)
        if a.keys() != b.keys():
            report.append(f"{name}: the curves' (N, t_s) points differ")
        else:
            dv = max((abs(a[k][0] - b[k][0]) for k in a), default=0.0)
            ds = max((abs(a[k][1] - b[k][1]) for k in a), default=0.0)
            report.append(f"{name}: max |dvalue| = {dv:.3g}, max |dstderr| = {ds:.3g}")
        report += _stdout_changes(out_a.read_text().splitlines(),
                                  out_b.read_text().splitlines())
    return report or ["no run's outputs differ"]


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: compare_outputs.py DIR_A DIR_B")
    print("\n".join(compare(Path(sys.argv[1]), Path(sys.argv[2]))))
