"""Probe numpy's ziggurat tables out of the installed generator.

eulerdd.noise runs the fast path of numpy's Generator.standard_normal
on many PCG64 outputs at once, with numpy's 256-entry ``wi`` and ``ki``
tables frozen in eulerdd/_ziggurat.py.  The fast path takes one 64-bit
output r: strip i = r & 0xff, sign = bit 8, rabs = (r >> 9) & (2^52 - 1),
z = +-(rabs * wi[i]), accepted iff rabs < ki[i].  The tables are read
back from the generator itself, without numpy's source:

- A PCG64 state whose next output is a chosen word w is
  (w - inc) MULT^-1 mod 2^128 for any odd inc: the stepped state is w,
  with a zero high half, so its XSL-RR output is w.
- wi[i] is standard_normal() at rabs = 1, strip i, sign 0.  Strip 1
  (ki = 0) rejects it, but its wedge test accepts so small a value.
- ki[i] is the smallest rabs the fast path rejects, found by
  bisection; a draw was rejected when the generator stepped more than
  once.

To regenerate the frozen tables, from the repository root:

    PYTHONPATH=src python tests/ziggurat_probe.py > src/eulerdd/_ziggurat.py
"""
import numpy as np

from eulerdd.noise import _M128, _PCG_MULT

_INC = 1
_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
RABS_BITS = 52


def draw(strip: int, rabs: int) -> tuple[float, bool]:
    """standard_normal() of a generator whose next output is (rabs << 9) | strip.

    Returns the draw and whether the fast path took it, i.e. whether the
    generator stepped exactly once.
    """
    state = ((rabs << 9 | strip) - _INC) * _MULT_INV & _M128
    gen = np.random.Generator(np.random.PCG64(0))
    gen.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": _INC},
                               "has_uint32": 0, "uinteger": 0}
    z = gen.standard_normal()
    one_step = (state * _PCG_MULT + _INC) & _M128
    return z, gen.bit_generator.state["state"]["state"] == one_step


def probe_ki(strip: int) -> int:
    """Smallest rabs in [0, 2^52] that the fast path of ``strip`` rejects."""
    if not draw(strip, 0)[1]:
        return 0
    lo, hi = 0, 1 << RABS_BITS  # lo is accepted; hi is past every rabs
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if draw(strip, mid)[1]:
            lo = mid
        else:
            hi = mid
    return hi


def tables_source() -> str:
    """Source of eulerdd/_ziggurat.py, probed from the installed numpy."""
    wi = [repr(draw(i, 1)[0]) for i in range(256)]
    ki = [f"{probe_ki(i):013X}" for i in range(256)]
    lines = ['"""numpy\'s ziggurat tables of Generator.standard_normal (Marsaglia & Tsang,',
             'J. Stat. Softw. 5(8), 2000), as eulerdd.noise runs its fast path.',
             '',
             'Strip i scales rabs by WI[i] and accepts it iff rabs < KI[i].  Probed',
             f'from numpy {np.__version__} by tests/ziggurat_probe.py, which regenerates',
             'this file; do not edit it by hand.  The tables are parsed from one',
             'string each, which compiles far faster than 512 literals.',
             '"""', '', 'WI = tuple(float(w) for w in """']
    lines += [" ".join(wi[k:k + 3]) for k in range(0, 256, 3)]
    lines += ['""".split())', '', 'KI = tuple(int(k, 16) for k in """']
    lines += [" ".join(ki[k:k + 4]) for k in range(0, 256, 4)]
    lines.append('""".split())')
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(tables_source(), end="")
