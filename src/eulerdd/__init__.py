"""Eulerian dynamical decoupling on a spin-1/2: simulation and analysis.

The package is organized as a pipeline:

- su2core: SU(2) primitives (Pauli matrices, rotations).
- dgroup: decoupling-group Cayley graphs, Eulerian cycles, word checks.
- control: pulse shapes, sequence timing, schedules, resonance screen.
- noise: the injected Lorentzian comb and quasi-static dephasing.
- engine: batched unitary Monte Carlo propagation and experiment runners.
- analysis: decay fitting.
- cli: the config-driven ``eulerdd`` command.
"""
from . import analysis, control, dgroup, engine, noise, su2core
from .analysis import *  # noqa: F401,F403
from .control import *  # noqa: F401,F403
from .dgroup import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .noise import *  # noqa: F401,F403
from .su2core import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module's __all__ is its public API; the package exports their union.
__all__ = ["__version__", *su2core.__all__, *dgroup.__all__, *control.__all__,
           *noise.__all__, *engine.__all__, *analysis.__all__]
