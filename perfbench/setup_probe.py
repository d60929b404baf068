"""Set-up probe: import eulerdd, parse one workload config, build its specs.

run.py starts this script in a fresh interpreter and times the whole
process, so the figure includes interpreter start-up and imports.

Usage: python3 setup_probe.py <src dir> <config file>
"""
import sys

sys.path.insert(0, sys.argv[1])

import eulerdd  # noqa: E402
from eulerdd.cli import parse_config  # noqa: E402

with open(sys.argv[2]) as fh:
    cfg = parse_config(fh.read())
eulerdd.SimParams(realizations=cfg["realizations"], master_seed=0)
if "noise_r" in cfg:
    eulerdd.LorentzianNoiseSpec(R=cfg["noise_r"], A=cfg.get("noise_a", 1.0))
if "sigma_delta" in cfg:
    eulerdd.DephasingSpec(sigma_delta=cfg["sigma_delta"])
if "sequence" in cfg:
    eulerdd.SequenceSpec(name=cfg["sequence"], N=max(cfg["n_list"]), tau=cfg["tau"],
                         tau_d=cfg["tau_d"], shape=eulerdd.PulseShape(cfg["shape"]))
