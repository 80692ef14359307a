"""Run one ergodicity experiment from a JSON spec and write its outputs.

Usage: ``python3 perfbench/rc_child.py SPEC.json`` with ``src`` on
``PYTHONPATH``.  The spec names the synthetic spectrum, the coupling
variance, the resampling step, the rep count, the seed and ``out_dir``;
the experiment's population CSV and JSON summary go to ``out_dir``.  The
correctness gate is applied by the caller, so the exit code only reports
whether the experiment ran.
"""

import json
import sys

import numpy as np

from lindbladprep import randomcoupling
from lindbladprep.filters import default_params


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    n = spec["levels"]
    lam = randomcoupling.synthetic_spectrum("equispaced", n, span=spec["span"])
    p = default_params(spec["span"], float(lam[1] - lam[0]), clamp=True)
    sigma = randomcoupling.RandomCouplingSpec.uniform(n, spec["sigma"])
    # looked up on the module so that a traced run sees its wrapper
    report = randomcoupling.ergodicity_experiment(
        lam,
        sigma,
        p,
        np.full(n, 1.0 / n),
        tau=spec["tau"],
        t_final=spec["t_final"],
        reps=spec["reps"],
        seed=spec["seed"],
    )
    report.write_csv(f"{spec['out_dir']}/ergodicity.csv")
    randomcoupling.write_summary_json(f"{spec['out_dir']}/summary.json", ergodicity=report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
