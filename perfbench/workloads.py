"""The benchmark's workloads: inputs made from a seed, and their correctness gates.

Each workload is one closed loop: a single child process runs one
experiment at a time, and the next starts only after it has exited.  The
channel workloads are pinned copies of the repository configs (so a later
edit to ``configs/`` cannot silently change the benchmark).  Only the
random seed of the program comes from ``--seed``.
"""

from __future__ import annotations

import copy
import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

# configs/tfim4_continuous.json
TFIM4_CONTINUOUS = {
    "model": {"kind": "tfim", "sites": 4, "g": 1.2},
    "channel": {
        "mode": "continuous",
        "tau": 0.1,
        "total_time": 80.0,
        "r": 1,
        "include_coherent": True,
        "backend": "trajectory",
        "reps": 100,
        "seed": 7,
        "initial_state": "highest_excited",
        "record_stride": 10,
    },
}

# configs/hubbard4_discrete.json
HUBBARD4_DISCRETE = {
    "model": {"kind": "hubbard1d", "sites": 4, "t": 1.0, "u": 4.0},
    "channel": {
        "mode": "discrete",
        "tau": 0.5,
        "total_time": 100.0,
        "r": 2,
        "include_coherent": True,
        "backend": "trajectory",
        "reps": 100,
        "seed": 7,
        "initial_state": "highest_excited",
        "record_stride": 5,
    },
}


@dataclass(frozen=True)
class RunWorkload:
    """A ``lindbladprep run`` of a JSON config.

    Gate: the final recorded ground overlap reaches ``min_overlap`` (the
    ``verify`` checks ``tfim4-continuous`` and ``hubbard4-discrete``) and,
    when ``max_energy_error_gaps`` is set, the final mean energy lies within
    that many spectral gaps plus ``n_se`` standard errors of the ground
    energy.  ``verify`` allows no standard errors, but it runs one fixed
    seed: the final energy mean of 100 trajectories moves by a few
    hundredths of a gap for each trajectory caught in an excited state, and
    on TFIM-4 the bare 0.1-gap limit fails for about one seed in six.
    """

    # how traced.py runs it, and the span that covers the whole experiment
    kind = "run"
    root_span = "channel.run_simulation"

    name: str
    config: dict
    min_overlap: float
    max_energy_error_gaps: float | None = None
    n_se: float = 3.0
    plots: bool = False
    # report times at the reference host speed (see run.py)
    host_scaled: bool = False
    smoke: dict = field(default_factory=dict)

    def prepare(self, workdir: Path, seed: int, *, smoke: bool, one_step: bool) -> str:
        """Write the input of one invocation; return its path."""
        cfg = copy.deepcopy(self.config)
        if smoke:
            for block, values in self.smoke.items():
                cfg[block].update(values)
        ch = cfg["channel"]
        ch["seed"] = seed
        tag = "setup" if one_step else "full"
        if one_step:
            ch["total_time"] = ch["tau"]
        out = workdir / tag
        cfg["output"] = {
            "csv": str(out / "run.csv"),
            "manifest": str(out / "run.manifest.json"),
            "plots": str(out / "plots") if self.plots else None,
        }
        path = workdir / f"{tag}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        return str(path)

    def argv(self, input_path: str) -> list[str]:
        """Command line of an untraced child."""
        return [sys.executable, "-m", "lindbladprep.cli", "run", input_path]

    def outputs(self, workdir: Path) -> list[Path]:
        """Files whose bytes must repeat for a fixed seed."""
        return [workdir / "full" / "run.csv"]

    def check(self, workdir: Path) -> list[str]:
        """Gate failures of the full run in ``workdir`` (empty when it passed)."""
        out = workdir / "full"
        with open(out / "run.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        spectrum = json.loads((out / "run.manifest.json").read_text())["resolved"]["spectrum"]
        failures = []
        overlap = float(last["overlap_mean"])
        if not overlap >= self.min_overlap:
            failures.append(f"final overlap {overlap:.4f} < {self.min_overlap}")
        if self.max_energy_error_gaps is not None:
            err = abs(float(last["energy_mean"]) - spectrum["ground_energy"])
            limit = self.max_energy_error_gaps * spectrum["gap"]
            limit += self.n_se * float(last["energy_se"])
            if not err <= limit:
                failures.append(f"final energy error {err:.4f} > {limit:.4f}")
        return failures

    def size(self, workdir: Path) -> dict:
        meta = json.loads((workdir / "full" / "run.manifest.json").read_text())["resolved"]
        m_half = meta["filter"]["m_half"]
        ch = meta["channel"]
        return {
            "dim": meta["spectrum"]["dim"],
            "m_half": m_half,
            "factors": 2 * (2 * m_half + 1),
            "r": ch["r"],
            # the density backend evolves one density matrix, whatever reps says
            "reps": ch["reps"] if ch["backend"] == "trajectory" else 1,
            "n_steps": ch["n_steps"],
        }


@dataclass(frozen=True)
class ErgodicityWorkload:
    """``randomcoupling.ergodicity_experiment`` on the ``verify`` ergodicity
    setup.

    Gate: every Monte Carlo mean population lies within three standard
    errors plus the experiment's bias floor (``se_floor``) of the
    rate-equation prediction.  ``report.consistent()`` allows the larger of
    the two instead of their sum; at 50 reps the O(tau) resampling bias of
    the ground population (about 0.004) plus one standard error crosses its
    5e-3 floor for about one seed in eight, so it would fail runs whose
    output is right.
    """

    kind = "rc"
    root_span = "randomcoupling.ergodicity_experiment"
    host_scaled = True

    name: str
    spec: dict
    n_se: float = 3.0
    smoke: dict = field(default_factory=dict)

    def prepare(self, workdir: Path, seed: int, *, smoke: bool, one_step: bool) -> str:
        spec = dict(self.spec, **(self.smoke if smoke else {}))
        spec["seed"] = seed
        tag = "setup" if one_step else "full"
        if one_step:
            spec["t_final"] = spec["tau"]
        spec["out_dir"] = str(workdir / tag)
        path = workdir / f"{tag}.json"
        path.write_text(json.dumps(spec, indent=2) + "\n")
        return str(path)

    def argv(self, input_path: str) -> list[str]:
        return [sys.executable, str(HERE / "rc_child.py"), input_path]

    def outputs(self, workdir: Path) -> list[Path]:
        out = workdir / "full"
        return [out / "ergodicity.csv", out / "summary.json"]

    def check(self, workdir: Path) -> list[str]:
        out = workdir / "full"
        floor = json.loads((out / "summary.json").read_text())["ergodicity"]["se_floor"]
        with open(out / "ergodicity.csv", newline="") as fh:
            excess = max(
                abs(float(row["mc_mean"]) - float(row["rate_equation"]))
                - self.n_se * float(row["mc_se"])
                - floor
                for row in csv.DictReader(fh)
            )
        if excess <= 0:
            return []
        return [f"a population is {excess:.4f} past {self.n_se} SE + {floor} of the rate equation"]

    def size(self, workdir: Path) -> dict:
        spec = json.loads((workdir / "full.json").read_text())
        # no channel here, so no quadrature factors and no segments
        return {
            "dim": spec["levels"],
            "m_half": 0,
            "factors": 0,
            "r": 0,
            "reps": spec["reps"],
            "n_steps": round(spec["t_final"] / spec["tau"]),
        }


WORKLOADS = {
    w.name: w
    for w in (
        # 93% of the run is ~80,000 tiny trajectory steps; the only workload
        # that renders plots.  A channel-build change should not move it.
        RunWorkload(
            "tfim4-cont-traj",
            TFIM4_CONTINUOUS,
            min_overlap=0.9,
            max_energy_error_gaps=0.1,
            plots=True,
            host_scaled=True,
            # no smoke override: with fewer reps the 0.9 overlap gate is flaky
        ),
        # The paper's Hubbard benchmark on the density backend: the channel
        # build dominates set-up time and peak memory, and each step repeats
        # matrix_power(W, r).
        RunWorkload(
            "hubbard4-disc-density",
            {
                "model": HUBBARD4_DISCRETE["model"],
                "channel": {**HUBBARD4_DISCRETE["channel"], "backend": "density"},
            },
            min_overlap=0.85,
            smoke={"model": {"sites": 2}},
        ),
        # Never enters the channel: resampled RK4 steps on an 8-level system.
        ErgodicityWorkload(
            "rc-ergodicity",
            {"levels": 8, "span": 4.0, "sigma": 0.5, "tau": 0.01, "t_final": 3.0, "reps": 50},
            smoke={"reps": 5, "t_final": 1.0},
        ),
    )
}

