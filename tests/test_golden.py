"""Golden outputs: the committed configs' CSV rows and manifests, and one
random-coupling ergodicity run.

Each config in ``configs/`` runs in process and is compared with
``tests/golden/<config>.csv`` and ``<config>.manifest.json``: every CSV
value and every manifest number within ``|x - y| <= 1e-9 (1 + |y|)``, the
``click_rate`` lists exactly, every other manifest key exactly, and the
output paths not at all.  The ergodicity run is the one CI repeats in two
processes (8 levels, 50 reps, seed 11); its checkpoints, Monte Carlo means
and standard errors and rate-equation populations are compared with
``tests/golden/rc_ergodicity.json`` within the same tolerance.  A
tolerance and not bytes, since OpenBLAS picks its kernels by CPU and thread
count, so another machine may round differently.

A change that moves a number regenerates the goldens, at one BLAS thread::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py

Bytes are promised only at a fixed BLAS thread count.  Across thread
counts, a TFIM-8 discrete run in fresh processes at one and two OpenBLAS
threads agrees within the same tolerance, its click rates exactly.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lindbladprep
from lindbladprep import randomcoupling as rc
from lindbladprep.channel import SimulationRecord, run_simulation
from lindbladprep.config import load_run_config, manifest_dict
from lindbladprep.filters import default_params
from lindbladprep.plotting import write_json, write_timeseries_csv

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
RC_GOLDEN = GOLDEN / "rc_ergodicity.json"


def outputs(config: Path) -> tuple:
    """The record of ``config``, run in process, and its manifest as JSON
    reads it back."""
    run = load_run_config(config)
    record = run_simulation(run.model, run.channel, run.filter_overrides)
    return run, record, json.loads(json.dumps(manifest_dict(run, record.meta)))


def rc_outputs() -> dict:
    """The arrays of CI's ergodicity run: 8 equispaced levels over a span of
    4, uniform coupling variance 0.5, a uniform start, tau 0.01 to t 3, 50
    reps, seed 11."""
    lam = rc.synthetic_spectrum("equispaced", 8, span=4.0)
    p = default_params(4.0, float(lam[1] - lam[0]), clamp=True)
    report = rc.ergodicity_experiment(
        lam, rc.RandomCouplingSpec.uniform(8, 0.5), p, np.full(8, 1 / 8),
        tau=0.01, t_final=3.0, reps=50, seed=11,
    )
    return {key: getattr(report, key).tolist() for key in ("checkpoints", "mc_mean", "mc_se", "ode")}


def tfim8_config(stem: str, filter_overrides: dict) -> dict:
    """A short TFIM-8 discrete run (tau 1 to t 4, r 1, 20 reps) writing
    ``<stem>.csv`` and ``<stem>.manifest.json``."""
    data = json.loads((ROOT / "configs" / "tfim4_discrete.json").read_text())
    data["model"]["sites"] = 8
    data["channel"].update(tau=1.0, total_time=4.0, r=1, reps=20)
    data["filter"] = filter_overrides
    data["output"] = {"csv": f"{stem}.csv", "manifest": f"{stem}.manifest.json", "plots": None}
    return data


def read_run(stem: str) -> dict:
    """The CSV values and the manifest, less its output paths, that a run
    wrote to ``<stem>.csv`` and ``<stem>.manifest.json``."""
    with open(f"{stem}.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == SimulationRecord.COLUMNS
    manifest = json.loads(Path(f"{stem}.manifest.json").read_text())
    return {
        "csv": [[float(x) for x in row] for row in rows],
        "manifest": {k: v for k, v in manifest.items() if k != "output"},
    }


def assert_close(got, want, where: str) -> None:
    """``got`` matches ``want`` key for key: a float within 1e-9 (1 + |want|),
    a ``click_rate`` list and anything else exactly."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list) and not where.endswith(".click_rate"):
        assert len(got) == len(want), where
        for i, (x, y) in enumerate(zip(got, want)):
            assert_close(x, y, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-9 * (1 + abs(want)), (
            f"{where}: {got!r} against {want!r}"
        )
    else:
        assert got == want, where


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_config_matches_golden(config):
    _, record, manifest = outputs(config)
    with open(GOLDEN / f"{config.stem}.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == SimulationRecord.COLUMNS
    got = [[float(x) for x in row] for row in record.rows()]
    assert_close(got, [[float(x) for x in row] for row in rows], "csv")
    golden = json.loads((GOLDEN / f"{config.stem}.manifest.json").read_text())
    assert_close(
        {k: v for k, v in manifest.items() if k != "output"},
        {k: v for k, v in golden.items() if k != "output"},
        "manifest",
    )


def test_rc_ergodicity_matches_golden():
    assert_close(rc_outputs(), json.loads(RC_GOLDEN.read_text()), "rc_ergodicity")


def test_tfim8_agrees_across_blas_thread_counts(tmp_path):
    """OpenBLAS may round differently at two threads, so the runs are compared
    within the tolerance and not by bytes.  A partial filter (``s_radius``
    3, ``m_half`` 54 in place of 129) keeps the build short."""
    src = str(Path(lindbladprep.__file__).resolve().parents[1])
    runs = []
    for threads in (1, 2):
        stem = str(tmp_path / f"threads{threads}")
        cfg = Path(f"{stem}.json")
        cfg.write_text(json.dumps(tfim8_config(stem, {"s_radius": 3.0})))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        cmd = [sys.executable, "-m", "lindbladprep.cli", "run", str(cfg)]
        runs.append((stem, subprocess.Popen(cmd, env=env, stderr=subprocess.PIPE, text=True)))
    for _, proc in runs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
    one, two = (read_run(stem) for stem, _ in runs)
    assert two["manifest"]["resolved"]["filter"]["m_half"] == 54
    assert_close(two, one, "threads")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for config in CONFIGS:
        run, record, _ = outputs(config)
        write_timeseries_csv(record, GOLDEN / f"{config.stem}.csv")
        write_json(GOLDEN / f"{config.stem}.manifest.json", manifest_dict(run, record.meta))
        print(f"wrote {GOLDEN / config.stem}.csv and .manifest.json")
    write_json(RC_GOLDEN, rc_outputs())
    print(f"wrote {RC_GOLDEN}")
