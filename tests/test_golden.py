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
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for config in CONFIGS:
        run, record, _ = outputs(config)
        write_timeseries_csv(record, GOLDEN / f"{config.stem}.csv")
        write_json(GOLDEN / f"{config.stem}.manifest.json", manifest_dict(run, record.meta))
        print(f"wrote {GOLDEN / config.stem}.csv and .manifest.json")
    write_json(RC_GOLDEN, rc_outputs())
    print(f"wrote {RC_GOLDEN}")
