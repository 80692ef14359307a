"""Golden outputs: the committed configs' CSV rows and manifests.

Each config in ``configs/`` runs in process and is compared with
``tests/golden/<config>.csv`` and ``<config>.manifest.json``: every CSV
value and every manifest number within ``|x - y| <= 1e-9 (1 + |y|)``, the
``click_rate`` lists exactly, every other manifest key exactly, and the
output paths not at all.  A tolerance and not bytes, since OpenBLAS picks
its kernels by CPU and thread count, so another machine may round
differently.

A change that moves a number regenerates the goldens, at one BLAS thread::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
from pathlib import Path

import pytest

from lindbladprep.channel import SimulationRecord, run_simulation
from lindbladprep.config import load_run_config, manifest_dict
from lindbladprep.plotting import write_json, write_timeseries_csv

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def outputs(config: Path) -> tuple:
    """The record of ``config``, run in process, and its manifest as JSON
    reads it back."""
    run = load_run_config(config)
    record = run_simulation(run.model, run.channel, run.filter_overrides)
    return run, record, json.loads(json.dumps(manifest_dict(run, record.meta)))


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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for config in CONFIGS:
        run, record, _ = outputs(config)
        write_timeseries_csv(record, GOLDEN / f"{config.stem}.csv")
        write_json(GOLDEN / f"{config.stem}.manifest.json", manifest_dict(run, record.meta))
        print(f"wrote {GOLDEN / config.stem}.csv and .manifest.json")
