import json
import os
import shutil
import stat
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lindbladprep
from lindbladprep.channel import ChannelConfig, invariant_blocks, prepare, run_simulation
from lindbladprep.cli import main
from lindbladprep.config import ConfigError, load_run_config, parse_run_config, resolve_filter_params
from lindbladprep.models import ModelSpec, coupling_operator
from lindbladprep.plotting import (
    PlotError,
    read_timeseries,
    render_plot,
    write_timeseries_csv,
)


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def tiny_config(tmp_path, **channel_overrides):
    channel = {
        "mode": "continuous",
        "tau": 0.5,
        "total_time": 2.0,
        "backend": "density",
        "reps": 1,
        "seed": 1,
    }
    channel.update(channel_overrides)
    return {
        "model": {"kind": "tfim", "sites": 2, "g": 1.2},
        "channel": channel,
        "output": {
            "csv": str(tmp_path / "run.csv"),
            "manifest": str(tmp_path / "run.manifest.json"),
        },
    }


def fresh_python(*args: str, check: bool = True, timeout=None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this package;
    one still running after ``timeout`` seconds fails with ``TimeoutExpired``."""
    src = str(Path(lindbladprep.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=check,
        timeout=timeout,
    )


def modules_after(code: str, package: str) -> list:
    """The modules of ``package`` loaded after a fresh interpreter runs ``code``."""
    code += (
        "\nimport json, sys"
        f"\nprint(json.dumps([m for m in sys.modules if m.partition('.')[0] == {package!r}]))"
    )
    return json.loads(fresh_python("-c", code).stdout.splitlines()[-1])


# (block, key, value) of a config field given a JSON value of the wrong type
MISTYPED = [
    ("channel", "include_coherent", "false"),
    ("channel", "include_coherent", 0),
    ("channel", "r", 2.9),
    ("channel", "r", True),
    ("channel", "reps", 2.9),
    ("channel", "seed", "7"),
    ("channel", "record_stride", 1.0),
    ("channel", "tau", "0.5"),
    ("model", "sites", True),
    ("model", "g", "1.5"),
    ("model", "g", True),
    ("filter", "tau_s", True),
    ("filter", "a", "5"),
    ("filter", "clamp_nonnegative", 1),
]


# (block, key, value) of a config field whose value is not finite, overflows
# the filter's small-s expansion, or makes a step or grid-node count that
# does not fit 64 bits or a run of zero steps
NON_FINITE = [
    ("model", "g", float("nan")),
    ("channel", "total_time", float("inf")),
    ("channel", "total_time", 1e300),
    ("channel", "tau", 1e-320),
    ("model", "g", 1e300),
    ("filter", "a", 1e300),
    ("filter", "s_radius", float("inf")),
    ("filter", "s_radius", 1e300),
    ("filter", "tau_s", 1e-300),
    ("channel", "total_time", 1e-12),
]


def assert_one_error_line(capsys, argv, code):
    """The CLI on ``argv`` exits ``code`` with one ``error:`` line on stderr;
    returns what it printed on stdout."""
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    return out


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path)))
        run = load_run_config(cfg_path)
        assert run.model == ModelSpec("tfim", 2, tfim_g=1.2)
        assert run.channel.n_steps == 4

    def test_unknown_keys_rejected(self, tmp_path):
        data = tiny_config(tmp_path)
        data["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            parse_run_config(data)
        data = tiny_config(tmp_path)
        data["channel"]["warp"] = 9
        with pytest.raises(ConfigError, match="warp"):
            parse_run_config(data)

    def test_missing_required(self, tmp_path):
        data = tiny_config(tmp_path)
        del data["channel"]["tau"]
        with pytest.raises(ConfigError, match="tau"):
            parse_run_config(data)

    def test_malformed_json_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "model": {,}\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_run_config(bad)

    def test_model_key_crosstalk(self, tmp_path):
        data = tiny_config(tmp_path)
        data["model"]["t"] = 1.0
        with pytest.raises(ConfigError):
            parse_run_config(data)

    def test_channel_defaults_are_the_dataclass_defaults(self, tmp_path):
        data = tiny_config(tmp_path)
        data["channel"] = {"tau": 0.5, "total_time": 2.0}
        assert parse_run_config(data).channel == ChannelConfig(tau=0.5, total_time=2.0)

    def test_filter_m_half_is_unknown(self, tmp_path):
        data = tiny_config(tmp_path)
        data["filter"] = {"m_half": 5}
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['m_half'\] in 'filter'"):
            parse_run_config(data)

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"kind": "tfim", "sites": 2, "g": 1.0, "u": 4.0}, "model keys 't'/'u' only apply to hubbard1d"),
            ({"kind": "hubbard1d", "sites": 2, "t": 1.0, "u": 4.0, "g": 1.0}, "model key 'g' only applies to tfim"),
            ({"kind": "ising", "sites": 2}, "unknown model kind 'ising'"),
            ({"kind": "hubbard1d", "sites": 2, "t": 1.0}, "missing required key 'u' in 'model' block"),
        ],
    )
    def test_model_block_messages(self, tmp_path, model, message):
        data = tiny_config(tmp_path)
        data["model"] = model
        with pytest.raises(ConfigError) as info:
            parse_run_config(data)
        assert str(info.value) == message

    def test_integer_beyond_float_range(self, tmp_path):
        data = tiny_config(tmp_path)
        data["channel"]["tau"] = 10**400
        with pytest.raises(ConfigError, match="channel.tau is out of the float range"):
            parse_run_config(data)

    def test_filter_overrides_applied(self):
        p = resolve_filter_params({"tau_s": 0.05, "clamp_nonnegative": True}, 2.0, 1.0)
        assert p.tau_s == 0.05
        assert p.clamp_nonnegative
        assert p.a == 5.0  # rule value retained

    def test_zero_gap_needs_explicit_filter(self):
        with pytest.raises(ConfigError, match="gap"):
            resolve_filter_params({"a": 2.0}, 1.0, 0.0)
        p = resolve_filter_params(
            {"a": 2.0, "delta_a": 0.5, "b": 0.5, "delta_b": 0.5, "s_radius": 4.0, "tau_s": 0.2},
            1.0,
            0.0,
        )
        assert p.b == 0.5

    def test_rounding_gap_counts_as_no_gap(self):
        for gap in (1e-9, 1.8e-15, 0.0):
            with pytest.raises(ConfigError, match="no gap"):
                resolve_filter_params({}, 1.0, gap)
            with pytest.raises(ConfigError, match="no gap"):
                resolve_filter_params({"clamp_nonnegative": True}, 1.0, gap)
        assert resolve_filter_params({}, 1.0, 2e-9).b == 2e-9


class TestRunCommand:
    def test_end_to_end_and_determinism(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path)))
        assert main(["run", str(cfg_path)]) == 0
        csv_path = tmp_path / "run.csv"
        first = csv_path.read_bytes()
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        # manifest echoes every resolved default
        assert "m_half" in manifest["resolved"]["filter"]
        assert manifest["resolved"]["channel"]["n_steps"] == 4
        assert manifest["resolved"]["spectrum"]["gap"] > 0
        assert main(["run", str(cfg_path)]) == 0
        assert csv_path.read_bytes() == first

    def test_manifest_filter_and_channel_keys(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path)))
        assert main(["run", str(cfg_path)]) == 0
        resolved = json.loads((tmp_path / "run.manifest.json").read_text())["resolved"]
        assert set(resolved["filter"]) == {
            "a", "delta_a", "b", "delta_b", "s_radius", "tau_s", "m_half", "grid_radius",
            "clamp_nonnegative",
        }
        assert set(resolved["channel"]) == {
            "tau", "total_time", "mode", "r", "include_coherent", "backend", "reps", "seed",
            "initial_state", "record_stride", "n_steps",
        }

    def test_trajectory_csv_bit_reproducible(self, tmp_path):
        cfg = tiny_config(tmp_path, backend="trajectory", reps=5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        first = (tmp_path / "run.csv").read_bytes()
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "run.csv").read_bytes() == first

    @pytest.mark.parametrize("backend", ["density", "trajectory"])
    def test_huge_field_stays_in_spectral_range(self, tmp_path, backend):
        # at |H| ~ 1e100 rounding is ~1e84, so the energy-range check scales with |H|
        data = tiny_config(tmp_path, backend=backend, reps=5 if backend == "trajectory" else 1)
        data["model"]["g"] = 1e100
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "run.csv").exists()

    def test_malformed_config_exit_2_no_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{ not json")
        assert main(["run", str(cfg_path)]) == 2
        assert not (tmp_path / "run.csv").exists()
        assert "line" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("nested-too-deeply", "malformed JSON: nested too deeply"),
            ("nul-in-output-path", "embedded null byte"),
            ("not-utf8", "can't decode byte 0xff"),
            ("5000-digit-integer", "Exceeds the limit"),
        ],
        ids=["nested-too-deeply", "nul-in-output-path", "not-utf8", "5000-digit-integer"],
    )
    def test_unreadable_config_content_exit_2(self, tmp_path, capsys, fault, message):
        """Text or values that Python itself refuses to read are invalid input."""
        data = tiny_config(tmp_path)
        if fault == "nul-in-output-path":
            data["output"]["csv"] = str(tmp_path / "r\0un.csv")
        text = json.dumps(data).encode()
        if fault == "nested-too-deeply":  # beyond the JSON decoder's recursion limit
            text = b"[" * 100_000 + b"]" * 100_000
        elif fault == "not-utf8":
            text = text.replace(b'"tfim"', b'"tf\xffim"')
        elif fault == "5000-digit-integer":
            text = text.replace(b'"seed": 1', b'"seed": ' + b"1" * 5000)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(text)
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and message in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_clamped_filter_override_exit_2(self, tmp_path, capsys):
        """The circuit samples the unclamped f(s), so a clamp in the config
        would change no number of the run: ``true`` is refused, ``false``
        runs and is echoed."""
        data = tiny_config(tmp_path)
        data["filter"] = {"clamp_nonnegative": True}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert_one_error_line(capsys, ["run", str(cfg_path)], 2)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        data["filter"] = {"clamp_nonnegative": False}
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["filter_overrides"] == {"clamp_nonnegative": False}
        assert manifest["resolved"]["filter"]["clamp_nonnegative"] is False

    def test_invalid_physics_exit_2(self, tmp_path):
        data = tiny_config(tmp_path)
        data["channel"]["tau"] = 0.3  # not a divisor of total_time
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "block, key, value", MISTYPED, ids=[f"{key}-{value}" for _, key, value in MISTYPED]
    )
    def test_mistyped_channel_field_exit_2(self, tmp_path, capsys, block, key, value):
        data = tiny_config(tmp_path)
        data.setdefault(block, {})[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{block}.{key} must be a JSON" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize(
        "block, key, value", NON_FINITE, ids=[f"{key}-{value}" for _, key, value in NON_FINITE]
    )
    def test_non_finite_or_overflowing_number_exit_2(self, tmp_path, capsys, block, key, value):
        data = tiny_config(tmp_path)
        data.setdefault(block, {})[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))  # NaN and Infinity as Python's json writes them
        assert_one_error_line(capsys, ["run", str(cfg_path)], 2)
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize(
        "model, refused",
        [
            ({"kind": "tfim", "sites": 2, "g": 1e308}, True),
            ({"kind": "hubbard1d", "sites": 2, "t": 1e308, "u": 4.0}, True),
            ({"kind": "tfim", "sites": 2, "g": 4e307}, False),
            ({"kind": "hubbard1d", "sites": 2, "t": 4e307, "u": 4.0}, False),
        ],
        ids=["g-1e308", "t-1e308", "g-4e307", "t-4e307"],
    )
    def test_coupling_near_the_float_limit_exit_2(self, tmp_path, capsys, model, refused):
        """A coupling whose doubled Gershgorin bound on ||H|| overflows is refused
        with the model, naming it; one just inside the limit still fails in one
        line, at the filter. Both used to end in an overflow warning."""
        data = tiny_config(tmp_path)
        data["model"] = model
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert ("model coupling too large" in err) == refused
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize(
        "csv, manifest, plots",
        [
            ("new/run.csv", "new/run.csv", None),
            ("new/run.csv", "new/sub/../run.csv", None),
            ("new/overlap-time.svg", "run.json", "new"),
            ("new/run.csv", "link.json", None),
        ],
        ids=["manifest-is-csv", "dot-dot", "csv-is-an-svg", "symlink"],
    )
    def test_colliding_output_paths_exit_2(self, tmp_path, capsys, csv, manifest, plots):
        """Two outputs on one path are refused before any file or directory is made."""
        (tmp_path / "link.json").symlink_to(tmp_path / "new" / "run.csv")
        data = tiny_config(tmp_path)
        data["output"] = {"csv": str(tmp_path / csv), "manifest": str(tmp_path / manifest),
                          "plots": plots and str(tmp_path / plots)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert_one_error_line(capsys, ["run", str(cfg_path)], 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "link.json"]

    def test_manifest_onto_its_own_config_exit_2(self, tmp_path, monkeypatch, capsys):
        """A manifest path that is the config itself, spelled another way, is
        refused before the run simulates or makes a directory; the config is
        left as it was."""
        import lindbladprep.cli as cli

        monkeypatch.setattr(cli, "run_simulation", lambda *args: pytest.fail("simulated"))
        monkeypatch.chdir(tmp_path)
        data = tiny_config(tmp_path)
        data["output"] = {"csv": str(tmp_path / "new" / "run.csv"), "manifest": "./cfg.json"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        before = cfg_path.read_bytes()
        assert_one_error_line(capsys, ["run", "cfg.json"], 2)
        assert cfg_path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize(
        "stem, plots, code",
        [("r\x01d", "plots", 2), ("r\udcffd", "plots", 2), ("r\x01d", None, 0)],
        ids=["control-character", "lone-surrogate", "control-character-without-plots"],
    )
    def test_csv_stem_that_xml_cannot_carry(self, tmp_path, monkeypatch, capsys, stem, plots, code):
        """The CSV stem is the plots' legend label: with plots, one that XML 1.0
        cannot carry is refused before the run simulates or writes anything."""
        import lindbladprep.cli as cli

        data = tiny_config(tmp_path)
        data["output"]["csv"] = str(tmp_path / f"{stem}.csv")
        data["output"]["plots"] = plots and str(tmp_path / plots)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        if code:
            monkeypatch.setattr(cli, "run_simulation", lambda *args: pytest.fail("simulated"))
            assert main(["run", str(cfg_path)]) == code
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith("error: output.csv stem") and "XML 1.0" in err
            assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        else:
            assert main(["run", str(cfg_path)]) == 0
            assert (tmp_path / f"{stem}.csv").exists()

    @pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
    def test_config_runs_on_the_density_backend(self, tmp_path, config):
        """Each config runs to its full length on the density backend, whose
        trace check is per step: Hubbard-4 continuous drifts by 3.7e-9 over
        its 4000 steps, by at most 1.2e-12 in one."""
        data = json.loads(config.read_text())
        data["channel"]["backend"] = "density"
        data["output"] = {"csv": str(tmp_path / "run.csv"), "manifest": str(tmp_path / "run.json")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 0
        n_steps = json.loads((tmp_path / "run.json").read_text())["resolved"]["channel"]["n_steps"]
        assert read_timeseries(tmp_path / "run.csv")["step"][-1] == n_steps

    @pytest.mark.parametrize("key", ["csv", "manifest", "plots"])
    def test_empty_output_path_exit_2(self, tmp_path, capsys, monkeypatch, key):
        """An empty output path is refused before anything is written, also
        into the working directory."""
        data = tiny_config(tmp_path)
        data["output"][key] = ""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)
        assert_one_error_line(capsys, ["run", str(cfg_path)], 2)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_invalid_filter_override_exit_2(self, tmp_path, capsys):
        data = tiny_config(tmp_path)
        data["filter"] = {"tau_s": -0.1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid filter parameters" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run.csv").exists()

    def test_grid_too_big_for_its_values_exit_2(self, tmp_path, capsys):
        """s_radius / tau_s = 1e18 needs 2e18 grid nodes, below 2^63 but
        16 bytes each for the values of f: refused with one line, where
        numpy's "array is too big" traceback used to end the run with exit 1."""
        data = tiny_config(tmp_path)
        data["filter"] = {"s_radius": 1e15, "tau_s": 1e-3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "2e+18 grid nodes" in err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("total_time", [1e-282, 5e-282], ids=["1e18-steps", "5e18-steps"])
    def test_record_steps_too_big_exit_1(self, tmp_path, capsys, total_time):
        """tau = 1e-300 makes 1e18 or 5e18 steps, counts that fit 64 bits, so
        the config passes and the pair is built; the run's record steps then
        cannot be allocated.  One error line names the size, where a bare
        MemoryError used to print ``error: `` with no text."""
        data = tiny_config(tmp_path, mode="discrete", tau=1e-300, total_time=total_time)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and err.strip() != "error:"
        assert not (tmp_path / "run.csv").exists()

    def test_run_eigensolves_h_once(self, tmp_path, monkeypatch):
        import lindbladprep.channel as channel
        import lindbladprep.linalg as linalg

        exact = linalg.hermitian_eig
        solved = []

        def spy(op):
            solved.append(op.matrix)
            return exact(op)

        monkeypatch.setattr(linalg, "hermitian_eig", spy)
        monkeypatch.setattr(channel, "hermitian_eig", spy)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path)))
        assert main(["run", str(cfg_path)]) == 0
        model = ModelSpec("tfim", 2, tfim_g=1.2)
        assert len(solved) == 2
        assert np.array_equal(solved[0], model.hamiltonian().dense().matrix)
        assert np.array_equal(solved[1], coupling_operator(model).dense().matrix)

        # Hubbard-2: H one invariant block at a time, A only on the block
        # that holds the (non-degenerate) highest eigenstate
        solved.clear()
        data = tiny_config(tmp_path)
        data["model"] = {"kind": "hubbard1d", "sites": 2, "t": 1.0, "u": 4.0}
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 0
        model = ModelSpec("hubbard1d", 2, hubbard_t=1.0, hubbard_u=4.0)
        h, a = model.hamiltonian().dense().matrix, coupling_operator(model).dense().matrix
        blocks = invariant_blocks(model.hamiltonian(), coupling_operator(model))
        top = exact(model.hamiltonian().dense()).eigenvectors[:, -1]
        (live,) = [idx for idx in blocks if np.max(np.abs(top[idx])) > 1e-6]
        expected = [h[np.ix_(idx, idx)] for idx in blocks] + [a[np.ix_(live, live)]]
        assert len(blocks) == 9 and len(solved) == len(expected)
        for got, want in zip(solved, expected):
            assert np.array_equal(got, want)

    def test_gapless_ground_level_exit_2(self, tmp_path, capsys):
        """Hubbard-3's ground level is a spin doublet: no filter rule applies."""
        data = tiny_config(tmp_path)
        data["model"] = {"kind": "hubbard1d", "sites": 3, "t": 1.0, "u": 4.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "spectrum has no gap" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run.csv").exists()
        assert not (tmp_path / "run.manifest.json").exists()

    @pytest.mark.parametrize(
        "initial_state, message",
        [
            ("eigenstate:abc", "unknown initial_state"),
            ("eigenstate:-1", "unknown initial_state"),
            ("eigenstate:4", "out of range"),
            ("eigenstate:99", "out of range"),
        ],
    )
    def test_bad_eigenstate_index_exit_2(self, tmp_path, capsys, initial_state, message):
        data = tiny_config(tmp_path, initial_state=initial_state)  # 2 sites: 4 eigenstates
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run.csv").exists()

    def test_prepare_refuses_an_eigenstate_as_the_config_does(self, tmp_path, capsys):
        """One rule places the initial level: ``prepare`` refuses ``eigenstate:99``
        of TFIM-2 with the config's text, less its ``channel.`` prefix."""
        data = tiny_config(tmp_path, initial_state="eigenstate:99")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        with pytest.raises(ValueError) as refusal:
            prepare(ModelSpec("tfim", 2, tfim_g=1.2), ChannelConfig(**data["channel"]))
        assert err == f"error: channel.{refusal.value}\n"

    def test_last_eigenstate_index_accepted(self, tmp_path):
        data = tiny_config(tmp_path, initial_state="eigenstate:3")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 0

    @pytest.mark.parametrize(
        "backend, model, block_dim",
        [
            pytest.param("density", {"kind": "tfim", "sites": 4, "g": 1.2}, 16, id="density"),
            pytest.param("trajectory", {"kind": "tfim", "sites": 4, "g": 1.2}, 16, id="trajectory"),
            # Hubbard-2 (dim 16) evolves the 4-state block of its highest level
            pytest.param(
                "trajectory", {"kind": "hubbard1d", "sites": 2, "t": 1.0, "u": 4.0}, 4, id="hubbard2"
            ),
        ],
    )
    def test_manifest_records_kraus_isometry_defect(self, tmp_path, backend, model, block_dim):
        data = tiny_config(tmp_path, backend=backend, reps=2)
        data["model"] = model
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        health = manifest["resolved"]["health"]
        assert 0.0 <= health["kraus_isometry_defect"] <= 1e-10
        assert health["block_dim"] == block_dim
        assert manifest["resolved"]["spectrum"]["dim"] == 16

    def test_manifest_records_click_rate(self, tmp_path):
        data = tiny_config(tmp_path, backend="trajectory", reps=4, total_time=3.0, record_stride=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        rate = manifest["resolved"]["health"]["click_rate"]
        steps = read_timeseries(tmp_path / "run.csv")["step"]
        assert list(steps) == [0, 2, 4, 6]
        assert len(rate) == len(steps) - 1
        assert all(0.0 <= x <= 1.0 for x in rate)

    def test_plots_emitted(self, tmp_path):
        """Four well-formed SVGs; the legend label, the CSV's stem, is escaped."""
        data = tiny_config(tmp_path)
        data["output"]["csv"] = str(tmp_path / "r&d.csv")
        data["output"]["plots"] = str(tmp_path / "plots")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "plots" / "overlap-time.svg").exists()
        svgs = sorted((tmp_path / "plots").iterdir())
        assert len(svgs) == 4
        assert all("r&d" in svg_texts(svg) for svg in svgs)

    @pytest.mark.parametrize("blocker", ["plots", "plots/overlap-time.svg"])
    def test_failed_plot_leaves_no_outputs(self, tmp_path, monkeypatch, capsys, blocker):
        """Outputs are claimed before the run: the plots directory is a regular
        file, or one SVG path a directory, and the run fails before it simulates
        and leaves no output."""
        import lindbladprep.cli as cli

        def simulated(*args, **kwargs):
            pytest.fail("run_simulation called for a run whose outputs cannot be written")

        monkeypatch.setattr(cli, "run_simulation", simulated)
        if blocker == "plots":
            (tmp_path / blocker).write_text("a regular file, not a directory\n")
        else:
            (tmp_path / blocker).mkdir(parents=True)
        data = tiny_config(tmp_path)
        data["output"]["plots"] = str(tmp_path / "plots")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        left = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert left == sorted({"cfg.json", "plots", blocker})

    def test_failed_render_removes_temporary_files(self, tmp_path, monkeypatch):
        import lindbladprep.cli as cli

        def broken(*args, **kwargs):
            raise PlotError("render failed")

        monkeypatch.setattr(cli, "render_plot", broken)
        data = tiny_config(tmp_path)
        data["output"]["plots"] = str(tmp_path / "plots")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json"]

    def test_failed_run_removes_the_directories_it_made(self, tmp_path, capsys):
        """CSV and manifest under new directories, the manifest's inside an
        existing empty one, the plots directory a regular file: the run
        fails and leaves the tree as it found it."""
        (tmp_path / "plots").write_text("a regular file, not a directory\n")
        (tmp_path / "kept").mkdir()
        data = tiny_config(tmp_path)
        data["output"] = {
            "csv": str(tmp_path / "new" / "sub" / "run.csv"),
            "manifest": str(tmp_path / "kept" / "m" / "run.manifest.json"),
            "plots": str(tmp_path / "plots"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", str(cfg_path)]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_cli_import_loads_no_scipy(self):
        """``run`` calls nothing from scipy, so importing the CLI must not
        load it; a fresh interpreter sees the import alone."""
        assert modules_after("import lindbladprep.cli", "scipy") == []

    def test_cli_import_loads_only_the_run_modules(self):
        """``run``, ``plot`` and ``filter-table`` need none of ``jump``,
        ``reference``, ``verify`` or ``randomcoupling``: ``jump-report`` and
        ``verify`` import theirs when they are called."""
        run_modules = ["channel", "cli", "config", "filters", "linalg", "models", "plotting"]
        loaded = sorted(modules_after("import lindbladprep.cli", "lindbladprep"))
        assert loaded == ["lindbladprep"] + [f"lindbladprep.{m}" for m in run_modules]

    def test_random_coupling_import_loads_no_channel_layer(self):
        """The random-coupling experiments take ``STEP_DRIFT`` and ``mean_se``
        from ``linalg``, so they load neither ``channel`` nor ``models``."""
        rc_modules = ["filters", "jump", "linalg", "plotting", "randomcoupling", "reference"]
        loaded = sorted(modules_after("import lindbladprep.randomcoupling", "lindbladprep"))
        assert loaded == ["lindbladprep"] + [f"lindbladprep.{m}" for m in rc_modules]

    def test_random_coupling_and_aux_commands_load_no_scipy(self, tmp_path):
        """The random-coupling experiments, ``exact_jump``, ``filter-table``
        and ``jump-report`` use a numpy erf and a numpy ``expm``."""
        code = f"""
import numpy as np
from lindbladprep import randomcoupling as rc
from lindbladprep.cli import main
from lindbladprep.filters import default_params
from lindbladprep.jump import exact_jump
from lindbladprep.linalg import hermitian_eig
from lindbladprep.models import ModelSpec, coupling_operator

lam = rc.synthetic_spectrum("equispaced", 3)
p = default_params(4.0, 2.0, clamp=True)
sigma = rc.RandomCouplingSpec.uniform(3)
p0 = np.full(3, 1 / 3)
rc.ergodicity_experiment(lam, sigma, p, p0, tau=0.5, t_final=1.0, reps=2)
rc.concentration_experiment(lam, sigma, p, p0, taus=[0.5], t_final=1.0, reps=2)
rc.mixing_layers_experiment(lam, sigma, p, [2, 0], n_times=3)
model = ModelSpec("tfim", 2, tfim_g=1.2)
spec = hermitian_eig(model.hamiltonian().dense())
exact_jump(spec, coupling_operator(model).dense(), default_params(spec.spectral_norm, spec.gap))
out = {str(tmp_path)!r}
assert main(["filter-table", "--out-dir", out, "--points", "5"]) == 0
assert main(["jump-report", "--sites", "2", "--sparsity-out", out + "/k.csv"]) == 0
"""
        assert modules_after(code, "scipy") == []

    def test_every_export_resolves(self):
        """Each name in a module's ``__all__`` is defined there, so a deletion
        cannot leave a stale export."""
        import importlib
        import pkgutil

        infos = pkgutil.iter_modules(lindbladprep.__path__, "lindbladprep.")
        modules = [importlib.import_module(info.name) for info in infos]
        exported = [m for m in modules if hasattr(m, "__all__")]
        assert len(exported) >= 10
        stale = [f"{m.__name__}.{name}" for m in exported for name in m.__all__ if not hasattr(m, name)]
        assert stale == []


class TestPlotting:
    def make_csv(self, tmp_path, reps=3):
        rec = run_simulation(
            ModelSpec("tfim", 2, tfim_g=1.2),
            ChannelConfig(tau=0.5, total_time=2.0, backend="trajectory", reps=reps, seed=5),
        )
        path = tmp_path / "series.csv"
        write_timeseries_csv(rec, path)
        return path

    def test_csv_round_trip(self, tmp_path):
        path = self.make_csv(tmp_path)
        data = read_timeseries(path)
        assert data["step"].size == 5
        assert np.all(np.diff(data["h_time"]) > 0)

    def test_svg_deterministic(self, tmp_path):
        path = self.make_csv(tmp_path)
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        render_plot([path], "overlap-time", out1)
        render_plot([path], "overlap-time", out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes().startswith(b"<?xml")

    def test_two_series_one_canvas(self, tmp_path):
        p1 = self.make_csv(tmp_path)
        p2 = tmp_path / "other.csv"
        rec = run_simulation(
            ModelSpec("tfim", 2, tfim_g=1.2),
            ChannelConfig(tau=1.0, total_time=2.0, mode="discrete", backend="density"),
        )
        write_timeseries_csv(rec, p2)
        out = tmp_path / "cmp.svg"
        render_plot([p1, p2], "overlap-htime", out, labels=["continuous", "discrete"])
        text = out.read_text()
        assert "continuous" in text and "discrete" in text

    def test_missing_column_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("step,time\n0,0.0\n")
        with pytest.raises(PlotError, match="missing column"):
            read_timeseries(bad)

    def test_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(PlotError):
            read_timeseries(empty)
        header_only = tmp_path / "header.csv"
        header_only.write_text(",".join(read_columns()) + "\n")
        with pytest.raises(PlotError, match="no data"):
            read_timeseries(header_only)

    def test_labels_are_escaped(self, tmp_path):
        """A legend label, a CSV's stem or a --label, is XML-escaped."""
        path = self.make_csv(tmp_path).rename(tmp_path / "r&d.csv")
        out = tmp_path / "p.svg"
        for extra, label in [([], "r&d"), (["--label", "a<b>"], "a<b>")]:
            assert main(["plot", str(path), "--kind", "energy-time", "--out", str(out), *extra]) == 0
            assert label in svg_texts(out)

    @pytest.mark.parametrize(
        "energies, code",
        [
            ([(1e308, 0.0), (-1e308, 0.0)], 2),
            ([(1.0, 1e308), (1.0, 0.0)], 2),
            ([(1e308, 1e308), (1.0, 0.0)], 2),
            ([(1e20, 0.0), (1e20, 0.0)], 0),
            ([(1e20, 0.0), (1.0000000000000002e20, 0.0)], 0),
        ],
        ids=["span-overflows", "se-overflows", "band-overflows", "flat-at-1e20", "one-ulp-at-1e20"],
    )
    def test_extreme_values_refused_or_rendered(self, tmp_path, energies, code):
        """(energy_mean, energy_se) rows at the edges of the float range end in
        one error line (exit 2) or a well-formed SVG, within seconds.  A fresh
        interpreter runs the plot, so that one that never returns fails the
        test instead of hanging the suite."""
        header = ",".join(read_columns())
        rows = "".join(f"{i},{i}.0,{i}.0,{i},{e!r},{se!r},0.5,0.0\n" for i, (e, se) in enumerate(energies))
        (tmp_path / "x.csv").write_text(f"{header}\n{rows}")
        out = tmp_path / "x.svg"
        argv = ["plot", str(tmp_path / "x.csv"), "--kind", "energy-time", "--out", str(out)]
        res = fresh_python(
            "-W", "error::RuntimeWarning", "-m", "lindbladprep.cli", *argv, check=False, timeout=10
        )
        assert res.returncode == code, res.stderr
        assert res.stdout == ("" if code else f"wrote {out}\n")
        if code:
            assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
            assert not out.exists()
        else:
            assert res.stderr == ""
            assert "energy" in svg_texts(out)

    def test_plot_cli_exit_codes(self, tmp_path):
        path = self.make_csv(tmp_path)
        out = tmp_path / "p.svg"
        assert main(["plot", str(path), "--kind", "energy-time", "--out", str(out)]) == 0
        assert out.exists()
        empty = tmp_path / "none.csv"
        empty.write_text("")
        assert main(["plot", str(empty), "--kind", "energy-time", "--out", str(out)]) == 2

    def test_plot_onto_its_own_csv_exit_2(self, tmp_path, monkeypatch, capsys):
        """An SVG path that is one of the plotted CSVs, spelled another way, is
        refused; the CSV is left as it was."""
        path = self.make_csv(tmp_path)
        before = path.read_bytes()
        monkeypatch.chdir(tmp_path)
        argv = ["plot", str(path), "--kind", "energy-time", "--out", "./series.csv"]
        assert_one_error_line(capsys, argv, 2)
        assert path.read_bytes() == before


def svg_texts(path) -> list:
    """The text of each ``<text>`` element of an SVG, which must be well-formed XML."""
    return [t.text for t in ET.parse(path).iter("{http://www.w3.org/2000/svg}text")]


def read_columns():
    from lindbladprep.channel import SimulationRecord

    return SimulationRecord.COLUMNS


class TestAuxCommands:
    def test_filter_table(self, tmp_path):
        rc = main(
            ["filter-table", "--model", "tfim", "--sites", "2", "--g", "1.2",
             "--out-dir", str(tmp_path), "--points", "50"]
        )
        assert rc == 0
        freq = (tmp_path / "filter_freq.csv").read_text().splitlines()
        assert freq[0] == "omega,f_hat"
        assert len(freq) == 51
        time_tab = (tmp_path / "filter_time.csv").read_text().splitlines()
        assert time_tab[0] == "s,re_f,im_f"

    def test_filter_table_memory_follows_the_grids(self, tmp_path):
        """The tables are written one chunk of rows at a time, so the traced
        peak stays within the two float grids (16 bytes a point), the bound
        the ``--points`` guard counts, plus a fixed 16 MB."""
        points = 300_000
        tracemalloc.start()
        try:
            assert main(["filter-table", "--sites", "2", "--points", str(points),
                         "--out-dir", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * points + 16 * 2**20

    def test_filter_table_refused_beyond_free_disk(self, tmp_path, monkeypatch, capsys):
        """The two tables take at most 127 bytes a point plus their headers
        (24-character float reprs and \\r\\n); a ``--points`` whose worst case
        exceeds the free space under the nearest existing ancestor of
        ``--out-dir`` exits 2 before any computation and leaves no file."""
        points, out = 1000, tmp_path / "a" / "b"
        asked = []

        def free_bytes(free):
            def disk_usage(path):
                asked.append(Path(path))
                return SimpleNamespace(total=2 * free, used=free, free=free)

            return disk_usage

        def no_spectrum(model):
            raise AssertionError("computed before checking the free disk space")

        argv = ["filter-table", "--sites", "2", "--points", str(points), "--out-dir", str(out)]
        with monkeypatch.context() as patch:
            patch.setattr(shutil, "disk_usage", free_bytes(127 * points + 25))
            patch.setattr("lindbladprep.cli.spectrum", no_spectrum)
            assert_one_error_line(capsys, argv, 2)
        assert asked == [tmp_path]
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(shutil, "disk_usage", free_bytes(127 * points + 26))
        assert main(argv) == 0
        written = sum(f.stat().st_size for f in out.iterdir())
        assert written <= 127 * points + 26

    def test_filter_table_negative_points_exit_2(self, tmp_path):
        out = fresh_python(
            "-m", "lindbladprep.cli", "filter-table", "--sites", "2",
            "--out-dir", str(tmp_path), "--points", "-1", check=False,
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert out.stderr.count("\n") == 1 and out.stderr.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_clamp_is_a_filter_table_flag_only(self, tmp_path, capsys):
        """``--clamp`` zeroes the frequency table for w >= 0 and leaves the
        time table alone; ``jump-report`` always reports both jumps, so it
        has no such flag."""
        tables = {}
        for flags in ([], ["--clamp"]):
            out = tmp_path / ("clamped" if flags else "plain")
            argv = ["filter-table", "--sites", "2", "--out-dir", str(out), "--points", "41"]
            assert main(argv + flags) == 0
            tables[bool(flags)] = [
                np.loadtxt(out / name, delimiter=",", skiprows=1)
                for name in ("filter_freq.csv", "filter_time.csv")
            ]
        (freq, time_tab), (freq_c, time_c) = tables[False], tables[True]
        assert np.array_equal(time_c, time_tab)
        assert np.array_equal(freq_c[:, 0], freq[:, 0])
        upper = freq[:, 0] >= 0
        assert np.all(freq_c[upper, 1] == 0.0) and np.any(freq[upper, 1] != 0.0)
        assert np.array_equal(freq_c[~upper], freq[~upper])
        capsys.readouterr()
        assert main(["jump-report", "--sites", "2", "--clamp"]) == 2
        assert "unrecognized arguments: --clamp" in capsys.readouterr().err

    def test_jump_report_stdout_is_the_metric_table(self, capsys):
        """Without ``--sparsity-out`` the n^2-row |K| table is not written."""
        assert main(["jump-report", "--sites", "2"]) == 0
        out, err = capsys.readouterr()
        names = [line.split(",")[0] for line in out.splitlines()]
        assert names == [
            "metric", "dim", "gap", "norm_a", "norm_k_exact", "norm_k_quadrature",
            "k_minus_ks", "ground_residual_clamped", "ground_residual_unclamped",
        ]
        assert err == ""

    def test_jump_report(self, capsys, tmp_path):
        rc = main(
            ["jump-report", "--model", "tfim", "--sites", "2", "--g", "1.2",
             "--sparsity-out", str(tmp_path / "sparsity.csv")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ground_residual_clamped" in out
        lines = (tmp_path / "sparsity.csv").read_text().splitlines()
        assert lines[0] == "i,j,abs_k"
        assert len(lines) == 17  # 4x4 entries + header

    def test_filter_table_and_jump_report_eigensolve_only_blocks(self, tmp_path, monkeypatch, capsys):
        """On Hubbard-2 both commands eigensolve H one invariant block at a
        time, as ``run`` does, and nothing of the full size 16."""
        import lindbladprep.channel as channel
        import lindbladprep.cli as cli
        import lindbladprep.linalg as linalg

        assert not hasattr(cli, "hermitian_eig")  # a name bound in cli would escape the spy
        assert not hasattr(cli, "restrict")  # jump-report takes each block's A from spectrum
        exact = linalg.hermitian_eig
        solved = []

        def spy(op):
            solved.append(op.matrix)
            return exact(op)

        monkeypatch.setattr(linalg, "hermitian_eig", spy)
        monkeypatch.setattr(channel, "hermitian_eig", spy)
        model = ModelSpec("hubbard1d", 2, hubbard_t=1.0, hubbard_u=4.0)
        h = model.hamiltonian().dense().matrix
        blocks = invariant_blocks(model.hamiltonian(), coupling_operator(model))
        assert len(blocks) == 9
        argv = ["--model", "hubbard1d", "--sites", "2"]
        for command in (["filter-table", *argv, "--out-dir", str(tmp_path)], ["jump-report", *argv]):
            solved.clear()
            assert main(command) == 0
            assert len(solved) == len(blocks)
            for got, idx in zip(solved, blocks):
                assert np.array_equal(got, h[np.ix_(idx, idx)])
        capsys.readouterr()

    def test_filter_table_and_jump_report_take_the_run_filter(self, tmp_path, capsys):
        """On Hubbard-2 both tables are the ones of the filter that a run of
        the same model records in its manifest, byte for byte, and the gap
        row is the manifest's gap."""
        from lindbladprep.filters import FilterParams, f_hat, f_time
        from lindbladprep.plotting import write_csv

        data = tiny_config(tmp_path)
        data["model"] = {"kind": "hubbard1d", "sites": 2, "t": 1.0, "u": 4.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 0
        resolved = json.loads((tmp_path / "run.manifest.json").read_text())["resolved"]
        derived = ("m_half", "grid_radius")
        p = FilterParams(**{k: v for k, v in resolved["filter"].items() if k not in derived})
        argv = ["--model", "hubbard1d", "--sites", "2"]
        assert main(["filter-table", *argv, "--out-dir", str(tmp_path / "tables"), "--points", "41"]) == 0
        omegas = np.linspace(-(p.a + 6 * p.delta_a), 6 * p.delta_b, 41)
        ss = np.linspace(-p.grid_radius, p.grid_radius, 41)
        f = f_time(ss, p)
        write_csv(tmp_path / "freq.csv", ["omega", "f_hat"], zip(omegas.tolist(), f_hat(omegas, p).tolist()))
        write_csv(tmp_path / "time.csv", ["s", "re_f", "im_f"], zip(ss.tolist(), f.real.tolist(), f.imag.tolist()))
        for table, expected in (("filter_freq.csv", "freq.csv"), ("filter_time.csv", "time.csv")):
            assert (tmp_path / "tables" / table).read_bytes() == (tmp_path / expected).read_bytes()
        capsys.readouterr()
        assert main(["jump-report", *argv]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
        assert float(rows["gap"]) == resolved["spectrum"]["gap"]

    @pytest.mark.parametrize(
        "argv, model",
        [
            (["--sites", "4"], ModelSpec("tfim", 4, tfim_g=1.2)),
            (["--model", "hubbard1d", "--sites", "2"], ModelSpec("hubbard1d", 2, hubbard_t=1.0, hubbard_u=4.0)),
        ],
    )
    def test_jump_report_matches_back_transformed_operators(self, capsys, tmp_path, argv, model):
        """The eigenbasis rows and table equal the same quantities taken on
        the jump operators in the computational basis."""
        from lindbladprep.filters import default_params
        from lindbladprep.jump import exact_jump, ground_residual, quadrature_jump
        from lindbladprep.linalg import hermitian_eig

        assert main(["jump-report", *argv, "--sparsity-out", str(tmp_path / "k.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = {name: float(value) for name, value in (line.split(",") for line in lines[1:])}
        spec = hermitian_eig(model.hamiltonian().dense())
        a = coupling_operator(model).dense()
        p = default_params(spec.spectral_norm, spec.gap)
        k, k_quad = exact_jump(spec, a, p), quadrature_jump(spec, a, p)
        k_clamped = exact_jump(spec, a, p.with_clamp(True))
        expect = {
            "dim": spec.dim,
            "gap": spec.gap,
            "norm_a": a.norm(),
            "norm_k_exact": k.norm(),
            "norm_k_quadrature": k_quad.norm(),
            "k_minus_ks": np.linalg.norm(k.matrix - k_quad.matrix, 2),
            "ground_residual_clamped": ground_residual(k_clamped, spec),
            "ground_residual_unclamped": ground_residual(k, spec),
        }
        assert rows.keys() == expect.keys()
        for name, value in expect.items():
            assert abs(rows[name] - value) <= 1e-12, name
        # column 0 of the clamped matrix is exactly zero: fhat vanishes at w >= 0
        assert rows["ground_residual_clamped"] == 0.0
        v = spec.eigenvectors
        table = np.loadtxt(tmp_path / "k.csv", delimiter=",", skiprows=1)
        n = spec.dim
        assert np.array_equal(table[:, :2], np.argwhere(np.ones((n, n))))
        assert np.max(np.abs(table[:, 2] - np.abs(v.conj().T @ k_clamped.matrix @ v).ravel())) <= 1e-12
        # the text is what one csv row per entry with repr'd floats writes
        with open(tmp_path / "k.csv", newline="") as fh:
            text = fh.read()
        assert text == "i,j,abs_k\r\n" + "".join(f"{int(i)},{int(j)},{x!r}\r\n" for i, j, x in table.tolist())

    def test_jump_report_rows_match_the_dense_oracle_on_hubbard4(self, capsys):
        """Hubbard-4 has 25 blocks: the rows taken block by block equal the
        ones of the jump operators built on the full space.  Its |K| table is
        left out, as a dense eigensolve picks another basis inside degenerate
        levels."""
        from lindbladprep.filters import default_params
        from lindbladprep.jump import exact_jump, ground_residual, quadrature_jump
        from lindbladprep.linalg import hermitian_eig

        model = ModelSpec("hubbard1d", 4, hubbard_t=1.0, hubbard_u=4.0)
        assert len(invariant_blocks(model.hamiltonian(), coupling_operator(model))) == 25
        a = coupling_operator(model).dense()
        assert main(["jump-report", "--model", "hubbard1d", "--sites", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = {name: float(value) for name, value in (line.split(",") for line in lines[1:])}
        spec = hermitian_eig(model.hamiltonian().dense())
        p = default_params(spec.spectral_norm, spec.gap)
        k, k_quad = exact_jump(spec, a, p), quadrature_jump(spec, a, p)
        expect = {
            "dim": spec.dim,
            "gap": spec.gap,
            "norm_a": a.norm(),
            "norm_k_exact": k.norm(),
            "norm_k_quadrature": k_quad.norm(),
            "k_minus_ks": np.linalg.norm(k.matrix - k_quad.matrix, 2),
            "ground_residual_clamped": ground_residual(exact_jump(spec, a, p.with_clamp(True)), spec),
            "ground_residual_unclamped": ground_residual(k, spec),
        }
        assert rows.keys() == expect.keys()
        for name, value in expect.items():
            assert abs(rows[name] - value) <= 1e-12, name

    def test_jump_report_takes_no_full_size_norm(self, tmp_path, monkeypatch, capsys):
        """On Hubbard-2 (dim 16, blocks of at most 4) no matrix whose norm
        ``jump-report`` takes is larger than the largest block, with the
        ``|K|`` table written too."""
        model = ModelSpec("hubbard1d", 2, hubbard_t=1.0, hubbard_u=4.0)
        blocks = invariant_blocks(model.hamiltonian(), coupling_operator(model))
        largest = max(idx.size for idx in blocks)
        assert largest == 4
        exact = np.linalg.norm
        shapes = []

        def spy(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return exact(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        argv = ["--model", "hubbard1d", "--sites", "2", "--sparsity-out", str(tmp_path / "k.csv")]
        assert main(["jump-report", *argv]) == 0
        assert max(max(shape) for shape in shapes if len(shape) == 2) == largest
        capsys.readouterr()

    def test_failed_table_write_leaves_no_new_file(self, tmp_path, monkeypatch, capsys):
        """A table writer that raises leaves neither the table nor the
        directories made for it."""
        import lindbladprep.cli as cli

        def broken(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_csv", broken)
        argv = ["jump-report", "--sites", "2", "--sparsity-out", str(tmp_path / "new/dir/k.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(tmp_path.iterdir()) == []

    def test_verify_fast_cli(self, tmp_path):
        report = tmp_path / "report.json"
        assert main(["verify", "fast", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["passed"] is True
        assert data["n_failed"] == 0
        assert all("detail" in c for c in data["checks"])


# argv of an auxiliary command on a bad number, CSV or path, and its exit code;
# {tmp} holds dir/ (a directory), file (a regular file), good.csv, bad.csv
# (a non-numeric cell), short.csv (a short row), random.csv (300 random
# bytes, not UTF-8), wide.csv (a cell beyond the csv module's field limit),
# r\xff.csv (a good CSV whose name is not UTF-8) and blocked/filter_time.csv
# (a directory); "--flag=" gives an empty path
BAD_AUX = [
    ("filter-table --sites 2 --g nan --out-dir {tmp}/tables", 2),
    ("jump-report --sites 2 --g inf", 2),
    ("filter-table --sites 2 --g 1e150 --out-dir {tmp}/tables", 2),
    ("jump-report --sites 2 --g 1e200", 2),
    ("filter-table --sites 2 --g 1e308 --out-dir {tmp}/tables", 2),
    ("jump-report --model tfim --sites 2 --u 9", 2),
    ("plot {tmp}/bad.csv --kind energy-time --out {tmp}/p.svg", 2),
    ("plot {tmp}/short.csv --kind energy-time --out {tmp}/p.svg", 2),
    ("plot {tmp}/nan.csv --kind energy-time --out {tmp}/p.svg", 2),
    ("plot {tmp}/inf.csv --kind energy-time --out {tmp}/p.svg", 2),
    ("plot {tmp}/random.csv --kind energy-time --out {tmp}/p.svg", 2),
    ("plot {tmp}/wide.csv --kind energy-time --out {tmp}/p.svg", 2),
    ("plot {tmp}/dir --kind energy-time --out {tmp}/p.svg", 1),
    ("plot {tmp}/good.csv --kind energy-time --out {tmp}/dir", 1),
    ("filter-table --sites 2 --out-dir {tmp}/file", 1),
    ("jump-report --sites 2 --sparsity-out {tmp}/dir", 1),
    ("jump-report --sites 2 --sparsity-out {tmp}/fifo", 1),
    ("filter-table --sites 2 --out-dir {tmp}/blocked", 1),
    ("plot {tmp}/good.csv --kind energy-time --out=", 2),
    ("filter-table --sites 2 --out-dir=", 2),
    ("jump-report --sites 2 --sparsity-out=", 2),
    ("verify fast --report=", 2),
    ("verify fast --report {tmp}/dir", 1),
    ("plot {tmp}/good.csv --kind energy-time --out {tmp}/p.svg --label a\x01b", 2),
    ("plot {tmp}/r\udcff.csv --kind energy-time --out {tmp}/p.svg", 2),
    # refused before any allocation: 16 bytes a point, for the two grids, is more than any
    # machine's memory
    ("filter-table --sites 2 --points 4611686018427387904 --out-dir {tmp}/tables", 2),
]


class TestBadAuxInput:
    @pytest.mark.parametrize(
        "argv, code",
        BAD_AUX,
        ids=[
            "filter-table-g-nan", "jump-report-g-inf", "filter-table-g-1e150",
            "jump-report-g-1e200", "filter-table-g-1e308", "jump-report-u-for-tfim", "plot-non-numeric-cell",
            "plot-short-row", "plot-nan-cell", "plot-inf-cell", "plot-not-utf8", "plot-field-too-large",
            "plot-csv-is-directory", "plot-out-is-directory",
            "filter-table-out-dir-is-file", "jump-report-sparsity-out-is-directory",
            "jump-report-sparsity-out-is-fifo",
            "filter-table-time-csv-is-directory", "plot-out-empty", "filter-table-out-dir-empty",
            "jump-report-sparsity-out-empty", "verify-report-empty", "verify-report-is-directory",
            "plot-label-not-xml", "plot-csv-stem-not-utf8", "filter-table-points-too-many",
        ],
    )
    def test_one_error_line(self, tmp_path, monkeypatch, capsys, argv, code):
        """One error line and nothing on stdout: each input is refused before
        any computation, and no command leaves a new file or directory, also in
        the working directory, or replaces a FIFO by a regular file."""
        (tmp_path / "dir").mkdir()
        os.mkfifo(tmp_path / "fifo")
        (tmp_path / "blocked" / "filter_time.csv").mkdir(parents=True)
        (tmp_path / "file").write_text("a regular file\n")
        header = ",".join(read_columns())
        (tmp_path / "good.csv").write_text(f"{header}\n0,0.0,0.0,0,1.0,0.0,0.5,0.0\n")
        (tmp_path / "r\udcff.csv").write_bytes((tmp_path / "good.csv").read_bytes())
        (tmp_path / "bad.csv").write_text(f"{header}\n0,0.0,0.0,0,x,0.0,0.5,0.0\n")
        (tmp_path / "short.csv").write_text(f"{header}\n0,0.0,0.0,0\n")
        (tmp_path / "nan.csv").write_text(f"{header}\n0,0.0,0.0,0,nan,0.0,0.5,0.0\n")
        rows = "0,0.0,0.0,0,1.0,0.0,0.5,0.0\n1,inf,0.0,0,1.0,0.0,0.5,0.0\n"
        (tmp_path / "inf.csv").write_text(f"{header}\n{rows}")
        (tmp_path / "random.csv").write_bytes(np.random.default_rng(0).bytes(300))
        (tmp_path / "wide.csv").write_text(f"{header}\n0,0.0,0.0,0,1.0,0.0,0.5,{'0' * 200_000}\n")
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.chdir(tmp_path)
        out = assert_one_error_line(capsys, argv.format(tmp=tmp_path).split(), code)
        assert out == ""
        assert sorted(tmp_path.rglob("*")) == before
        assert stat.S_ISFIFO((tmp_path / "fifo").stat().st_mode)


class TestExitCodeMap:
    def test_main_maps_each_error_to_its_exit_code(self, monkeypatch, capsys):
        """A command raises; ``main`` alone prints the one ``error:`` line and
        picks the exit code: 2 for invalid input, 1 for a runtime failure."""
        import lindbladprep.cli as cli
        from lindbladprep.channel import ChannelError
        from lindbladprep.linalg import LinalgError

        for exc, code in [
            (ConfigError("bad input"), 2),
            (PlotError("render failed"), 1),
            (ChannelError("step failed"), 1),
            (LinalgError("eigensolve failed"), 1),
            (OSError("disk full"), 1),
            (MemoryError("cannot allocate the state"), 1),
            (MemoryError(), 1),  # no text: the line names the exception
        ]:
            def failing(args, exc=exc):
                raise exc

            monkeypatch.setattr(cli, "cmd_verify", failing)
            assert main(["verify"]) == code, exc
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {str(exc) or type(exc).__name__}\n"


class TestMutationHarness:
    def test_corrupted_weights_detected(self):
        """A sign error injected into the trapezoid weights (negative-l half
        of the grid mishandled) must trip the quadrature-convergence check."""
        from lindbladprep.filters import default_params, quadrature_grid
        from lindbladprep.linalg import hermitian_eig
        from lindbladprep.models import build_tfim
        from lindbladprep.verify import quadrature_convergence_check

        ok, _ = quadrature_convergence_check()
        assert ok
        spec = hermitian_eig(build_tfim(2, 1.2).dense())
        p = default_params(spec.spectral_norm, spec.gap)
        nodes, weights = quadrature_grid(p)
        corrupted = np.where(nodes < 0, -weights, weights)
        bad_ok, detail = quadrature_convergence_check(grid=(nodes, corrupted))
        assert not bad_ok, detail
