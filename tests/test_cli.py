import json

import numpy as np
import pytest

from lindbladprep.channel import ChannelConfig, run_simulation
from lindbladprep.cli import main
from lindbladprep.config import ConfigError, load_run_config, parse_run_config, resolve_filter_params
from lindbladprep.models import ModelSpec, coupling_operator
from lindbladprep.plotting import (
    PlotError,
    read_timeseries,
    render_plot,
    write_timeseries_csv,
)


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

    def test_malformed_config_exit_2_no_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{ not json")
        assert main(["run", str(cfg_path)]) == 2
        assert not (tmp_path / "run.csv").exists()
        assert "line" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

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
        assert np.array_equal(solved[0], model.hamiltonian().matrix)
        assert np.array_equal(solved[1], coupling_operator(model).matrix)

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

    def test_last_eigenstate_index_accepted(self, tmp_path):
        data = tiny_config(tmp_path, initial_state="eigenstate:3")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 0

    @pytest.mark.parametrize("backend", ["density", "trajectory"])
    def test_manifest_records_kraus_isometry_defect(self, tmp_path, backend):
        data = tiny_config(tmp_path, backend=backend, reps=2)
        data["model"]["sites"] = 4
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert 0.0 <= manifest["resolved"]["health"]["kraus_isometry_defect"] <= 1e-10

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
        data = tiny_config(tmp_path)
        data["output"]["plots"] = str(tmp_path / "plots")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "plots" / "overlap-time.svg").exists()


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

    def test_plot_cli_exit_codes(self, tmp_path):
        path = self.make_csv(tmp_path)
        out = tmp_path / "p.svg"
        assert main(["plot", str(path), "--kind", "energy-time", "--out", str(out)]) == 0
        assert out.exists()
        empty = tmp_path / "none.csv"
        empty.write_text("")
        assert main(["plot", str(empty), "--kind", "energy-time", "--out", str(out)]) == 2


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

    def test_verify_fast_cli(self, tmp_path):
        report = tmp_path / "report.json"
        assert main(["verify", "fast", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["passed"] is True
        assert data["n_failed"] == 0
        assert all("detail" in c for c in data["checks"])


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
        spec = hermitian_eig(build_tfim(2, 1.2))
        p = default_params(spec.spectral_norm, spec.gap)
        nodes, weights = quadrature_grid(p)
        corrupted = np.where(nodes < 0, -weights, weights)
        bad_ok, detail = quadrature_convergence_check(grid=(nodes, corrupted))
        assert not bad_ok, detail
