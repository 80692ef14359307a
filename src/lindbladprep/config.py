"""Run-configuration schema: JSON in, fully resolved manifest out.

A run config has three blocks plus output paths::

    {
      "model":   {"kind": "tfim", "sites": 4, "g": 1.2},
      "filter":  {"clamp_nonnegative": false},          # optional overrides
      "channel": {"mode": "continuous", "tau": 0.1, "total_time": 80.0,
                  "r": 1, "include_coherent": true, "backend": "trajectory",
                  "reps": 100, "seed": 7,
                  "initial_state": "highest_excited", "record_stride": 1},
      "output":  {"csv": "run.csv", "manifest": "run.json", "plots": null}
    }

Validation is strict: unknown keys anywhere are rejected, and every
physical default the run resolves (filter shape, quadrature grid, spectrum
data) is echoed back in the manifest so a run can be reproduced from its
outputs alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .channel import ChannelConfig
from .filters import FilterParams, default_params
from .models import ModelSpec

__all__ = ["ConfigError", "RunConfig", "load_run_config", "resolve_filter_params"]


class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 2."""


_MODEL_KEYS = {"kind", "sites", "g", "t", "u"}
_FILTER_KEYS = {"a", "delta_a", "b", "delta_b", "s_radius", "tau_s", "clamp_nonnegative"}
_CHANNEL_KEYS = {
    "mode",
    "tau",
    "total_time",
    "r",
    "include_coherent",
    "backend",
    "reps",
    "seed",
    "initial_state",
    "record_stride",
}
_OUTPUT_KEYS = {"csv", "manifest", "plots"}
_TOP_KEYS = {"model", "filter", "channel", "output"}


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where!r} block")


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing required key {key!r} in {where!r} block")
    return block[key]


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    filter_overrides: dict
    channel: ChannelConfig
    csv_path: str
    manifest_path: str
    plots_dir: str | None


def _parse_model(block) -> ModelSpec:
    if not isinstance(block, dict):
        raise ConfigError("'model' must be an object")
    _reject_unknown(block, _MODEL_KEYS, "model")
    kind = _require(block, "kind", "model")
    sites = _typed("model.sites", _require(block, "sites", "model"), "integer")

    def number(key: str) -> float:
        return float(_typed(f"model.{key}", _require(block, key, "model"), "number"))

    try:
        if kind == "tfim":
            if "t" in block or "u" in block:
                raise ConfigError("model keys 't'/'u' only apply to hubbard1d")
            return ModelSpec("tfim", sites, tfim_g=number("g"))
        if kind == "hubbard1d":
            if "g" in block:
                raise ConfigError("model key 'g' only applies to tfim")
            return ModelSpec("hubbard1d", sites, hubbard_t=number("t"), hubbard_u=number("u"))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model block: {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")


def _parse_filter(block) -> dict:
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ConfigError("'filter' must be an object")
    _reject_unknown(block, _FILTER_KEYS, "filter")
    out = {}
    for key, val in block.items():
        if key == "clamp_nonnegative":
            out[key] = _typed(f"filter.{key}", val, "boolean")
        else:
            out[key] = float(_typed(f"filter.{key}", val, "number"))
    return out


def _typed(name: str, val, kind: str):
    """``val``, the value of the config field ``name`` ("block.key"), if it
    is a JSON value of ``kind``: "integer" or "number" (a bool is neither)
    or "boolean"."""
    if kind == "boolean":
        ok = isinstance(val, bool)
    else:
        types = int if kind == "integer" else (int, float)
        ok = isinstance(val, types) and not isinstance(val, bool)
    if not ok:
        raise ConfigError(f"{name} must be a JSON {kind}, got {json.dumps(val)}")
    return val


def _parse_channel(block) -> ChannelConfig:
    if not isinstance(block, dict):
        raise ConfigError("'channel' must be an object")
    _reject_unknown(block, _CHANNEL_KEYS, "channel")
    try:
        return ChannelConfig(
            tau=float(_typed("channel.tau", _require(block, "tau", "channel"), "number")),
            total_time=float(
                _typed("channel.total_time", _require(block, "total_time", "channel"), "number")
            ),
            mode=block.get("mode", "continuous"),
            r=_typed("channel.r", block.get("r", 1), "integer"),
            include_coherent=_typed(
                "channel.include_coherent", block.get("include_coherent", True), "boolean"
            ),
            backend=block.get("backend", "trajectory"),
            reps=_typed("channel.reps", block.get("reps", 1), "integer"),
            seed=_typed("channel.seed", block.get("seed", 0), "integer"),
            initial_state=block.get("initial_state", "highest_excited"),
            record_stride=_typed(
                "channel.record_stride", block.get("record_stride", 1), "integer"
            ),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid channel block: {exc}") from exc


def _parse_output(block) -> tuple[str, str, str | None]:
    if not isinstance(block, dict):
        raise ConfigError("'output' must be an object")
    _reject_unknown(block, _OUTPUT_KEYS, "output")
    csv_path = _require(block, "csv", "output")
    manifest = _require(block, "manifest", "output")
    plots = block.get("plots")
    if not isinstance(csv_path, str) or not isinstance(manifest, str):
        raise ConfigError("output.csv and output.manifest must be strings")
    if plots is not None and not isinstance(plots, str):
        raise ConfigError("output.plots must be a string or null")
    return csv_path, manifest, plots


def parse_run_config(data) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(data, _TOP_KEYS, "top-level")
    model = _parse_model(_require(data, "model", "top-level"))
    filt = _parse_filter(data.get("filter"))
    channel = _parse_channel(_require(data, "channel", "top-level"))
    csv_path, manifest, plots = _parse_output(_require(data, "output", "top-level"))
    if channel.eigenstate_index is not None and channel.eigenstate_index >= model.dim:
        raise ConfigError(
            f"channel.initial_state {channel.initial_state!r} is out of range: "
            f"the model has {model.dim} eigenstates (indices 0..{model.dim - 1})"
        )
    return RunConfig(model, filt, channel, csv_path, manifest, plots)


def load_run_config(path: str | Path) -> RunConfig:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_run_config(data)


def resolve_filter_params(overrides: dict, norm_h: float, gap: float) -> FilterParams:
    """Apply the parameter rule, then any explicit overrides."""
    if not overrides or set(overrides) == {"clamp_nonnegative"}:
        return default_params(norm_h, gap, clamp=overrides.get("clamp_nonnegative", False))
    if gap > 0:
        base = default_params(norm_h, gap)
        fields = {
            "a": base.a,
            "delta_a": base.delta_a,
            "b": base.b,
            "delta_b": base.delta_b,
            "s_radius": base.s_radius,
            "tau_s": base.tau_s,
            "clamp_nonnegative": base.clamp_nonnegative,
        }
    else:
        # Degenerate ground space: no rule-based defaults, everything must
        # be supplied explicitly.
        needed = {"a", "delta_a", "b", "delta_b", "s_radius", "tau_s"}
        if not needed <= set(overrides):
            raise ConfigError(
                "spectrum has no gap; supply explicit filter parameters "
                f"({sorted(needed - set(overrides))} missing)"
            )
        fields = {"clamp_nonnegative": False}
    fields.update(overrides)
    try:
        return FilterParams(**fields)
    except ValueError as exc:
        raise ConfigError(f"invalid filter parameters: {exc}") from exc


def manifest_dict(run: RunConfig, record_meta: dict) -> dict:
    """Everything needed to reproduce the run, with all defaults resolved."""
    model = {"kind": run.model.kind, "sites": run.model.sites}
    if run.model.kind == "tfim":
        model["g"] = run.model.tfim_g
    else:
        model["t"] = run.model.hubbard_t
        model["u"] = run.model.hubbard_u
    return {
        "model": model,
        "filter_overrides": dict(run.filter_overrides),
        "resolved": record_meta,
        "output": {
            "csv": run.csv_path,
            "manifest": run.manifest_path,
            "plots": run.plots_dir,
        },
    }
