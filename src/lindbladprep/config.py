"""Run-configuration schema: JSON in, fully resolved manifest out.

A run config has three blocks plus output paths::

    {
      "model":   {"kind": "tfim", "sites": 4, "g": 1.2},
      "filter":  {"tau_s": 0.05},                       # optional overrides
      "channel": {"mode": "continuous", "tau": 0.1, "total_time": 80.0,
                  "r": 1, "include_coherent": true, "backend": "trajectory",
                  "reps": 100, "seed": 7,
                  "initial_state": "highest_excited", "record_stride": 1},
      "output":  {"csv": "run.csv", "manifest": "run.json", "plots": null}
    }

The accepted keys, JSON types, required keys and defaults of the
``channel`` and ``filter`` blocks are the fields of ``ChannelConfig`` and
``FilterParams``; the model couplings of each kind are ``MODEL_PARAMS``.

Validation is strict: unknown keys anywhere are rejected, and every
physical default the run resolves (filter shape, quadrature grid, spectrum
data) is echoed back in the manifest so a run can be reproduced from its
outputs alone.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .channel import ChannelConfig
from .filters import MIN_GAP, FilterParams, default_params
from .models import MODEL_PARAMS, ModelSpec
from .plotting import PLOT_KINDS, not_xml_text

__all__ = ["ConfigError", "RunConfig", "load_run_config", "resolve_filter_params"]


class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 2."""


# JSON kind of a dataclass field by its annotation; a str is left to the class
_JSON_KINDS = {"int": "integer", "float": "number", "bool": "boolean"}


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

    @property
    def output_paths(self) -> list[Path]:
        """The CSV, the manifest and one SVG per plot kind, in that order."""
        svgs = [] if self.plots_dir is None else [Path(self.plots_dir) / f"{k}.svg" for k in PLOT_KINDS]
        return [Path(self.csv_path), Path(self.manifest_path), *svgs]


def _typed(name: str, val, kind: str):
    """``val``, the value of the config field ``name`` ("block.key"), if it
    is a JSON value of ``kind``: "integer" or "number" (a bool is neither)
    or "boolean"; a number is returned as a ``float``."""
    if kind == "boolean":
        ok = isinstance(val, bool)
    else:
        types = int if kind == "integer" else (int, float)
        ok = isinstance(val, types) and not isinstance(val, bool)
    if not ok:
        raise ConfigError(f"{name} must be a JSON {kind}, got {json.dumps(val)}")
    try:
        return float(val) if kind == "number" else val
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigError(f"{name} is out of the float range") from None


def _required(cls) -> list[str]:
    """The fields of dataclass ``cls`` that its constructor needs."""
    return [f.name for f in fields(cls) if f.init and f.default is MISSING]


def _dataclass_block(cls, block, where: str, *, partial: bool = False) -> dict:
    """The keyword arguments for dataclass ``cls`` in config block ``where``:
    its keys, JSON types and required keys (unless ``partial``) are those
    of ``cls``'s fields, and a key left out keeps the field's default."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where!r} must be an object")
    kinds = {f.name: _JSON_KINDS.get(f.type) for f in fields(cls) if f.init}
    _reject_unknown(block, set(kinds), where)
    for key in [] if partial else _required(cls):
        _require(block, key, where)
    return {k: _typed(f"{where}.{k}", v, kinds[k]) if kinds[k] else v for k, v in block.items()}


def _parse_model(block) -> ModelSpec:
    if not isinstance(block, dict):
        raise ConfigError("'model' must be an object")
    _reject_unknown(block, {"kind", "sites"}.union(*MODEL_PARAMS.values()), "model")
    kind = _require(block, "kind", "model")
    sites = _typed("model.sites", _require(block, "sites", "model"), "integer")
    if not isinstance(kind, str) or kind not in MODEL_PARAMS:
        raise ConfigError(f"unknown model kind {kind!r}")
    for other, keys in MODEL_PARAMS.items():
        if other != kind and keys.keys() & block.keys():
            noun, verb = ("keys", "apply") if len(keys) > 1 else ("key", "applies")
            raise ConfigError(f"model {noun} {'/'.join(map(repr, keys))} only {verb} to {other}")
    couplings = {
        name: _typed(f"model.{key}", _require(block, key, "model"), "number")
        for key, name in MODEL_PARAMS[kind].items()
    }
    try:
        return ModelSpec(kind, sites, **couplings)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model block: {exc}") from exc


def _parse_output(block) -> tuple[str, str, str | None]:
    if not isinstance(block, dict):
        raise ConfigError("'output' must be an object")
    _reject_unknown(block, {"csv", "manifest", "plots"}, "output")
    csv_path = _require(block, "csv", "output")
    manifest = _require(block, "manifest", "output")
    plots = block.get("plots")
    if not isinstance(csv_path, str) or not isinstance(manifest, str):
        raise ConfigError("output.csv and output.manifest must be strings")
    if plots is not None and not isinstance(plots, str):
        raise ConfigError("output.plots must be a string or null")
    for key, path in (("csv", csv_path), ("manifest", manifest), ("plots", plots)):
        output_path(f"output.{key}", path)
    stem = Path(csv_path).stem
    if plots is not None and not_xml_text(stem):
        raise ConfigError(
            f"output.csv stem {stem!r}, the plots' legend label, holds a character "
            "that XML 1.0 cannot carry"
        )
    return csv_path, manifest, plots


def output_path(name: str, path: str | None) -> Path | None:
    """The output path ``name`` as a ``Path`` (None stays None); an empty one,
    which names the working directory, is refused."""
    if path == "":
        raise ConfigError(f"{name} must not be empty")
    return None if path is None else Path(path)


def parse_run_config(data) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(data, {"model", "filter", "channel", "output"}, "top-level")
    model = _parse_model(_require(data, "model", "top-level"))
    filt = data.get("filter")
    filt = {} if filt is None else _dataclass_block(FilterParams, filt, "filter", partial=True)
    if filt.get("clamp_nonnegative"):
        raise ConfigError("filter.clamp_nonnegative must be false: the circuit samples unclamped f(s)")
    channel = _dataclass_block(ChannelConfig, _require(data, "channel", "top-level"), "channel")
    try:
        channel = ChannelConfig(**channel)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid channel block: {exc}") from exc
    csv_path, manifest, plots = _parse_output(_require(data, "output", "top-level"))
    try:
        channel.initial_level(model.dim)
    except ValueError as exc:
        raise ConfigError(f"channel.{exc}") from exc
    run = RunConfig(model, filt, channel, csv_path, manifest, plots)
    real = [path.resolve() for path in run.output_paths]
    for path in real:
        if real.count(path) > 1:
            raise ConfigError(f"two outputs of the run resolve to the same path {str(path)!r}")
    return run


def load_run_config(path: str | Path) -> RunConfig:
    """The run config in file ``path``; a missing file and any fault of its
    text or content, such as a NUL byte in a path, are a ``ConfigError``."""
    try:
        return parse_run_config(json.loads(Path(path).read_text(encoding="utf-8")))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ConfigError(f"{path}: malformed JSON: nested too deeply") from None
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def resolve_filter_params(overrides: dict, norm_h: float, gap: float) -> FilterParams:
    """Apply the parameter rule, then any explicit overrides.

    Without a gap (``gap <= MIN_GAP``) the rule has no defaults, so every
    filter parameter must be supplied; otherwise this raises ``ConfigError``.
    """
    missing = [key for key in _required(FilterParams) if key not in overrides]
    if gap <= MIN_GAP and missing:
        raise ConfigError(
            f"spectrum has no gap (ground-level spacing {gap:.3g} <= {MIN_GAP:g}); "
            f"supply explicit filter parameters ({sorted(missing)} missing)"
        )
    try:
        if gap > MIN_GAP:
            return replace(default_params(norm_h, gap), **overrides)
        return FilterParams(**overrides)
    except ValueError as exc:
        raise ConfigError(f"invalid filter parameters: {exc}") from exc


def manifest_dict(run: RunConfig, record_meta: dict) -> dict:
    """Everything needed to reproduce the run, with all defaults resolved."""
    return {
        "model": {"kind": run.model.kind, "sites": run.model.sites, **run.model.params},
        "filter_overrides": dict(run.filter_overrides),
        "resolved": record_meta,
        "output": {
            "csv": run.csv_path,
            "manifest": run.manifest_path,
            "plots": run.plots_dir,
        },
    }
