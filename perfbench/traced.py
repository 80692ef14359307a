"""Traced child: run one workload with spans around the calls into each layer.

Usage::

    python3 perfbench/traced.py RUN_ID SPANS.json run CONFIG.json
    python3 perfbench/traced.py RUN_ID SPANS.json rc SPEC.json

with ``src`` on ``PYTHONPATH``.  The program itself is not edited: each
public function is replaced, at the name its caller resolves, by a wrapper
that records a span.  ``from .x import y`` copies the binding, so a
function is wrapped in every module that calls it.  Spans stay in memory
and are written to SPANS.json when the run ends, together with the names
that could not be wrapped (a later version may have removed or renamed
them).
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from pathlib import Path

# (module, attribute path, span name).  The span name is the layer that
# owns the function; the module is the one whose global the caller reads.
TARGETS = [
    ("cli", "run_simulation", "channel.run_simulation"),
    ("cli", "load_run_config", "config.load_run_config"),
    ("cli", "write_timeseries_csv", "plotting.write_timeseries_csv"),
    ("cli", "render_plot", "plotting.render_plot"),
    ("channel", "build_w", "channel.build_w"),
    ("channel", "hermitian_eig", "linalg.hermitian_eig"),
    ("channel", "trajectory_step", "channel.trajectory_step"),
    ("channel", "channel_step_density", "channel.channel_step_density"),
    ("channel", "coupling_operator", "models.coupling_operator"),
    # RunConfig.resolved_filter imports it at call time
    ("linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("models", "ModelSpec.hamiltonian", "models.hamiltonian"),
    ("randomcoupling", "ergodicity_experiment", "randomcoupling.ergodicity_experiment"),
    ("randomcoupling", "sample_coupling", "randomcoupling.sample_coupling"),
    ("randomcoupling", "exact_jump", "jump.exact_jump"),
    ("randomcoupling", "evolve_ode", "reference.evolve_ode"),
    ("jump", "f_hat", "filters.f_hat"),
]

# spans that also record the growth of the process's peak RSS
RSS_SPANS = {"channel.build_w"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder.  A span is ``[name, start, end, parent, rss_growth_mb]``
    with ``parent`` the index of the enclosing span or -1."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.missing: dict[str, str] = {}  # binding -> span name
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        track_rss = name in RSS_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _maxrss_mb() if track_rss else 0.0
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if track_rss:
                    span[4] = _maxrss_mb() - rss0

        return traced

    def install(self, targets=TARGETS, package: str = "lindbladprep") -> None:
        # import every module first, so that no module copies a binding that
        # was already wrapped and the traced names do not depend on the order
        modules = {}
        for module_name in dict.fromkeys(t[0] for t in targets):
            try:
                modules[module_name] = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                pass
        for module_name, attr_path, span_name in targets:
            binding = f"{module_name}.{attr_path}"
            try:
                owner = modules[module_name]
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (KeyError, AttributeError):
                self.missing[binding] = span_name
                print(f"perfbench: warning: cannot trace {binding}; its metrics are omitted",
                      file=sys.stderr)
                continue
            setattr(owner, attr, self.wrap(span_name, fn))

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"run_id": self.run_id, "missing": self.missing, "spans": self.spans})
        )


def main(argv: list[str]) -> int:
    run_id, spans_path, kind, arg = argv
    tracer = Tracer(run_id)
    tracer.install()
    try:
        if kind == "run":
            from lindbladprep import cli

            return cli.main(["run", arg])
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import rc_child

        return rc_child.main(arg)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
