"""The repository benchmark: one workload per invocation, metrics as JSON.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics.  After one untimed child
that imports the package (it compiles the bytecode and warms the file
cache), it repeats, within ``--seconds`` (and at least once), the whole
workload in a fresh child process (``wall_s``, mean of the repeats;
``peak_rss_mb``, median; ``steps_per_s``, the evolution steps of the
workload per second of ``wall_s``), and up to five times the workload cut
to one evolution step (``setup_s``, median).  Before every child it times
a fixed pure-Python loop; for the interpreter-bound workloads the times
are divided by how much slower than the reference that loop ran during
the run (see ``Session.measure``).
``--trace 1`` runs the whole workload once with spans around the calls into
each layer (``traced.py``) and once without, and reports the per-layer
metrics and the tracing overhead.

Every child runs with ``src`` on ``PYTHONPATH``, one trajectory worker
(``LINDBLADPREP_WORKERS=1``) and at most two BLAS threads.  A child counts
as a failed operation when it exits nonzero, when the workload's gate
rejects its outputs, or when its outputs differ from an earlier child's with
the same seed.  The last line of standard output is the result object;
the line before it holds the environment, the problem size and the output
hash.  The exit code is 0 only when no operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# A run must end well inside three minutes: no repeat starts unless the
# previous one would still fit before this many seconds.
RUN_BUDGET_S = 150.0
SETUP_SAMPLES = 5
# host-speed probe: a block of PROBES_PER_BLOCK loops before every child.
# The reference is the probe's time on an uncontended CPU of the reference
# box (a 2-vCPU Xeon VM, Python 3.11); it only sets the scale of the
# reported times.
PROBE_ITERATIONS = 300_000
PROBES_PER_BLOCK = 15
REFERENCE_PROBE_S = 0.020
# fixed so that results from bigger machines stay comparable, and never
# more than the cores: BLAS threads that outnumber them thrash
MAX_BLAS_THREADS = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}

# (metric, span name, statistic, unit); the statistics are defined in
# layer_metrics()
LAYER_METRICS = [
    ("channel.build_w.s", "channel.build_w", "total_s", "s"),
    ("channel.build_w.rss_growth_mb", "channel.build_w", "rss_mb", "MB"),
    ("channel.trajectory_step.calls", "channel.trajectory_step", "calls", "count"),
    ("channel.trajectory_step.p50_us", "channel.trajectory_step", "p50", "us"),
    ("channel.trajectory_step.p99_us", "channel.trajectory_step", "p99", "us"),
    ("channel.channel_step_density.calls", "channel.channel_step_density", "calls", "count"),
    ("channel.channel_step_density.p50_ms", "channel.channel_step_density", "p50", "ms"),
    ("channel.channel_step_density.p99_ms", "channel.channel_step_density", "p99", "ms"),
    ("channel.run_simulation.s", "channel.run_simulation", "total_s", "s"),
    ("linalg.hermitian_eig.calls", "linalg.hermitian_eig", "calls", "count"),
    ("linalg.hermitian_eig.s", "linalg.hermitian_eig", "total_s", "s"),
    ("models.hamiltonian.s", "models.hamiltonian", "total_s", "s"),
    ("models.coupling_operator.s", "models.coupling_operator", "total_s", "s"),
    ("config.load_run_config.s", "config.load_run_config", "total_s", "s"),
    ("plotting.write_timeseries_csv.s", "plotting.write_timeseries_csv", "total_s", "s"),
    ("plotting.render_plot.calls", "plotting.render_plot", "calls", "count"),
    ("plotting.render_plot.s", "plotting.render_plot", "total_s", "s"),
    ("reference.evolve_ode.calls", "reference.evolve_ode", "calls", "count"),
    ("reference.evolve_ode.p50_us", "reference.evolve_ode", "p50", "us"),
    ("randomcoupling.sample_coupling.calls", "randomcoupling.sample_coupling", "calls", "count"),
    ("randomcoupling.sample_coupling.p50_us", "randomcoupling.sample_coupling", "p50", "us"),
    (
        "randomcoupling.ergodicity_experiment.s",
        "randomcoupling.ergodicity_experiment",
        "total_s",
        "s",
    ),
    ("jump.exact_jump.calls", "jump.exact_jump", "calls", "count"),
    ("jump.exact_jump.p50_us", "jump.exact_jump", "p50", "us"),
    ("filters.f_hat.calls", "filters.f_hat", "calls", "count"),
    ("filters.f_hat.p50_us", "filters.f_hat", "p50", "us"),
]
TIME_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


def sha256_of(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def host_probe() -> float:
    """Seconds of a fixed pure-Python loop: the benchmark's own measure of
    how fast the host runs interpreted code at the moment."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def spawn(argv: list[str], env: dict, cwd: Path, log: Path, timeout: float) -> Child:
    """Run one child to completion; wall time from start to exit, and the
    peak RSS of that child alone (``wait4``)."""
    with open(log, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, log.read_text().strip()[-400:])


class Session:
    """One invocation: a workload, its inputs and the failure tally."""

    def __init__(self, root: Path, workload, seed: int, smoke: bool, workdir: Path):
        self.root = root
        self.w = workload
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.walls: list[tuple[str, float]] = []
        self.probes: list[float] = []
        self.started = time.perf_counter()
        self.env = child_env(root)

    def remaining(self) -> float:
        return max(5.0, RUN_BUDGET_S - (time.perf_counter() - self.started))

    def child(self, argv: list[str], tag: str, *, full: bool) -> Child:
        """Spawn one operation, gate it and count it."""
        if full:
            shutil.rmtree(self.workdir / "full", ignore_errors=True)
        run = spawn(argv, self.env, self.root, self.workdir / f"{tag}.log", self.remaining())
        self.attempted += 1
        self.walls.append((tag, run.wall_s))
        problems = []
        if run.returncode != 0:
            problems.append(f"exit code {run.returncode}: {run.stderr}")
        elif full:
            try:
                problems += self.w.check(self.workdir)
                digest = sha256_of(self.w.outputs(self.workdir))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable outputs: {exc!r}")
            else:
                if self.digest is None:
                    self.digest = digest
                elif digest != self.digest:
                    problems.append("outputs differ from an earlier run with the same seed")
        if problems:
            self.failures.append(f"{tag}: " + "; ".join(problems))
        return run

    def calibrate(self) -> None:
        """Time one block of host-speed probes; one block runs before every
        child, and one after the last."""
        self.probes += [host_probe() for _ in range(PROBES_PER_BLOCK)]

    def slowdown(self) -> float:
        """How much slower than the reference the host ran during this run."""
        return statistics.fmean(self.probes) / REFERENCE_PROBE_S

    def warm_up(self) -> None:
        """Import the package once in an untimed, uncounted child, so that
        the first timed child of a fresh checkout does not also compile the
        bytecode.  A broken package fails the timed children instead."""
        argv = [sys.executable, "-c", "import lindbladprep.cli, lindbladprep.randomcoupling"]
        spawn(argv, self.env, self.root, self.workdir / "warmup.log", self.remaining())

    def input(self, *, one_step: bool) -> str:
        return self.w.prepare(self.workdir, self.seed, smoke=self.smoke, one_step=one_step)

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics over repeats of the whole workload.

        The first ``SETUP_SAMPLES`` repeats are each preceded by a run of the
        workload cut to one step; ``setup_s`` is their median.  Repeats stop
        before one would end past ``seconds`` (the first always runs).
        ``wall_s`` is the mean of the whole runs.  On a shared host each CPU
        swings between a fast speed and one about 1.4x slower, for a second
        to minutes at a time, and a run of ``seconds`` can fall wholly in a
        slow stretch.  The mean over the run averages the short swings.  The
        long ones move the probe loop (``host_probe``) and interpreted code
        alike, so for a ``host_scaled`` workload both times are divided by
        the run's slowdown against ``REFERENCE_PROBE_S``: they are seconds
        at the reference host speed.  BLAS-bound code does not follow the
        probe, so the other workloads report plain seconds.
        """
        setup_argv = self.w.argv(self.input(one_step=True))
        full_argv = self.w.argv(self.input(one_step=False))
        self.warm_up()
        setups, fulls = [], []
        while True:
            begin = time.perf_counter()
            if len(setups) < SETUP_SAMPLES:
                self.calibrate()
                setups.append(self.child(setup_argv, f"setup{len(setups)}", full=False))
            self.calibrate()
            fulls.append(self.child(full_argv, f"full{len(fulls)}", full=True))
            now = time.perf_counter()
            next_end = now - self.started + (now - begin)
            if next_end > seconds or next_end > RUN_BUDGET_S:
                break
        self.calibrate()
        if self.failures:
            return {}
        # seconds at the reference host speed for the interpreter-bound
        # workloads; plain seconds for the others
        scale = 1.0 / self.slowdown() if self.w.host_scaled else 1.0
        wall = statistics.fmean(f.wall_s for f in fulls) * scale
        size = self.w.size(self.workdir)
        return {
            "wall_s": wall,
            "setup_s": statistics.median(s.wall_s for s in setups) * scale,
            # whole-run throughput: on the Hubbard workloads set-up is over half
            # the run, and wall_s - setup_s of two single processes is too noisy
            "steps_per_s": size["reps"] * size["n_steps"] / wall,
            "peak_rss_mb": statistics.median(f.peak_rss_mb for f in fulls),
        }

    def trace(self, keep: Path) -> dict:
        """Per-layer metrics from one traced full run, plus the overhead
        against one untraced full run."""
        full = self.input(one_step=False)
        spans_path = self.workdir / "spans.json"
        run_id = f"{self.w.name}:seed{self.seed}"
        traced_argv = [
            sys.executable, str(HERE / "traced.py"), run_id, str(spans_path), self.w.kind, full
        ]
        traced = self.child(traced_argv, "traced", full=True)
        if self.failures:
            return {}
        bytes_written = sum(
            p.stat().st_size for p in (self.workdir / "full").rglob("*") if p.is_file()
        )
        size = self.w.size(self.workdir)
        untraced = self.child(self.w.argv(full), "untraced", full=True)
        if self.failures:
            return {}
        dump = json.loads(spans_path.read_text())
        metrics, layers = layer_metrics(dump["spans"], dump["missing"], self.w.root_span)
        metrics["plotting.bytes_written"] = (bytes_written, "bytes")
        metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
        for key, value in size.items():
            metrics[f"size.{key}"] = (value, "count")
        metrics["env.blas_threads"] = (blas_threads(), "count")
        metrics["env.nproc"] = (nproc(), "count")
        keep.mkdir(parents=True, exist_ok=True)
        (keep / f"trace-{self.w.name}-seed{self.seed}.json").write_text(
            json.dumps({**dump, "layers": layers}) + "\n"
        )
        return metrics


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(spans: list, missing: dict, root_span: str) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of one traced run.

    A span's self time is its duration minus the time its child spans
    cover (children of one span never overlap: the program is single
    threaded).  ``trace.unaccounted_s`` is the self time of the run span,
    i.e. the callers' loop overhead between named calls.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: dict[str, dict] = {}
    for i, (name, start, end, _, rss) in enumerate(spans):
        entry = layers.setdefault(name, {"durations": [], "self_s": 0.0, "rss_mb": 0.0})
        entry["durations"].append(end - start)
        entry["self_s"] += end - start - child_time[i]
        entry["rss_mb"] = max(entry["rss_mb"], rss)
    for entry in layers.values():
        durations = sorted(entry.pop("durations"))
        entry.update(
            calls=len(durations),
            total_s=sum(durations),
            p50_s=statistics.median(durations),
            p99_s=percentile(durations, 0.99),
        )

    untraceable = set(missing.values())
    metrics: dict[str, tuple] = {}
    for metric, span, stat, unit in LAYER_METRICS:
        if span in untraceable:
            print(f"perfbench: warning: {metric} omitted ({span} not traced)", file=sys.stderr)
            continue
        entry = layers.get(span, {})
        if stat in ("p50", "p99"):
            value = entry[f"{stat}_s"] * TIME_SCALE[unit] if entry else 0.0
        else:
            value = entry.get(stat, 0)
        metrics[metric] = (value, unit)
    if root_span in untraceable or root_span not in layers:
        print("perfbench: warning: run span missing; trace coverage omitted", file=sys.stderr)
    else:
        root = layers[root_span]
        metrics["trace.unaccounted_s"] = (root["self_s"], "s")
        metrics["trace.coverage"] = (1.0 - root["self_s"] / root["total_s"], "ratio")
    return metrics, layers


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    return min(MAX_BLAS_THREADS, nproc())


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # the default worker pool oversubscribes the cores and swings wall time
    # by several times between runs
    env["LINDBLADPREP_WORKERS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


def environment(root: Path) -> dict:
    import numpy
    import scipy

    head = "unknown"
    if (root / ".git").exists():
        try:
            head = subprocess.run(
                ["git", f"--git-dir={root / '.git'}", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_head": head,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "lindbladprep" / "cli.py").is_file():
        print(f"perfbench: no lindbladprep sources under {root / 'src'}", file=sys.stderr)
        return 2
    out = root / "perfbench" / "_out"
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        session = Session(root, WORKLOADS[args.workload], args.seed, args.smoke, workdir)
        if args.trace:
            metrics = session.trace(out)
        else:
            metrics = {
                name: (value, END_TO_END_UNITS[name])
                for name, value in session.measure(args.seconds).items()
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in session.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "output_sha256": session.digest,
        "failures": session.failures,
        "child_wall_s": session.walls,
        "host_slowdown": session.slowdown() if session.probes else None,
        "env": environment(root),
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not session.failures else 1


if __name__ == "__main__":
    sys.exit(main())
