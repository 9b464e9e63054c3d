"""cmnlab benchmark.

One caller drives cmnlab's public functions in a closed loop, on inputs made
from ``--seed``, and checks every op's output. The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it give the environment, failures and every metric with
its unit.

    python3 bench/run.py --workload analyze --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
untraced loop, then one round with every cross-module call wrapped in a
span (see tracer.py), and reports the per-layer metrics. Every time is
corrected for the machine's speed drift (see speed.py).
"""

import os

# The plain single-threaded baseline: BLAS reads its thread count when numpy
# is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set up at least this many times, and until this much time has passed, so a
# set-up dominated by starting an interpreter still gets a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0


class CheckoutError(RuntimeError):
    pass


def load_cmnlab():
    """Import cmnlab from this checkout's src/ (never an installed copy)."""
    package = SRC / "cmnlab"
    if not (package / "__init__.py").is_file():
        raise CheckoutError(f"{package} not found: run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cmnlab

    if Path(cmnlab.__file__).resolve().parent != package.resolve():
        raise CheckoutError(f"imported cmnlab from {cmnlab.__file__}, not {package}")


@dataclass
class Phase:
    """What one measured loop saw."""

    latencies_ms: list = field(default_factory=list)  # one entry per unit
    busy_s: float = 0.0  # at reference speed
    wall_s: float = 0.0
    factors: list = field(default_factory=list)  # speed factor of each op
    units: int = 0
    failed: int = 0
    unexpected: int = 0  # failures other than a documented known defect
    rounds: int = 0
    reasons: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


def run_phase(workload, seconds, min_rounds, tracer=None):
    """Run whole rounds until ``seconds`` have passed and ``min_rounds`` ran.

    Round r passes r to every op, so each phase starts from the same inputs."""
    phase = Phase()
    timed = []  # (start, end, units) of each op
    with speed.SpeedTrack() as track:
        began = perf_counter()
        while phase.rounds < min_rounds or perf_counter() - began < seconds:
            for op in workload.ops:
                if tracer is not None:
                    tracer.begin_op(len(timed))
                out = error = None
                start = perf_counter()
                try:
                    out = op.run(phase.rounds)
                except Exception as exc:  # counted as failed, not raised
                    error = exc
                timed.append((start, perf_counter(), op.units))
                if error is not None:
                    failures = [f"{op.label}: raised {type(error).__name__}: {error}"] * op.units
                else:
                    try:
                        workload.tally(op, out, phase.counts)
                        failures = op.check(out)
                    except Exception as exc:
                        failures = [f"{op.label}: check raised {type(exc).__name__}: {exc}"
                                    ] * op.units
                phase.units += op.units
                phase.failed += len(failures)
                if op.known_defect:
                    failures = [f"{r} [known defect: {op.known_defect}]" for r in failures]
                else:
                    phase.unexpected += len(failures)
                for reason in failures:
                    phase.reasons[reason] += 1
            phase.rounds += 1
    for start, end, units in timed:
        ref_s = track.reference_seconds(start, end)
        phase.factors.append(ref_s / (end - start))
        phase.wall_s += end - start
        phase.busy_s += ref_s
        phase.latencies_ms.extend([ref_s * 1e3 / units] * units)
    return phase


def import_in_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import cmnlab"], cwd=ROOT, env=env, check=True)


def set_up(build, seed, workdir, small):
    """Import, write the inputs, and run one warm-up op per distinct input.

    Returns the workload and the perf_counter readings around the set-up."""
    start = perf_counter()
    with speed.paused():
        import_in_fresh_interpreter()
    workload = build(seed, workdir, small)
    for op in workload.ops:
        op.warm_up()
    return workload, start, perf_counter()


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end_metrics(setup_times, phase):
    lat = phase.latencies_ms
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (phase.units / phase.busy_s, "ops/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p90_ms": (p90(lat), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "seed": seed,
        "caller": "one closed-loop caller in one process",
    }


def run_workload(name, seed, seconds, trace, small=False):
    """Run one workload; returns (result object, report lines)."""
    load_cmnlab()
    # both import cmnlab, so only after load_cmnlab has put src/ on the path
    import tracer as tracing
    import workloads

    modules = tracing.load_modules()
    build = workloads.WORKLOADS[name]
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        setups = []
        with speed.SpeedTrack() as track:
            began = perf_counter()
            while len(setups) < SETUP_REPEATS or perf_counter() - began < SETUP_MIN_S:
                setups.append(set_up(build, seed, workdir, small))
        workload = setups[-1][0]
        setup_times = [track.reference_seconds(start, end) for _, start, end in setups]
        tracing.assert_untraced(modules)
        plain = run_phase(workload, seconds, workload.min_rounds)
        tracing.assert_untraced(modules)
        phases = [plain]
        if trace:
            tracer = tracing.Tracer(modules)
            tracer.install()
            try:
                traced = run_phase(workload, 0, 1, tracer)
            finally:
                tracer.uninstall()
            tracing.assert_untraced(modules)
            phases.append(traced)
            metrics = tracer.layer_metrics(traced.counts, traced.factors)
            evals = plain.counts["discord.evaluations"]
            metrics["discord.eval_us"] = (plain.busy_s / evals * 1e6 if evals else 0.0, "us")
            traced_rate = traced.units / traced.busy_s
            plain_rate = plain.units / plain.busy_s
            metrics["trace.untraced_ops_per_s"] = (plain_rate, "ops/s")
            metrics["trace.traced_ops_per_s"] = (traced_rate, "ops/s")
            metrics["trace.overhead_frac"] = (plain_rate / traced_rate - 1, "ratio")
        else:
            metrics = end_to_end_metrics(setup_times, plain)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.units for p in phases)
    failed = sum(p.failed for p in phases)
    unexpected = sum(p.unexpected for p in phases)
    cut = p90(plain.latencies_ms)
    lines = [
        f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)}",
        "# env " + json.dumps(environment(seed)),
        "# setup_s runs (wall): " + ", ".join(
            f"{t:.4f} ({end - start:.4f})" for t, (_, start, end) in zip(setup_times, setups)),
        f"# untraced rounds={plain.rounds} units={plain.units} busy_s={plain.busy_s:.4f} "
        f"wall_s={plain.wall_s:.4f} speed factor median="
        f"{statistics.median(plain.factors):.4f} samples above p90="
        f"{sum(x > cut for x in plain.latencies_ms)}",
        f"# untraced counts {json.dumps(dict(sorted(plain.counts.items())))}",
        f"# attempted={attempted} failed={failed} failed_frac={failed / attempted:.6g} "
        f"unexpected_failures={unexpected}",
    ]
    reasons = sum((p.reasons for p in phases), Counter())
    for reason, count in sorted(reasons.items()):
        lines.append(f"# failure x{count}: {reason}")
    for metric, (value, unit) in metrics.items():
        lines.append(f"{metric} {value:.6g} {unit}")
    result = {
        # a documented known defect counts in failed but does not make the run incorrect
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="cmnlab benchmark")
    parser.add_argument("--workload", required=True, choices=("analyze", "audit", "discord"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
