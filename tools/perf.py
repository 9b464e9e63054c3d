"""Time cmnlab's discord search, analyze path and audits in-process and
write the timings, with the machine they were taken on, to a BENCH file:

    python3 tools/perf.py --src ../parent/src --out BENCH_28.json --repeats 20 --ridge --large
    python3 tools/perf.py --out BENCH_29.json --repeats 20 --ridge --large

Each row's work runs in ``--repeats`` rounds that each time every row once,
so that a slow spell of a shared machine falls on all rows alike. There is
no untimed warm-up: the one-time costs of a process (caches filled on first
use) fall in the first round, which the minimum and the median of many
rounds do not read. A row keeps, per unit of work, its minimum and median run in
wall time (``min_s``, ``median_s``) and its median run at the reference
speed of ``bench/speed.py`` (``ref_median_s``): each run scaled by the time
of that file's fixed kernel, run just before and after it. On a host whose
speed drifts, compare the reference-speed medians; a minimum of scaled runs
would pick the run whose kernel was slowed most. The rows:

- ``objective/<solve>/<restarts>``: one call of the objective of the solve's
  search over every measured party's angles, on the points of a search
  tick in which no restart has finished (restarts x 2n points for n
  angles), on fixed random angles: Bell and GHZ-3 at 1, 8 and 32 restarts,
  and classical-cc and the two one-sided solves at 8, so that each shape of
  dephased matricization that these searches take (2×2, 2×4 and 2×9) is
  timed, and so is the fixed cost of a call on a small tick (8 and 12
  points at one restart). That search is ``discord._search``, the tests'
  oracle: the benchmark's solves run it no more, as closed forms take four
  of them and a search over side BC's angles alone takes GHZ-3's;
- ``objective/ghz3-global-A|BC-reduced/8``: one call, timed as above, of
  the objective that the benchmark's GHZ-3 A|BC solve does run, captured
  from ``discord._discord`` (the qubit's best basis at each of side BC's 4
  angles);
- ``solve/<solve>/<restarts>``: one whole solve, averaged over the optimizer
  seeds 0 .. 3; ``evaluations`` sums their trial counts, so two versions that
  search alike show equal counts, and ``method`` says whether the solve took
  a closed form (0 evaluations) or searched; ``random-222-seed7-side-b``
  measures side BC, no qubit side, so ``discord._discord`` hands it to the
  full search (about 35 ms a solve at 8 restarts on a 2-core x86-64 VM);
- ``witness/<solve>``: the first read of ``best_measurement`` after each of
  the four closed-form solves (8 restarts, seed 0), ``WITNESS_READS`` reads
  of fresh shallow copies of the result per run, the copy included (2-4 µs
  on a 2-core x86-64 VM);
- ``analyze/<input>``: one in-process ``cmnlab analyze FILE --output OUT``
  on each of the benchmark's analyze inputs; where the benchmark draws a
  new random state each round, a fixed stand-in, named for its seed;
- ``detect/<state>`` and ``filter_cuts/<state>``: one ``detect`` with the
  default configuration on GHZ-5, GHZ-6, W-3 and the random (2,2,2,2)
  stand-in, and the ``filter_cuts`` call that it makes (``cuts`` counts the
  cuts it filters, ``rows`` the rows of the ``filter_stack`` calls it makes);
- ``load_state/ghz-6`` and ``render/ghz-6``: reading GHZ-6's state file, and
  writing its analyze document from its verdict;
- ``detect/<state>/no-filter``: one ``detect`` with ``DetectConfig(filter=False)``
  on GHZ-6, W-3 and the random (2,2,2,2) stand-in, which times detect's
  admission, tensors, residuals, matricizations and spectra without any
  filtering;
- ``filter_stack/<dims>/fixed``: ``FIXED_CALLS`` calls of ``filter_stack``
  across A|rest on a one-row stack that is already in FNF (the maximally
  mixed state over (2,2), (2,2,2) and (2,2,2,2)), the cost that every call
  pays whatever its rows;
- ``build/2x2`` and ``build/2x3``: ``BUILD_CALLS`` calls of ``build`` on
  one state, the tensor that each discord solve builds, on the stand-ins of
  the two random one-sided solves;
- ``build/<dims>``: ``build_stack`` of ``STACK_STATES`` full-rank random
  states over (2,2,2), (2,2,2,2) and (3,3,3), drawn at seeds 0, 1, ...;
- ``cmn/<dims>``: on those states' tensors, the matricization across
  A|rest, its SVD, and M_{h,∞} and M_{h,1} at h = d_A² from the spectra;
- ``audit/<family>/<criterion>``: one ``separability_audit`` of each of the
  benchmark's 11 audit pairs at its 32 trials, from trial seed
  ``AUDIT_SEED`` on, timed per trial; the audit memo is cleared before each
  run, so every run samples, filters and scores its trials;
- ``filter_stack/<family>/32``: the ``filter_stack`` call on the 32 draws
  that the first audit of biseparable-filtered-222 and -223 filters across
  A|BC, captured from that audit;
- ``detect/ghz-7`` and ``detect/random-<dims>-rank4-seed<n>``, only with
  ``--large``: ``detect`` on GHZ-7 and on rank-4 random states of n = 5, 6
  and 7 qubits drawn at seed n (the 7-qubit one takes about 5 s a run on a
  2-core x86-64 VM), timed in the rounds with the other rows;
- ``detect/slocc-rho1/200``, only with ``--large``: one ``detect`` of each
  of ROADMAP item 1's 200 states, ``same_answers.slocc_rho1`` at seeds
  0 .. 199 (ill-conditioned filtering; about 1.2 s a run on a 2-core x86-64
  VM), timed as one unit;
- ``solve/ridge-crawl-23/8``, only with ``--ridge``: the (2,3) solve whose
  restart 2 crawls along a ridge (about 36 s on a 2-core x86-64 VM), timed
  once without a warm-up, inside a ``speed.SpeedTrack`` as ``bench/run.py``
  times its ops: its reference-speed time reads the kernel samples taken
  every ``speed.INTERVAL_S`` during the run, not two timings at its ends.
  Its wall time includes those samples (about 4%), so compare it only with
  rows timed this way, and on ``median_s``, as for ``tier1``: the samples
  taken during one long numpy-heavy run do not track its speed (two takes
  of one tree read 20.26 and 19.61 s of wall time, but 20.55 and 25.93 s
  at reference speed, in ``BENCH_36`` and ``BENCH_38``).
- ``tier1``, only with ``--tier1``: ROADMAP's tier-1 command,
  ``python -m pytest -q --continue-on-collection-errors`` with the checkout's
  ``src/`` first on ``PYTHONPATH``, run in the checkout that holds ``--src``
  (about 40 s on a 2-core x86-64 VM), timed once without a warm-up;
  ``result`` is pytest's last line and ``exit_code`` its exit status. The
  suite runs in a child process that shares the cores with the kernel, so
  the kernel timings at its ends read the machine as slower than it is
  (``bench/run.py`` holds samples back with ``speed.paused()`` for this
  reason): compare this row on ``median_s``, not ``ref_median_s``.

Compare two versions by running both on one machine, one after the other.
BLAS is pinned to one thread, as in ``bench/run.py``. Needs only the
standard library and numpy.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy is first imported
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import copy
import hashlib
import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
sys.path.insert(0, str(Path(__file__).resolve().parent))
import same_answers  # noqa: E402  (its states import cmnlab only when built)
import speed  # noqa: E402  (the benchmark's machine-speed kernel)

SCHEMA = 1
# calls of an objective per timed run, so that a run lasts milliseconds
OBJECTIVE_CALLS = 20
# the optimizer seeds of every solve row but the ridge crawl's
SEEDS = range(4)
# calls of filter_stack per timed run of a fixed-cost row
FIXED_CALLS = 20
# reads of a fresh result's best_measurement per timed run of a witness row
WITNESS_READS = 20
# calls of build on one state per timed run of a one-state build row
BUILD_CALLS = 200
# states per stack of the build and cmn rows
STACK_STATES = 32
# the first seed of the audit rows' trials
AUDIT_SEED = 2026
# the seeds of the slocc_rho1 states of the --large detect row
SLOCC_RHO1_SEEDS = range(200)


class _Captured(Exception):
    """Carries a solve's objective out of the search that would run it."""


def load_cmnlab(src):
    """Import cmnlab from ``src`` (never an installed copy)."""
    package = Path(src).resolve() / "cmnlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"{package} not found: --src must be a checkout's src/ directory")
    sys.path.insert(0, str(package.parent))
    import cmnlab

    if Path(cmnlab.__file__).resolve().parent != package:
        raise SystemExit(f"imported cmnlab from {cmnlab.__file__}, not {package}")
    return cmnlab


def solves():
    """Name -> solve(restarts, seed): the benchmark's five discord solve types,
    a one-sided solve that measures no qubit side (side BC of a random
    (2,2,2) state across A|BC, which takes the full search), and ROADMAP
    item 5's ridge crawl.

    The benchmark draws its two random states afresh in every round; here
    they are fixed stand-ins, the states of seeds 22 and 23, named for them.
    """
    from cmnlab import zoo
    from cmnlab.cmn import CmnParams
    from cmnlab.discord import OptimizerCfg, bipartite_discord_cmn, global_discord_cmn
    from cmnlab.tensor import Bipartition

    ab, a_bc = Bipartition.of((0,), 2), Bipartition.of((0,), 3)
    h2p1, h1p2 = CmnParams(2, 1.0), CmnParams(1, 2.0)
    bell, ghz3 = zoo.bell(1).to_density(), zoo.ghz(3).to_density()
    cc = zoo.from_name("classical-cc")
    rand22, rand23 = zoo.random_density((2, 2), 4, 22), zoo.random_density((2, 3), 6, 23)
    rand222 = zoo.random_density((2, 2, 2), 8, 7)
    ridge = zoo.random_density((2, 3), 3, 101)

    def solve(run, state, part, params):
        return lambda restarts, seed: run(state, part, params,
                                          OptimizerCfg(restarts=restarts, seed=seed))

    def side_a(state, part, params, opt):
        return bipartite_discord_cmn(state, part, "a", params, opt)

    def side_b(state, part, params, opt):
        return bipartite_discord_cmn(state, part, "b", params, opt)

    return {
        "bell-global": solve(global_discord_cmn, bell, ab, h2p1),
        "classical-cc-global": solve(global_discord_cmn, cc, ab, h2p1),
        "ghz3-global-A|BC": solve(global_discord_cmn, ghz3, a_bc, h2p1),
        "random-22-seed22-side-a": solve(side_a, rand22, ab, h1p2),
        "random-23-seed23-side-a": solve(side_a, rand23, ab, h1p2),
        "random-222-seed7-side-b": solve(side_b, rand222, a_bc, h2p1),
        "ridge-crawl-23": solve(global_discord_cmn, ridge, ab, CmnParams(2, math.inf)),
    }


def capture_objective(solve, full=True):
    """The objective and the angle count that ``solve`` hands to
    ``discord._lockstep_search``: with ``full``, those of its search over
    every measured party's angles (``discord._search``, where closed forms
    take over some solves), else those of the solve as ``discord._discord``
    runs it."""
    from cmnlab import discord

    def grab(objective, n_params, cfg):
        raise _Captured(objective, n_params)

    entry, search = discord._discord, discord._lockstep_search
    if full:
        discord._discord = discord._search
    discord._lockstep_search = grab
    try:
        solve(1, 0)
    except _Captured as captured:
        return captured.args
    finally:
        discord._discord, discord._lockstep_search = entry, search
    raise RuntimeError("the solve never called discord._lockstep_search")


def objective_work(name, solve, restarts, full=True):
    """A row's fields, its work and the units one run of it does: OBJECTIVE_CALLS
    calls of :func:`capture_objective`'s objective at a tick of ``restarts``
    restarts."""
    objective, n_params = capture_objective(solve, full)
    points = np.random.default_rng(0).uniform(0, 2 * math.pi, (restarts * 2 * n_params, n_params))

    def work():
        for _ in range(OBJECTIVE_CALLS):
            objective(points)

    row = {"name": f"objective/{name}/{restarts}", "kind": "objective", "restarts": restarts,
           "points": len(points)}
    return row, work, OBJECTIVE_CALLS


def solve_work(name, solve, restarts, seeds):
    """A row's fields, its work and the units one run of it does: one solve per
    seed. The work returns the solves' evaluations and records their
    ``method``."""
    row = {"name": f"solve/{name}/{restarts}", "kind": "solve", "restarts": restarts,
           "seeds": list(seeds), "method": None}

    def work():
        results = [solve(restarts, seed) for seed in seeds]
        row["method"] = results[0].method
        return sum(res.evaluations for res in results)

    return row, work, len(seeds)


def witness_work(name, solve):
    """A row's fields, its work and the units one run of it does:
    WITNESS_READS first reads of ``best_measurement``, each from a fresh
    shallow copy of one result of the solve."""
    result = solve(8, 0)

    def work():
        for _ in range(WITNESS_READS):
            copy.copy(result).best_measurement

    return ({"name": f"witness/{name}", "kind": "witness", "reads": WITNESS_READS}, work,
            WITNESS_READS)


def one_state_build_work(dims, seed):
    """A row's fields, its work and the units one run of it does: BUILD_CALLS
    calls of ``build`` on the random state over ``dims`` drawn at ``seed``."""
    from cmnlab import zoo
    from cmnlab.tensor import build

    rho = zoo.random_density(dims, math.prod(dims), seed)

    def work():
        for _ in range(BUILD_CALLS):
            build(rho)

    label = "x".join(map(str, dims))
    return ({"name": f"build/{label}", "kind": "build", "states": 1, "calls": BUILD_CALLS},
            work, BUILD_CALLS)


def analyze_inputs():
    """Name -> (state, extra analyze arguments): the benchmark's analyze inputs.
    Its random states and its bi-separable probe are fixed stand-ins here,
    drawn at the seed each is named for."""
    from cmnlab import zoo
    from cmnlab.tensor import Bipartition

    inputs = {"rho1": (zoo.rho1(), []), "w-3": (zoo.w_state(3).to_density(), [])}
    inputs.update((f"ghz-{n}", (zoo.ghz(n).to_density(), [])) for n in (3, 4, 5, 6))
    for dims in ((2, 2, 2), (2, 2, 3), (2, 2, 2, 2)):
        label = "".join(map(str, dims))
        state = zoo.random_density(dims, math.prod(dims), int(label))
        inputs[f"random-{label}-seed{label}"] = (state, [])
    probe = zoo.random_biseparable((2, 2, 2), Bipartition.of((0,), 3), 24, 24)
    inputs["bisep-222-p0.5-h2-seed24"] = (probe, ["--p", "0.5", "--h", "2"])
    return inputs


def analyze_work(name, state, extra, workdir):
    """A row's fields, its work and the units one run of it does: one
    ``cmnlab analyze`` of the state's file, writing its document to a file."""
    from cmnlab import cli

    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        fh.write(cli.statefile_text(state))
    argv = ["analyze", path, "--output", os.path.join(workdir, f"{name}.out.json"), *extra]

    def work():
        if cli.main(argv) != cli.EXIT_OK:
            raise RuntimeError(f"cmnlab {' '.join(argv)} failed")

    return {"name": f"analyze/{name}", "kind": "analyze", "args": extra}, work, 1


def detect_work(name, state, filtering=True):
    """A row's fields, its work and the units one run of it does: one
    ``detect`` of ``state``, with or without filtering."""
    from cmnlab import bounds

    cfg = bounds.DetectConfig(filter=filtering)

    def work():
        bounds.detect(state, cfg)

    return {"name": f"detect/{name}" + ("" if filtering else "/no-filter"), "kind": "detect",
            "filter": filtering}, work, 1


def fixed_filter_work(dims):
    """A row's fields, its work and the units one run of it does:
    FIXED_CALLS calls of ``filter_stack`` across A|rest on the maximally mixed
    state over ``dims``, a one-row stack already in FNF."""
    from cmnlab import normal_form, zoo

    data = zoo.maximally_mixed(dims).data[None]
    groups = [(0,), tuple(range(1, len(dims)))]

    def work():
        for _ in range(FIXED_CALLS):
            normal_form.filter_stack(data, dims, groups)

    label = "".join(map(str, dims))
    return ({"name": f"filter_stack/{label}/fixed", "kind": "filter_stack",
             "calls": FIXED_CALLS}, work, FIXED_CALLS)


def stack_rows(dims):
    """The rows of ``build_stack`` on STACK_STATES seeded states over ``dims``
    and of the CMN of their tensors across A|rest: matricization, SVD, and
    M_{h,∞} and M_{h,1} at h = d_A²."""
    from cmnlab import zoo
    from cmnlab.cmn import CmnParams, minor_norm
    from cmnlab.linalg import singular_values
    from cmnlab.tensor import Bipartition, _matricize_array, build_stack

    data = np.stack([zoo.random_density(dims, math.prod(dims), seed).data
                     for seed in range(STACK_STATES)])
    tensors = build_stack(data, dims)
    part = Bipartition.of((0,), len(dims))
    norms = [CmnParams(dims[0] ** 2, p) for p in (math.inf, 1)]

    def build():
        build_stack(data, dims)

    def cmn():
        sigma = singular_values(_matricize_array(tensors, part))
        for params in norms:
            minor_norm(sigma, params)

    label = "".join(map(str, dims))
    yield {"name": f"build/{label}", "kind": "build", "states": STACK_STATES}, build, 1
    yield ({"name": f"cmn/{label}", "kind": "cmn", "states": STACK_STATES, "h": dims[0] ** 2},
           cmn, 1)


def audit_rows():
    """The rows of the benchmark's audit pairs at its trial count, from trial
    seed AUDIT_SEED on, and of the ``filter_stack`` call on the stack of
    draws that the first audit of each family that filters its draws makes,
    captured from that audit."""
    import workloads  # bench/workloads.py: the audit pairs and trial count
    from cmnlab import audit

    trials, filter_stack = workloads.AUDIT_TRIALS, audit.filter_stack
    calls, stacks = [], {}  # family -> its first call's (args, kwargs)

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        return filter_stack(*args, **kwargs)

    def audit_work(family, criterion):
        def work():
            audit._chunk.cache_clear()  # every run samples, filters and scores
            audit.separability_audit(family, criterion, trials, AUDIT_SEED)

        return work

    def filter_work(args, kwargs):
        def work():
            filter_stack(*args, **kwargs)

        return work

    for family, criterion in workloads.AUDIT_PAIRS:
        work = audit_work(family, criterion)
        calls.clear()
        audit.filter_stack = capture
        try:
            work()
        finally:
            audit.filter_stack = filter_stack
        if calls:
            stacks.setdefault(family, calls[0])
        yield ({"name": f"audit/{family}/{criterion}", "kind": "audit", "trials": trials,
                "seed": AUDIT_SEED}, work, trials)
    for family, (args, kwargs) in stacks.items():
        rows = len(args[0])
        yield ({"name": f"filter_stack/{family}/{rows}", "kind": "audit_filter_stack",
                "rows": rows}, filter_work(args, kwargs), 1)


def large_states():
    """Name -> state: GHZ-7 and rank-4 random states of 5, 6 and 7 qubits."""
    from cmnlab import zoo

    states = {"ghz-7": zoo.ghz(7).to_density()}
    states.update((f"random-{'2' * n}-rank4-seed{n}", zoo.random_density((2,) * n, 4, n))
                  for n in (5, 6, 7))
    return states


def slocc_rho1_work():
    """A row's fields, its work and the units one run of it does: one
    ``detect`` of each ``slocc_rho1`` state at ``SLOCC_RHO1_SEEDS``."""
    from cmnlab import bounds

    states = [same_answers.slocc_rho1(seed) for seed in SLOCC_RHO1_SEEDS]

    def work():
        for state in states:
            bounds.detect(state)

    return ({"name": f"detect/slocc-rho1/{len(states)}", "kind": "detect", "filter": True,
             "states": len(states)}, work, 1)


def detect_rows(name, state):
    """The rows of one ``detect`` of ``state`` and of the ``filter_cuts`` call
    that it makes, captured from that detect, with the rows of the
    ``filter_stack`` calls that it makes."""
    from cmnlab import bounds, normal_form

    calls, rows = [], []
    filter_cuts, filter_stack = bounds.filter_cuts, normal_form.filter_stack

    def capture(cuts, tol):
        calls.append((cuts, tol))
        return filter_cuts(cuts, tol)

    def count(data, *args, **kwargs):
        rows.append(len(data))
        return filter_stack(data, *args, **kwargs)

    bounds.filter_cuts, normal_form.filter_stack = capture, count
    try:
        bounds.detect(state)
    finally:
        bounds.filter_cuts, normal_form.filter_stack = filter_cuts, filter_stack

    def filter_work():
        for cuts, tol in calls:
            filter_cuts(cuts, tol)

    yield detect_work(name, state)
    yield ({"name": f"filter_cuts/{name}", "kind": "filter_cuts",
            "cuts": sum(len(cuts) for cuts, _ in calls), "rows": sum(rows)}, filter_work, 1)


def state_file_rows(name, state, workdir):
    """The rows of reading ``state``'s file and of writing its analyze document
    from its verdict, as ``cmnlab analyze`` does both."""
    from cmnlab import bounds, cli, report

    path = os.path.join(workdir, f"{name}.load.json")
    with open(path, "w") as fh:
        fh.write(cli.statefile_text(state))
    verdict = bounds.detect(state)

    def load():
        cli.load_state(path)

    def render():
        report.dumps(report.document("analyze", "0" * 64,
                                     {"verdict": report.verdict_to_dict(verdict)}, timing=0.0))

    yield {"name": f"load_state/{name}", "kind": "load_state"}, load, 1
    yield {"name": f"render/{name}", "kind": "render"}, render, 1


def planned_rows(workdir, large=False):
    table = solves()
    for name in ("bell-global", "ghz3-global-A|BC"):
        for restarts in (1, 8, 32):
            yield objective_work(name, table[name], restarts)
    for name in ("classical-cc-global", "random-22-seed22-side-a", "random-23-seed23-side-a"):
        yield objective_work(name, table[name], 8)
    yield objective_work("ghz3-global-A|BC-reduced", table["ghz3-global-A|BC"], 8, full=False)
    for name in ("bell-global", "classical-cc-global", "ghz3-global-A|BC",
                 "random-22-seed22-side-a", "random-23-seed23-side-a", "random-222-seed7-side-b"):
        yield solve_work(name, table[name], 8, SEEDS)
    for name in ("bell-global", "ghz3-global-A|BC"):
        yield solve_work(name, table[name], 32, SEEDS)
    yield solve_work("bell-global", table["bell-global"], 1, SEEDS)
    for name in ("bell-global", "classical-cc-global", "random-22-seed22-side-a",
                 "random-23-seed23-side-a"):
        yield witness_work(name, table[name])
    inputs = analyze_inputs()
    for name, (state, extra) in inputs.items():
        yield analyze_work(name, state, extra, workdir)
    for name in ("ghz-5", "ghz-6", "w-3", "random-2222-seed2222"):
        yield from detect_rows(name, inputs[name][0])
    yield from state_file_rows("ghz-6", inputs["ghz-6"][0], workdir)
    for name in ("ghz-6", "w-3", "random-2222-seed2222"):
        yield detect_work(name, inputs[name][0], filtering=False)
    for dims in ((2, 2), (2, 2, 2), (2, 2, 2, 2)):
        yield fixed_filter_work(dims)
    yield one_state_build_work((2, 2), 22)
    yield one_state_build_work((2, 3), 23)
    for dims in ((2, 2, 2), (2, 2, 2, 2), (3, 3, 3)):
        yield from stack_rows(dims)
    yield from audit_rows()
    if large:
        for name, state in large_states().items():
            yield detect_work(name, state)
        yield slocc_rho1_work()


def timed_run(work):
    """``work()``'s result, its wall time, and that time at the reference speed
    of bench/speed.py: scaled by REFERENCE_S over the mean time of the fixed
    kernel run just before and just after it."""
    before = speed.kernel_seconds()
    start = perf_counter()
    result = work()
    elapsed = perf_counter() - start
    kernel = (before + speed.kernel_seconds()) / 2
    return result, elapsed, elapsed * speed.REFERENCE_S / kernel


def summary(runs, units):
    """A row's timing fields from its (wall, reference-speed) run times."""
    wall, ref = zip(*runs)
    return {"min_s": min(wall) / units, "median_s": statistics.median(wall) / units,
            "ref_median_s": statistics.median(ref) / units, "runs": len(runs)}


def timed_rows(planned, repeats):
    """Time ``repeats`` rounds that each run every row's work once, so that a
    slow spell of a shared machine falls on all rows alike; each row keeps its
    minimum and median run per unit, and a solve row its first run's
    evaluations."""
    runs = [[] for _ in planned]
    for _ in range(repeats):
        for (_, work, _), row_runs in zip(planned, runs):
            row_runs.append(timed_run(work))
    for (row, _, units), row_runs in zip(planned, runs):
        row.update(summary([run[1:] for run in row_runs], units))
        if row_runs[0][0] is not None:
            row["evaluations"] = row_runs[0][0]
        yield row


def tracked_run(work):
    """``work()``'s result, its wall time, and that time at the reference speed
    of bench/speed.py as bench/run.py takes it: the kernel samples of a
    ``speed.SpeedTrack`` inside and next to the run set the scale, so that
    one long run does not rest on two kernel timings at its ends."""
    with speed.SpeedTrack() as track:
        start = perf_counter()
        result = work()
        end = perf_counter()
    return result, end - start, track.reference_seconds(start, end)


def ridge_row():
    """The ridge crawl's row, from one tracked run and no warm-up."""
    row, work, _ = solve_work("ridge-crawl-23", solves()["ridge-crawl-23"], 8, [1])
    row["evaluations"], *run = tracked_run(work)
    row.update(summary([run], 1))
    return row


def tier1_row(src):
    """The tier-1 suite's row, from one timed run and no warm-up."""
    root = Path(src).resolve().parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

    def work():
        return subprocess.run(argv, cwd=root, env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True)

    row = {"name": "tier1", "kind": "tier1"}
    out, *run = timed_run(work)
    row.update(summary([run], 1))
    lines = out.stdout.strip().splitlines()
    row["result"], row["exit_code"] = lines[-1] if lines else "", out.returncode
    return row


def git(src, *args):
    try:
        out = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest(src):
    """The sha256 of ``<src>/cmnlab/*.py``: each file's path relative to
    ``src``, its size and its bytes, in sorted path order. It names the tree
    that was timed where ``src`` is no git checkout and ``commit`` is null."""
    root, digest = Path(src).resolve(), hashlib.sha256()
    for path in sorted((root / "cmnlab").glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def environment(src, cmnlab):
    cpu = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    status = git(src, "status", "--porcelain", "--", ".")
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu or platform.processor() or None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": git(src, "rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "src_digest": src_digest(src),
        "cmnlab": cmnlab.__version__,
    }


def main(argv=None):
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(here.parent / "src"),
                        help="the source tree to import cmnlab from (default: this repo's)")
    parser.add_argument("--out", required=True, help="the BENCH file to write")
    parser.add_argument("--repeats", type=int, default=10, help="timed rounds")
    parser.add_argument("--ridge", action="store_true", help="also time the ridge crawl")
    parser.add_argument("--tier1", action="store_true",
                        help="also time the tier-1 test suite of the checkout holding --src")
    parser.add_argument("--large", action="store_true",
                        help="also time detect on GHZ-7, rank-4 random states of 5-7 qubits "
                        "and 200 ill-conditioned rho1 images")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    cmnlab = load_cmnlab(args.src)
    with tempfile.TemporaryDirectory() as workdir:
        rows = list(timed_rows(list(planned_rows(workdir, args.large)), args.repeats))
    if args.ridge:
        rows.append(ridge_row())
    if args.tier1:
        rows.append(tier1_row(args.src))
    doc = {"schema": SCHEMA, "environment": environment(args.src, cmnlab),
           "settings": {"repeats": args.repeats, "ridge": args.ridge, "large": args.large,
                        "tier1": args.tier1, "objective_calls": OBJECTIVE_CALLS},
           "rows": rows}
    for row in rows:
        print(f"{row['name']:38} min {row['min_s'] * 1e3:10.3f} ms, "
              f"median at reference speed {row['ref_median_s'] * 1e3:10.3f} ms")
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
