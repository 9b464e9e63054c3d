"""The benchmark's workloads: seeded inputs, one op per unit of work, and the
check that decides whether each op's output is correct.

One round runs every op of a workload once, in a fixed order; ``run`` takes
the round's index. A check returns one reason per failed unit; an empty list
means the op passed.
cmnlab receives only the generated inputs, never the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cmnlab import audit, cli, discord, zoo
from cmnlab.cmn import CmnParams
from cmnlab.tensor import Bipartition, build, matricize

# Reference values the discord checks compare against.
BELL_DISCORD = 1.25
CLASSICAL_DISCORD = 0.0
DISCORD_TOL = 1e-6
ORACLE_TOL = 1e-8
RANGE_TOL = 1e-9

# ROADMAP's known defect: a finite p below 1 is compared with the p = 1
# bound, so a bi-separable sample is flagged as entangled across A|BC.
FINITE_P_DEFECT = "finite-p verdict compared with the p=1 bound (ROADMAP open item)"

ANALYZE_VARIANTS = 3
AUDIT_TRIALS = 32
AUDIT_PAIRS = (
    [("fully-separable-sfnf-222", c) for c in ("cmn-full-inf", "cmn-full-p1", "dvh-full")]
    + [("fully-separable-sfnf-223", c) for c in ("cmn-full-inf", "cmn-full-p1", "dvh-full")]
    + [("biseparable-filtered-222", c) for c in ("cmn-bisep-inf", "cmn-bisep-p1")]
    + [("biseparable-filtered-223", c) for c in ("cmn-bisep-inf", "cmn-bisep-p1")]
    + [("ghz-mixtures-222", "cmn-bisep-inf")]
)
DISCORD_RESTARTS = 8


@dataclass
class Op:
    label: str
    run: Callable[[int], object]
    check: Callable[[object], list]
    warm_up: Callable[[], None]
    units: int = 1
    known_defect: str = ""  # documented program defect its check exposes


@dataclass
class Workload:
    ops: list  # one round
    min_rounds: int
    tally: Callable[[Op, object, Counter], None]


def child_seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def round_seed(seed, r):
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


# -- analyze -----------------------------------------------------------------

def _without_timing(text):
    cut = text.rfind('"timing_seconds"')
    return text if cut < 0 else text[:cut]


def _digest(text):
    return hashlib.sha256(_without_timing(text).encode()).hexdigest()


def _expect_rho1(verdict):
    if not verdict["not_fully_separable"]:
        return "rho1 not reported as not fully separable"
    if verdict["bi_entangled_partitions"]:
        return f"rho1 reported bi-entangled across {verdict['bi_entangled_partitions']}"
    return None


def _expect_not_fully_separable(verdict):
    return None if verdict["not_fully_separable"] else "GHZ not reported as not fully separable"


def _expect_a_bc_not_flagged(verdict):
    if "A|BC" in verdict["bi_entangled_partitions"]:
        return "A|BC-bi-separable sample flagged as entangled across A|BC"
    return None


def _analyze_op(label, files, extra_args, expect, known_defect):
    """``files`` holds one (state file, output file) pair per variant of the
    input; round r analyzes variant r mod len(files)."""
    references = {}

    def run(r=0):
        state_path, out_path = files[r % len(files)]
        return out_path, cli.main(["analyze", state_path, "--output", out_path, *extra_args])

    def warm_up():
        for r in range(len(files)):
            out_path, code = run(r)
            if code != 0:
                raise RuntimeError(f"warm-up analyze of {label} failed")
            with open(out_path) as fh:
                references[out_path] = _digest(fh.read())

    def check(result):
        out_path, code = result
        if code != 0:
            return [f"exit code {code}"]
        with open(out_path) as fh:
            text = fh.read()
        doc = json.loads(text)
        if "schema_version" not in doc:
            return ["output has no schema_version"]
        if _digest(text) != references.get(out_path):
            return ["verdict differs from the first op on this input"]
        reason = expect(doc["verdict"]) if expect else None
        return [reason] if reason else []

    return Op(label, run, check, warm_up, known_defect=known_defect)


def analyze(seed, workdir, small=False):
    """Every analyze op is one in-process ``cmnlab analyze FILE --output OUT``.

    Each seeded random input comes in ANALYZE_VARIANTS samples that rounds
    take in turn, so that one unlucky sample does not set a run's median."""
    variants = 1 if small else ANALYZE_VARIANTS
    s = iter(child_seeds(seed, 4 * variants))
    # (label, states, extra CLI arguments, expectation, known defect)
    inputs = [("rho1", [zoo.rho1()], (), _expect_rho1, "")]
    if not small:
        inputs.append(("w-3", [zoo.w_state(3).to_density()], (), None, ""))
    for n in ((3,) if small else (3, 4, 5, 6)):
        inputs.append((f"ghz-{n}", [zoo.ghz(n).to_density()], (),
                       _expect_not_fully_separable, ""))
    for dims in ([(2, 2, 2)] if small else [(2, 2, 2), (2, 2, 3), (2, 2, 2, 2)]):
        states = [zoo.random_density(dims, int(np.prod(dims)), next(s)) for _ in range(variants)]
        inputs.append(("random-" + "".join(map(str, dims)), states, (), None, ""))
    a_bc = Bipartition.of((0,), 3)
    probes = [zoo.random_biseparable((2, 2, 2), a_bc, 24, next(s)) for _ in range(variants)]
    inputs.append(("bisep-222-p0.5-h2", probes, ("--p", "0.5", "--h", "2"),
                   _expect_a_bc_not_flagged, FINITE_P_DEFECT))

    ops = []
    for label, states, extra, expect, defect in inputs:
        files = []
        for v, rho in enumerate(states):
            state_path = os.path.join(workdir, f"{label}.{v}.json")
            with open(state_path, "w") as fh:
                json.dump(cli.state_to_statefile(rho), fh)
            files.append((state_path, os.path.join(workdir, f"{label}.{v}.out.json")))
        ops.append(_analyze_op(label, files, extra, expect, defect))

    def tally(op, result, counts):
        # the document without its timing value, whose length varies
        with open(result[0], "rb") as fh:
            counts["report.output_bytes"] += len(_without_timing(fh.read().decode()).encode())

    # ten rounds give the p90 at least ten samples beyond it
    return Workload(ops, 1 if small else 10, tally)


# -- audit -------------------------------------------------------------------

def _audit_op(family, criterion, trials, seed):
    separable = audit.FAMILIES[family][1] != "entangled"

    def run(r):
        # each round audits fresh samples
        return audit.separability_audit(family, criterion, trials, seed + r * trials)

    def check(rep):
        if (rep.family, rep.criterion, rep.trials) != (family, criterion, trials):
            return ["audit report does not match its request"] * trials
        if separable:
            return [f"bound violated on a separable {family} sample"] * rep.violations
        # every GHZ mixture with p >= 0.6 violates the bound by a factor > 3
        return [f"entangled {family} sample not detected"] * (trials - rep.violations)

    def warm_up():
        audit.separability_audit(family, criterion, 1, seed)

    return Op(f"{family}/{criterion}", run, check, warm_up, units=trials)


def audit_workload(seed, workdir, small=False):
    """Every audit op is one trial; a call runs a fixed number of trials."""
    (audit_seed,) = child_seeds(seed, 1)
    pairs = [AUDIT_PAIRS[0], AUDIT_PAIRS[-1]] if small else AUDIT_PAIRS
    trials = 2 if small else AUDIT_TRIALS
    ops = [_audit_op(f, c, trials, audit_seed) for f, c in pairs]

    def tally(op, rep, counts):
        if audit.FAMILIES[rep.family][1] != "entangled":
            counts["audit.zoo_trials"] += rep.trials

    return Workload(ops, 1, tally)


# -- discord -----------------------------------------------------------------

def _undisturbed_s2(rho, part):
    """[M_{2,1}] before any measurement: S_2 of the singular values, from numpy."""
    sigma = np.linalg.svd(matricize(build(rho), part), compute_uv=False)
    return float((sigma.sum() ** 2 - (sigma**2).sum()) / 2)


def _one_sided_oracle(rho):
    """Closed form for h = 1, p = 2 with one measured qubit on side A:
    tr K - lambda_max(K), K = T[1:,:] T[1:,:]^T (Dakic-Vedral-Brukner)."""
    t = matricize(build(rho), Bipartition.of((0,), 2))
    k = t[1:, :] @ t[1:, :].T
    return float(np.trace(k) - np.linalg.eigvalsh(k).max())


def _discord_op(label, solve, check_value):
    def check(res):
        reason = check_value(res.value)
        return [f"{label}: {reason}"] if reason else []

    def warm_up():
        solve(0)

    return Op(label, solve, check, warm_up)


def discord_workload(seed, workdir, small=False):
    """Every discord op is one solve with OptimizerCfg(restarts=8, seed)."""
    restarts = 1 if small else DISCORD_RESTARTS

    def opt(r):
        # each round starts the optimizer from other points
        return discord.OptimizerCfg(restarts=restarts, seed=round_seed(seed, r))

    def near(ref, tol):
        # ref is read at check time, so a changed module constant shows
        return lambda v: None if abs(v - ref()) <= tol else f"value {v!r} != {ref()!r}"

    h2p1 = CmnParams(2, 1.0)
    ab = Bipartition.of((0,), 2)
    a_bc = Bipartition.of((0,), 3)
    bell = zoo.bell(1).to_density()
    cc = zoo.from_name("classical-cc")
    ghz3 = zoo.ghz(3).to_density()
    ghz_top = _undisturbed_s2(ghz3, a_bc)

    def in_range(v):
        if -RANGE_TOL <= v <= ghz_top + RANGE_TOL:
            return None
        return f"value {v!r} outside [0, {ghz_top!r}]"

    ops = [
        _discord_op("bell-global", lambda r: discord.global_discord_cmn(bell, ab, h2p1, opt(r)),
                    near(lambda: BELL_DISCORD, DISCORD_TOL)),
        _discord_op("classical-cc-global",
                    lambda r: discord.global_discord_cmn(cc, ab, h2p1, opt(r)),
                    near(lambda: CLASSICAL_DISCORD, DISCORD_TOL)),
        _discord_op("ghz3-global-A|BC",
                    lambda r: discord.global_discord_cmn(ghz3, a_bc, h2p1, opt(r)), in_range),
    ]
    for dims, sub_seed in zip([(2, 2), (2, 3)], child_seeds(seed, 2)):
        rho = zoo.random_density(dims, int(np.prod(dims)), sub_seed)
        oracle = _one_sided_oracle(rho)

        def solve(r, rho=rho):
            return discord.bipartite_discord_cmn(rho, ab, "a", CmnParams(1, 2.0), opt(r))

        ops.append(_discord_op(f"random-{dims[0]}{dims[1]}-side-a", solve,
                               near(lambda oracle=oracle: oracle, ORACLE_TOL)))
    if small:
        ops = [ops[1], ops[3]]

    def tally(op, res, counts):
        counts["discord.evaluations"] += res.evaluations

    # every solve runs from at least four optimizer seeds
    return Workload(ops, 1 if small else 4, tally)


WORKLOADS = {"analyze": analyze, "audit": audit_workload, "discord": discord_workload}
