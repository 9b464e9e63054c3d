"""Print one ``label sha256`` line per artifact of a fixed corpus, so that two
versions of cmnlab give the same answers exactly when their outputs diff
clean:

    python3 tools/same_answers.py > new.txt
    python3 tools/same_answers.py --src ../other/src > old.txt
    diff old.txt new.txt

The corpus: ``cmnlab analyze`` JSON (cut before its timing) and CSV under
five option sets, on the zoo, GHZ-3..6, W-3..5 and seeded random states at
full rank and rank 2, and under the default options on ``slocc_rho1``
states (ill-conditioned filtering); every acceptance soundness audit at
seed 2026; global and one-sided discord solves; and, in the full corpus
only, ``cmnlab zoo emit`` of every zoo state (exit code and stdout),
``cmnlab`` runs that exit with an input error and ``cmnlab analyze`` on
state files at the edges of the state checks (exit code and stderr). An
artifact whose command raises one of cmnlab's typed errors is recorded as
``raised <Type>: <message>``. ``--small`` runs a subset in a few seconds.
``--text`` prints each artifact's text, as one JSON string, in place of its
sha256, so that two versions whose lines differ can be compared value by
value:

    python3 tools/same_answers.py --text > new.txt

Needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile

ANALYZE_OPTIONS = {
    "default": [],
    "h2": ["--h", "2"],
    "p1": ["--p", "1"],
    "pinf-h3": ["--p", "inf", "--h", "3"],
    "no-filter": ["--no-filter"],
}
RANDOM_DIMS = [(2, 2, 2), (2, 2, 3), (2, 2, 2, 2), (2, 3), (3, 3), (2, 3, 3), (2, 2, 2, 2, 2)]
# the (family, criteria, trials) of the acceptance soundness audits
AUDITS = [
    ("fully-separable-sfnf-222", ("cmn-full-inf", "cmn-full-p1", "dvh-full"), 10_000),
    ("fully-separable-sfnf-223", ("cmn-full-inf", "cmn-full-p1", "dvh-full"), 2_000),
    ("biseparable-filtered-222", ("cmn-bisep-inf", "cmn-bisep-p1"), 10_000),
    ("biseparable-filtered-223", ("cmn-bisep-inf", "cmn-bisep-p1"), 2_000),
]
SEED = 2026
# the seeds of the slocc_rho1 states (ROADMAP item 1's repro)
SLOCC_RHO1_SEEDS = (41, 104, 196)
# state files that are not valid input: a negative party dimension; |00><00|
# with its entries spelled as JSON booleans; an entry that is an integer
# beyond the float range; an integer in "matrix", then in "dims", with
# more digits than int() reads; and arrays nested deeper than the JSON
# decoder's recursion limit
BAD_STATE_FILES = {
    "negative-dims": '{"dims": [-2, 2], "matrix": [%s]}' % ", ".join(
        ['{"re": 0.25, "im": 0}' if i % 5 == 0 else '{"re": 0, "im": 0}' for i in range(16)]),
    "boolean-entries": '{"dims": [2, 2], "matrix": [%s]}' % ", ".join(
        ['{"re": true, "im": false}'] + ['{"re": false, "im": false}'] * 15),
    "entry-beyond-float": '{"dims": [2, 2], "matrix": [%s]}' % ", ".join(
        ['{"re": 1%s, "im": 0}' % ("0" * 400)] + ['{"re": 0, "im": 0}'] * 15),
    "matrix-integer-past-digit-limit": '{"dims": [2, 2], "matrix": [%s]}' % ", ".join(
        ['{"re": 1%s, "im": 0}' % ("0" * 4300)] + ['{"re": 0, "im": 0}'] * 15),
    "dims-integer-past-digit-limit": '{"dims": [2, 1%s], "matrix": []}' % ("0" * 4300),
    "nested-too-deep": "[" * 100_000,
}


def edge_state_files():
    """Case -> text of state files at the edges of the state checks: dims
    whose product wraps to 4 in int64, a trace 5e-11 from 1, a matrix 0.9e-10
    from Hermitian, a state of min eigenvalue -9e-10 whose reduction to
    parties A, B has -1.8e-9, and a state 0.9e-10 from Hermitian whose
    reductions to A, B and A, C are 1.8e-10 from it."""
    import numpy as np

    x = np.array([[0, 1], [1, 0]])
    eps = 3.6e-9
    cases = {
        "dims-overflow-int64": ([4611686018427387905, 4], np.eye(4) / 4),
        "trace-off": ([2, 2, 2], np.eye(8) / 8 * (1 + 5e-11)),
        "hermitian-off": ([2, 2, 2], np.eye(8) / 8 + 0.45e-10j * np.kron(np.kron(x, x), x)),
        "reduction-not-psd": ([2, 2, 2], (
            (1 + eps) * np.kron(np.diag([0, 1]), np.diag([0.1, 0.2, 0.3, 0.4]))
            - eps * np.kron(np.diag([1, 0]), np.eye(4) / 4))),
        "reduction-not-hermitian": (
            [2, 2, 2], np.eye(8) / 8 + 0.45e-10 * np.kron([[0, 1], [-1, 0]], np.eye(4))),
    }
    return {case: json.dumps({"dims": dims, "matrix": [
        {"re": float(z.real), "im": float(z.imag)} for z in np.ravel(m)]})
        for case, (dims, m) in cases.items()}


# (case, argv) of the other runs that exit with an input error
ERROR_RUNS = [
    ("zoo-emit-nope", ["zoo", "emit", "nope"]),
    ("analyze-zoo-nope", ["analyze", "zoo:nope"]),
    ("audit-unknown-family", ["audit", "nope", "cmn-full-inf"]),
    ("audit-unknown-criterion", ["audit", "fully-separable-sfnf-222", "nope"]),
    ("audit-full-criterion-on-bisep",
     ["audit", "biseparable-filtered-222", "cmn-full-inf", "--trials", "1"]),
]


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(run):
    """``run()``, or ``raised <Type>: <message>`` if it raises an exception:
    one of cmnlab's typed errors (a ValueError, numpy's LinAlgError among
    them, or a RuntimeError) or any other, so that a crash is one line of
    the corpus and not the end of it."""
    try:
        return run()
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


def states(small):
    """(label, state, analyze option names) triples: the zoo, GHZ-n, W-n and
    seeded random states under every option set, and the SLOCC-filtered
    rho1 states under the default options."""
    from cmnlab import zoo

    out = [(f"zoo:{name}", zoo.from_name(name)) for name in sorted(zoo.ZOO)]
    out += [(f"ghz-{n}", zoo.ghz(n).to_density()) for n in ((3,) if small else (3, 4, 5, 6))]
    out += [(f"w-{n}", zoo.w_state(n).to_density()) for n in ((3,) if small else (3, 4, 5))]
    for i, dims in enumerate(RANDOM_DIMS[:1] if small else RANDOM_DIMS):
        for rank in (math.prod(dims), 2):
            label = f"random-{''.join(map(str, dims))}-rank{rank}"
            out.append((label, zoo.random_density(dims, rank, SEED + i)))
    out = [(label, rho, list(ANALYZE_OPTIONS)) for label, rho in out]
    if not small:
        out += [(f"slocc-rho1-{seed}", slocc_rho1(seed), ["default"])
                for seed in SLOCC_RHO1_SEEDS]
    return out


def slocc_rho1(seed):
    """rho1 with party p = 0, 1, 2 in turn conjugated by q diag(1, 10^-e) q†,
    q the QR factor of a complex Gaussian 2x2 matrix and e uniform in
    [0.5, 3.5), all from default_rng(seed); then divided by its trace and
    hermitized. Bi-separable across every cut, with ill-conditioned filters."""
    import numpy as np

    from cmnlab import zoo
    from cmnlab.linalg import DensityMatrix, apply_local, hermitize

    rng = np.random.default_rng(seed)
    data = zoo.rho1().data
    for p in range(3):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        e = rng.uniform(0.5, 3.5)
        data = apply_local(q @ np.diag([1, 10**-e]) @ q.conj().T, data, (p,), (2, 2, 2))
    return DensityMatrix((2, 2, 2), hermitize(data / data.trace().real))


def analyze_lines(small, tmp):
    from cmnlab import cli

    csv = os.path.join(tmp, "out.csv")

    def analyze(path, options):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["analyze", path, "--csv", csv] + options)
        text = out.getvalue()
        cut = text.rfind('"timing_seconds"')
        with open(csv) as fh:
            return f"{code} {text[:cut] if cut >= 0 else text}", fh.read()

    for label, rho, names in states(small):
        path = label if label.startswith("zoo:") else os.path.join(tmp, "state.json")
        if path != label:
            with open(path, "w") as fh:
                fh.write(cli.statefile_text(rho))
        for name in names:
            texts = outcome(lambda: analyze(path, ANALYZE_OPTIONS[name]))
            json_text, csv_text = (texts, texts) if isinstance(texts, str) else texts
            yield f"analyze/{label}/{name}/json", json_text
            yield f"analyze/{label}/{name}/csv", csv_text
            if os.path.exists(csv):
                os.remove(csv)


def audit_lines(small):
    from cmnlab import report
    from cmnlab.audit import separability_audit

    for family, criteria, trials in AUDITS:
        for criterion in criteria:
            rep = outcome(lambda: report.dumps(dataclasses.asdict(
                separability_audit(family, criterion, 50 if small else trials, SEED))))
            yield f"audit/{family}/{criterion}", rep


def discord_lines(small):
    from cmnlab import report, zoo
    from cmnlab.cmn import CmnParams
    from cmnlab.discord import OptimizerCfg, bipartite_discord_cmn, global_discord_cmn
    from cmnlab.tensor import Bipartition

    opt = OptimizerCfg(restarts=4, seed=SEED)
    cases = [("bell", zoo.bell(1).to_density()), ("classical-cc", zoo.from_name("classical-cc"))]
    if not small:
        cases += [("ghz-3", zoo.ghz(3).to_density()),
                  ("random-22", zoo.random_density((2, 2), 4, SEED)),
                  ("random-23", zoo.random_density((2, 3), 6, SEED))]
    for label, rho in cases:
        part = Bipartition.of((0,), len(rho.dims))
        params = CmnParams(2, 1.0)
        solves = [("global", lambda: global_discord_cmn(rho, part, params, opt))]
        solves += [(f"side-{side}",
                    lambda side=side: bipartite_discord_cmn(rho, part, side, params, opt))
                   for side in ("a", "b")]
        for kind, solve in solves:
            text = outcome(lambda: report.dumps(
                report.discord_result_to_dict(solve(), part.label())))
            yield f"discord/{label}/{part.label()}/{kind}", text


def cli_lines(small, tmp):
    from cmnlab import cli, zoo

    def run(argv, stream):
        """The exit code, a space and what the run wrote to ``stream``."""
        out = {"stdout": io.StringIO(), "stderr": io.StringIO()}
        with contextlib.redirect_stdout(out["stdout"]), contextlib.redirect_stderr(out["stderr"]):
            code = cli.main(argv)
        return f"{code} {out[stream].getvalue()}"

    if small:
        return
    for name in sorted(zoo.ZOO):
        yield f"cli/zoo-emit/{name}", outcome(lambda: run(["zoo", "emit", name], "stdout"))
    for case, argv in ERROR_RUNS:
        yield f"cli/error/{case}", outcome(lambda: run(argv, "stderr"))
    path = os.path.join(tmp, "bad.json")
    for case, text in {**BAD_STATE_FILES, **edge_state_files()}.items():
        with open(path, "w") as fh:
            fh.write(text)
        yield f"cli/error/{case}", outcome(lambda: run(["analyze", path], "stderr"))


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--small", action="store_true", help="a subset that runs in seconds")
    parser.add_argument("--text", action="store_true",
                        help="print each artifact's text as a JSON string, not its sha256")
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="the source tree to import cmnlab from (default: this repo's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    with tempfile.TemporaryDirectory() as tmp:
        for lines in (analyze_lines(args.small, tmp), audit_lines(args.small),
                      discord_lines(args.small), cli_lines(args.small, tmp)):
            for label, text in lines:
                print(label, json.dumps(text) if args.text else sha(text), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
