"""Command-line front-end: load states from JSON files or the zoo, run
detection, discord and audits, and emit machine-readable reports.

Exit codes: 0 success, 2 invalid input, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import report, zoo
from .audit import AuditInputError, separability_audit
from .bounds import DetectConfig, detect
from .cmn import CmnParams
from .discord import OptimizerCfg, global_discord_cmn
from .linalg import DensityMatrix, ValidationError
from .normal_form import FilteringError
from .tensor import Bipartition, iter_bipartitions

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3
# the FNF/SFNF residuals of states in normal form sit at rounding level
# (3.1e-17 on rho1), so a smaller --tolerance makes every bound inconclusive
MIN_TOLERANCE = 1e-15


class InputError(Exception):
    pass


def state_to_statefile(rho: DensityMatrix) -> dict:
    matrix = [
        {"re": float(z.real), "im": float(z.imag)} for z in rho.data.reshape(-1)
    ]
    return {"dims": list(rho.dims), "matrix": matrix}


_ENTRY = '\n    {\n      "re": %.17g,\n      "im": %.17g\n    }'


def statefile_text(rho: DensityMatrix) -> str:
    """The state file of ``rho``: ``report.dumps(state_to_statefile(rho))``,
    written directly from the matrix entries (finite, as a DensityMatrix's
    are). Its text is what the input digest hashes."""
    flat = rho.data.reshape(-1)
    parts = np.stack([flat.real, flat.imag], axis=1).reshape(-1).tolist()
    dims = ",".join(f"\n    {d}" for d in rho.dims)
    matrix = ",".join([_ENTRY] * len(flat)) % tuple(parts)
    return f'{{\n  "dims": [{dims}\n  ],\n  "matrix": [{matrix}\n  ]\n}}'


def _entry(i, e):
    """Matrix entry ``i`` of a state file, the object {"re": x, "im": y} of two
    JSON numbers, as x + iy."""
    try:
        if bool in (type(e["re"]), type(e["im"])):  # bool is a subclass of int
            raise TypeError("a boolean is not a number")
        return complex(e["re"], e["im"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f'malformed state file: matrix entry {i} is not '
                         f'{{"re": number, "im": number}}') from exc
    except OverflowError as exc:  # an integer beyond the float range
        raise InputError(f"malformed state file: matrix entry {i} is too large "
                         f"for a float") from exc


def _matrix(entries):
    """The matrix entries of a state file as complex numbers, read in bulk
    when every entry is {"re": x, "im": y} of two JSON numbers; else one by
    one with :func:`_entry`, which names the first bad entry."""
    try:
        re, im = [e["re"] for e in entries], [e["im"] for e in entries]
        if {*map(type, re), *map(type, im)} <= {int, float}:  # bool is not a number here
            flat = np.empty(len(entries), dtype=complex)
            flat.real, flat.imag = re, im
            return flat
    except (KeyError, TypeError, OverflowError):
        pass
    return np.array([_entry(i, e) for i, e in enumerate(entries)], dtype=complex)


def statefile_to_state(doc) -> DensityMatrix:
    try:
        if not isinstance(doc, dict):
            raise InputError("malformed state file: the top level must be a JSON object")
        dims = doc["dims"]
        # a JSON list of JSON integers; bool is a subclass of int
        if not isinstance(dims, list) or any(type(d) is not int for d in dims):
            raise InputError(f'malformed state file: "dims" must be a list of integers, '
                             f'got {json.dumps(dims)}')
        dims = tuple(dims)
        entries = doc["matrix"]
        if not isinstance(entries, list):
            raise InputError(f'malformed state file: "matrix" must be a list, '
                             f'got {json.dumps(entries)}')
        # a negative dimension is for DensityMatrix's dims check to reject
        side = abs(math.prod(dims))
        if len(entries) != side * side:
            raise InputError(
                f"matrix has {len(entries)} entries, expected {side * side}"
            )
        flat = _matrix(entries)
    except KeyError as exc:
        raise InputError(f"malformed state file: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed state file: {exc}") from exc
    try:
        return DensityMatrix(dims, flat.reshape(side, side))
    except ValidationError as exc:
        raise InputError(f"invalid density matrix: {exc}") from exc


def load_state(path: str) -> tuple:
    """Load a state from a file path, '-' (stdin) or a zoo: URI.

    Returns (state, canonical payload string used for the input digest).
    """
    if path.startswith("zoo:"):
        try:
            rho = zoo.from_name(path[4:])
        except KeyError as exc:  # str() of a KeyError is the repr of its message
            raise InputError(exc.args[0]) from exc
    else:
        if path == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(path) as fh:
                    text = fh.read()
            except OSError as exc:
                raise InputError(f"cannot read {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"state file is not valid JSON: {exc}") from exc
        except ValueError as exc:  # raised by int() for an over-long integer
            raise InputError(f"malformed state file: an integer has more than "
                             f"{sys.get_int_max_str_digits()} digits") from exc
        except RecursionError as exc:
            raise InputError("malformed state file: nested deeper than the JSON "
                             "decoder can follow") from exc
        rho = statefile_to_state(doc)
    if len(rho.dims) < 2:
        raise InputError(f"need at least two parties, got dims {list(rho.dims)}")
    return rho, statefile_text(rho)


def _parse_p(text):
    if text in ("inf", "infinity"):
        return math.inf
    try:
        val = float(text)
    except ValueError:
        raise InputError(f"invalid p value {text!r}")
    if not val > 0:  # also rejects nan
        raise InputError(f"p must be positive, got {text!r}")
    return val


def _seed(args):
    """--seed, else the CMNLAB_SEED environment variable, else 0."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CMNLAB_SEED") or "0"
    if not env.isdecimal():
        raise InputError(f"CMNLAB_SEED must be a non-negative integer, got {env!r}")
    try:
        return int(env)
    except ValueError as exc:  # more digits than int() reads
        raise InputError(f"CMNLAB_SEED has {len(env)} digits, more than "
                         f"{sys.get_int_max_str_digits()}") from exc


def _write(args, text):
    if args.output:
        _write_file(args.output, text + "\n")
    else:
        print(text)


def _write_file(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def cmd_analyze(args):
    if args.h is not None and args.h < 1:
        raise InputError(f"--h must be at least 1, got {args.h}")
    rho, payload = load_state(args.state)
    start = time.perf_counter()
    ps = DetectConfig.ps if args.p == "both" else (_parse_p(args.p),)
    if not MIN_TOLERANCE <= args.tolerance < math.inf:  # also rejects nan
        raise InputError(f"--tolerance must be finite and at least {MIN_TOLERANCE:g}, "
                         f"got {args.tolerance!r}")
    cfg = DetectConfig(
        h=args.h,
        ps=ps,
        filter=not args.no_filter,
        recursive=not args.no_recursive,
        fnf_tol=args.tolerance,
    )
    verdict = report.verdict_to_dict(detect(rho, cfg))
    doc = report.document(
        "analyze",
        report.input_digest(payload),
        {"verdict": verdict},
        timing=time.perf_counter() - start,
    )
    if args.csv:
        _write_file(args.csv, report.verdict_to_csv(verdict))
    _write(args, report.dumps(doc))
    return EXIT_OK


def cmd_discord(args):
    rho, payload = load_state(args.state)
    start = time.perf_counter()
    p = _parse_p(args.p)
    seed = _seed(args)
    try:
        opt = OptimizerCfg(restarts=args.restarts, seed=seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    n = len(rho.dims)
    if args.partition:
        try:
            parts = [Bipartition.of([int(s) for s in args.partition.split(",")], n)]
        except ValueError as exc:
            raise InputError(f"invalid --partition {args.partition!r}: {exc}") from exc
    else:
        parts = iter_bipartitions(n)
    h = args.h if args.h is not None else 2
    try:
        params = CmnParams(h, p)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    for part in parts:
        d_min = min(part.side_dims(rho.dims))
        if h > d_min**2:
            raise InputError(f"h={h} exceeds d^2={d_min**2} for partition {part.label()}")
    results = [
        report.discord_result_to_dict(global_discord_cmn(rho, part, params, opt), part.label())
        for part in parts
    ]
    doc = report.document(
        "discord",
        report.input_digest(payload),
        {"h": h, "p": args.p, "seed": seed, "results": results},
        timing=time.perf_counter() - start,
    )
    _write(args, report.dumps(doc))
    return EXIT_OK


def cmd_audit(args):
    start = time.perf_counter()
    seed = _seed(args)
    rep = separability_audit(args.family, args.criterion, args.trials, seed)
    doc = report.document(
        "audit",
        report.input_digest(f"{args.family}:{args.criterion}:{args.trials}:{seed}"),
        {"audit": report.audit_report_to_dict(rep)},
        timing=time.perf_counter() - start,
    )
    _write(args, report.dumps(doc))
    return EXIT_OK


def cmd_zoo(args):
    if args.action == "list":
        _write(args, "\n".join(sorted(zoo.ZOO)))
        return EXIT_OK
    if not args.name:
        raise InputError("zoo emit requires a state name")
    _write(args, load_state("zoo:" + args.name)[1])
    return EXIT_OK


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each parse fills a new namespace."""
    parser = argparse.ArgumentParser(
        prog="cmnlab",
        description="Multipartite entanglement detection and global discord "
        "via correlation minor norms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run all separability criteria on a state")
    pa.add_argument("state", help="state file path, '-' for stdin, or zoo:NAME")
    pa.add_argument("--h", type=int, default=None, help="minor order (default d^2)")
    pa.add_argument("--p", default="both", help="Schatten exponent: inf, 1, finite, or 'both'")
    pa.add_argument("--no-filter", action="store_true", help="skip SLOCC filtering")
    pa.add_argument("--no-recursive", action="store_true",
                    help="skip the recursive reduced-state sweep")
    pa.add_argument("--tolerance", type=float, default=DetectConfig.fnf_tol)
    pa.add_argument("--csv", help="also write a flat CSV of bound reports")
    pa.add_argument("--output", help="write the JSON report to a file")
    pa.set_defaults(func=cmd_analyze)

    pd = sub.add_parser("discord", help="CMN-based global quantum discord")
    pd.add_argument("state")
    pd.add_argument("--h", type=int, default=None)
    pd.add_argument("--p", default="1")
    pd.add_argument("--partition", help="comma-separated party indices of side A")
    pd.add_argument("--restarts", type=int, default=OptimizerCfg.restarts)
    pd.add_argument("--seed", type=int, help="default: $CMNLAB_SEED, else 0")
    pd.add_argument("--output")
    pd.set_defaults(func=cmd_discord)

    pu = sub.add_parser("audit", help="Monte Carlo soundness audit")
    pu.add_argument("family")
    pu.add_argument("criterion")
    pu.add_argument("--trials", type=int, default=1000)
    pu.add_argument("--seed", type=int, help="default: $CMNLAB_SEED, else 0")
    pu.add_argument("--output")
    pu.set_defaults(func=cmd_audit)

    pz = sub.add_parser("zoo", help="list or emit named states")
    pz.add_argument("action", choices=["list", "emit"])
    pz.add_argument("name", nargs="?")
    pz.add_argument("--output")
    pz.set_defaults(func=cmd_zoo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, AuditInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (np.linalg.LinAlgError, FloatingPointError, ValidationError, FilteringError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
