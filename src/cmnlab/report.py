"""Machine-readable report documents: JSON serialization with 17-significant
-digit floats (round-trip exact for doubles) and a flat CSV export."""

from __future__ import annotations

import hashlib
import json
import math

from . import __version__

SCHEMA_VERSION = 2


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps(obj, indent=0) -> str:
    """Serialize dicts/lists/scalars to JSON, printing every float with 17
    significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{dumps(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def input_digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def bound_report_to_dict(r):
    return {
        "partition": r.partition_label(),
        "criterion": r.criterion,
        "value": r.value,
        "bound": r.bound,
        "violated": r.violated,
        "saturated": r.saturated,
        "preconditions_met": r.preconditions_met,
        "reason": r.reason,
    }


def verdict_to_dict(v):
    """The verdict, with one flat ``reduced`` entry per distinct reduced state
    in first-visit order. An entry's ``parties`` are 0-based indices into
    ``v``'s parties, and its partition labels are its own (A is parties[0])."""
    return {
        "dims": list(v.dims),
        "reports": [bound_report_to_dict(r) for r in v.reports],
        "reduced": [
            {
                "parties": list(parties),
                "dims": list(sub.dims),
                "reports": [bound_report_to_dict(r) for r in sub.reports],
                "not_fully_separable": sub.not_fully_separable,
                "bi_entangled_partitions": list(sub.bi_entangled_partitions),
            }
            for parties, sub in v.subsets()
        ],
        "not_fully_separable": v.not_fully_separable,
        "bi_entangled_partitions": list(v.bi_entangled_partitions),
    }


def discord_result_to_dict(res, partition_label):
    return {
        "partition": partition_label,
        "value": res.value,
        "evaluations": res.evaluations,
        "converged": res.converged,
        "best_angles": list(res.best_angles),
        "restart_spread": res.restart_spread,
    }


def audit_report_to_dict(r):
    return {
        "family": r.family,
        "criterion": r.criterion,
        "trials": r.trials,
        "violations": r.violations,
        "worst_margin": r.worst_margin,
        "seed": r.seed,
        "rejected": r.rejected,
        "worst_seed": r.worst_seed,
    }


def document(kind, digest, body, timing=None):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "kind": kind,
        "input_digest": digest,
    }
    doc.update(body)
    if timing is not None:
        doc["timing_seconds"] = timing
    return doc


def verdict_to_csv_rows(v):
    """One row per (partition, criterion), for the state and then for each
    distinct reduced state once, in the order of ``verdict_to_dict``. The
    last column lists the row set's parties as 0-based indices into ``v``'s
    parties, space-separated."""
    rows = []
    for parties, verdict in [(range(len(v.dims)), v)] + v.subsets():
        party_list = " ".join(map(str, parties))
        for r in verdict.reports:
            rows.append(
                [
                    r.partition_label(),
                    r.criterion,
                    _format_float(r.value).strip('"'),
                    _format_float(r.bound).strip('"'),
                    str(r.violated).lower(),
                    str(r.saturated).lower(),
                    str(r.preconditions_met).lower(),
                    party_list,
                ]
            )
    return rows
