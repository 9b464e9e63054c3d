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


# what json.dumps returns for a str at its default ensure_ascii
_encode_str = json.encoder.encode_basestring_ascii
_SCALARS = {True: "true", False: "false", None: "null"}
# the text of a scalar, by its exact type
_SCALAR_TEXT = {str: _encode_str, float: _format_float, int: str,
                bool: _SCALARS.__getitem__, type(None): _SCALARS.__getitem__}


def dumps(obj) -> str:
    """Serialize dicts/lists/scalars to JSON, printing every float with 17
    significant digits. A list object that the document holds more than once
    is written once per nesting depth, and its text reused."""
    out = []
    _dump(obj, "", out, {})
    return "".join(out)


def _dump(obj, pad, out, lists):
    """Append the JSON text of ``obj``, nested at ``pad``, to ``out``.
    ``lists`` maps (id, pad) of each list already written to its text; the
    document keeps every object alive, so no id is reused within one call."""
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        out.append(text(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner, sep = pad + "  ", "{\n"
        for k, v in obj.items():
            out.append(f"{sep}{inner}{_encode_str(str(k))}: ")
            text = _SCALAR_TEXT.get(type(v))
            if text is None:
                _dump(v, inner, out, lists)
            else:  # a scalar value is written here, without a call
                out.append(text(v))
            sep = ",\n"
        out.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        key = (id(obj), pad)
        if key not in lists:
            inner, sep, text = pad + "  ", "[\n", []
            for v in obj:
                text.append(sep + inner)
                _dump(v, inner, text, lists)
                sep = ",\n"
            text.append(f"\n{pad}]")
            lists[key] = "".join(text)
        out.append(lists[key])
    else:
        out.append(json.dumps(obj))


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
    ``v``'s parties, and its partition labels are its own (A is parties[0]).
    The entries whose verdicts share one reports tuple share one list."""
    lists = {}  # id of a reports tuple -> its list

    def reports(verdict):
        key = id(verdict.reports)
        if key not in lists:
            lists[key] = [bound_report_to_dict(r) for r in verdict.reports]
        return lists[key]

    return {
        "dims": list(v.dims),
        "reports": reports(v),
        "reduced": [
            {
                "parties": list(parties),
                "dims": list(sub.dims),
                "reports": reports(sub),
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
        "restart_evaluations": list(res.restart_evaluations),
        "restart_values": list(res.restart_values),
        "method": res.method,
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


def document(kind, digest, body, timing):
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "kind": kind,
        "input_digest": digest,
        **body,
        "timing_seconds": timing,
    }


def verdict_to_csv(doc):
    """The CSV text of a :func:`verdict_to_dict` document: a header line,
    then one line per report, for the state and then for each ``reduced``
    entry in order. The last column lists the row set's parties as 0-based
    indices into the state's parties, space-separated."""
    lines = ["partition,criterion,value,bound,violated,saturated,preconditions_met,parties"]
    rows = {}  # id of a reports list -> its rows up to the parties column
    whole = [(range(len(doc["dims"])), doc["reports"])]
    for parties, reports in whole + [(e["parties"], e["reports"]) for e in doc["reduced"]]:
        if id(reports) not in rows:
            rows[id(reports)] = [",".join([
                r["partition"],
                r["criterion"],
                _format_float(r["value"]).strip('"'),
                _format_float(r["bound"]).strip('"'),
                _SCALARS[r["violated"]],
                _SCALARS[r["saturated"]],
                _SCALARS[r["preconditions_met"]],
            ]) for r in reports]
        party_list = " ".join(map(str, parties))
        lines.extend(f"{row},{party_list}" for row in rows[id(reports)])
    return "\n".join(lines) + "\n"
