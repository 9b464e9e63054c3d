import json

import numpy as np
import pytest

from cmnlab import report
from cmnlab.zoo import random_density  # noqa: F401  (test modules import it from here)


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


def dumps_oracle(obj, indent=0) -> str:
    """The recursive serializer ``report.dumps`` replaced: one ``json.dumps``
    per key and per string, isinstance dispatch throughout."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {dumps_oracle(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{dumps_oracle(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return report._format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


@pytest.fixture(autouse=True)
def dumps_matches_oracle(monkeypatch):
    """Every document a test serializes (analyze, discord, audit, state
    files) is checked byte for byte against :func:`dumps_oracle`."""
    fast = report.dumps

    def checked(obj):
        text = fast(obj)
        assert text == dumps_oracle(obj)
        return text

    monkeypatch.setattr(report, "dumps", checked)
