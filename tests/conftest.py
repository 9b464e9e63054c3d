import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from cmnlab import audit, report
from cmnlab.discord import _projector_coordinates, unitaries_from_angles
from cmnlab.linalg import _PAULI, hermitize
from cmnlab.zoo import random_density  # noqa: F401  (test modules import it from here)


# ROADMAP item 1's repro states, from the one builder that
# tools/same_answers.py and tools/perf.py also read
_spec = importlib.util.spec_from_file_location(
    "same_answers", Path(__file__).resolve().parents[1] / "tools" / "same_answers.py")
_same_answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_same_answers)
item1_state = _same_answers.slocc_rho1


def sfnf_residual(t):
    """Largest |entry| of the correlation tensor ``t`` with at least one
    identity index, vertex excluded, read through one mask: the oracle for
    detect's SFNF gate, the largest FNF residual over the cuts."""
    mask = np.zeros(t.data.shape, dtype=bool)
    for axis in range(t.n_parties):
        sl = [slice(None)] * t.n_parties
        sl[axis] = 0
        mask[tuple(sl)] = True
    mask[(0,) * t.n_parties] = False
    return float(np.abs(t.data[mask]).max())


def fnf_residual(t, part):
    """Largest |entry| of the correlation tensor ``t`` whose non-identity
    indices all lie on one side of the cut ``part``, vertex excluded: the
    one-cut oracle for ``normal_form.fnf_residuals``, zero iff both side
    reductions are maximally mixed, which is FNF across the cut."""
    worst = 0.0
    for side in (part.side_a, part.side_b):
        face = np.abs(t.data[tuple(slice(None) if i in side else 0 for i in range(t.n_parties))])
        face[(0,) * len(side)] = 0  # the vertex
        worst = max(worst, float(face.max()))
    return worst


def trace_distance(a, b):
    """(1/2)·||a - b||_1 for Hermitian matrices."""
    eig = np.linalg.eigvalsh(hermitize(np.asarray(a) - np.asarray(b)))
    return float(np.abs(eig).sum() / 2)


def pauli(which):
    """One of the Pauli matrices 'x', 'y', 'z' (unnormalized)."""
    return _PAULI[which].copy()


def unitary_from_angles(d, angles):
    """The unitary of ``discord.unitaries_from_angles`` for one angle vector."""
    return unitaries_from_angles(d, np.reshape(angles, (1, -1)))[0]


def correlation_space_map(family, party):
    """Matrix of the measurement channel acting on one party's correlation
    coordinates; its largest singular value is 1 for projective families."""
    v = _projector_coordinates(family.projectors[party])
    return v @ v.T


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
def fresh_audit_chunks():
    """Every test starts with no audit chunk held, so a test that patches a
    sampler, ``filter_stack`` or ``CHUNK`` sees its patch run, whatever ran
    before it."""
    audit._chunk.cache_clear()


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
