"""tools/same_answers.py prints one ``label sha256`` line per artifact, and
the same lines on every run."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_answers.py"


def test_small_corpus_is_stable():
    runs = [subprocess.run([sys.executable, str(TOOL), "--small"], capture_output=True,
                           text=True, timeout=120, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    labels = [line.split()[0] for line in lines]
    assert len(set(labels)) == len(labels)
    kinds = [label.split("/")[0] for label in labels]
    # 13 states under 5 option sets, JSON and CSV; 10 audits; 2 states x 3 solves
    assert [kinds.count(k) for k in ("analyze", "audit", "discord")] == [130, 10, 6]
    assert "analyze/w-3/default/json" in labels


def _load_tool():
    import importlib.util

    spec = importlib.util.spec_from_file_location("same_answers", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def raising(exc):
    def run():
        raise exc
    return run


def test_typed_errors_are_recorded_as_raised():
    from cmnlab.linalg import ValidationError
    from cmnlab.normal_form import FilteringError

    tool = _load_tool()

    assert tool.outcome(lambda: "text") == "text"
    assert tool.outcome(raising(ValidationError("not Hermitian"))) == (
        "raised ValidationError: not Hermitian")
    assert tool.outcome(raising(FilteringError("stalled"))) == "raised FilteringError: stalled"


def test_any_exception_is_one_line_of_the_corpus():
    # a run that crashes with an untyped error becomes its own line; only what
    # is not an Exception (an interrupt, an exit) still ends the corpus
    tool = _load_tool()

    assert tool.outcome(raising(IndexError("index 2 is out of bounds"))) == (
        "raised IndexError: index 2 is out of bounds")
    assert tool.outcome(raising(TypeError("a bug"))) == "raised TypeError: a bug"
    with pytest.raises(KeyboardInterrupt):
        tool.outcome(raising(KeyboardInterrupt()))


def test_text_lines_hash_to_the_sha_lines():
    """--text prints each artifact's text as one JSON string after its label;
    its sha256 is that label's line without --text."""
    import hashlib
    import json

    shas, texts = [subprocess.run([sys.executable, str(TOOL), "--small", *extra],
                                  capture_output=True, text=True, timeout=120,
                                  check=True).stdout.splitlines()
                   for extra in ([], ["--text"])]
    assert len(texts) == len(shas)
    for sha_line, text_line in zip(shas, texts):
        label, text = text_line.split(" ", 1)
        assert sha_line == f"{label} {hashlib.sha256(json.loads(text).encode()).hexdigest()}"
