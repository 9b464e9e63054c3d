"""The benchmark's contract with cmnlab: every name bench/ reaches still
resolves, tracing leaves no wrapper behind, and each workload's minimal
round passes its own checks. bench/ itself is imported, never changed."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_and_uninstalls_cleanly():
    modules = tracer.load_modules()
    t = tracer.Tracer(modules)
    t.install()
    t.uninstall()
    tracer.assert_untraced(modules)


def test_traced_names_resolve():
    names = [f"{m}.{a}" for m, a in tracer.SELF_CALLS + tracer.VALIDATED]
    names += list(tracer.ZOO_SAMPLERS) + list(tracer.MEASUREMENT_BUILD)
    for name in names:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"cmnlab.{module}"), attr)), name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_workload_passes_its_checks(name, tmp_path):
    work = workloads.WORKLOADS[name](1, str(tmp_path), small=True)
    for op in work.ops:
        op.warm_up()
        assert op.check(op.run(0)) == [], op.label
