"""Smoke check of the benchmark's own code.

Runs every workload of BENCHMARK.json on its minimal input, untraced and
traced, and asserts that each result has the four result keys and exactly
the named metrics with their units. Then it tampers with one reference value
and asserts that the run still completes and counts the op as failed.

    python3 bench/smoke.py
"""

import json
import sys

import run  # sets the BLAS thread count before numpy is imported


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, _ = run.run_workload(workload, seed=1, seconds=0, trace=trace, small=True)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], (workload, trace, units)
            print(f"{workload} trace={trace}: {len(units)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")

    import workloads

    saved = workloads.CLASSICAL_DISCORD
    workloads.CLASSICAL_DISCORD = 0.5
    try:
        result, _ = run.run_workload("discord", seed=1, seconds=0, trace=0, small=True)
    finally:
        workloads.CLASSICAL_DISCORD = saved
    assert result["failed"] >= 1 and not result["correct"], result
    print(f"tampered reference: {result['failed']}/{result['attempted']} failed, run completed")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
