"""tools/perf.py writes a BENCH file: the machine it ran on and one timed row
per piece of discord and analyze work."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "perf.py"
SOLVES = ["bell-global", "classical-cc-global", "ghz3-global-A|BC", "random-22-seed22-side-a",
          "random-23-seed23-side-a"]
ANALYZE = ["rho1", "w-3", "ghz-3", "ghz-4", "ghz-5", "ghz-6", "random-222-seed222",
           "random-223-seed223", "random-2222-seed2222", "bisep-222-p0.5-h2-seed24"]
DETECT = ["ghz-5", "ghz-6", "w-3", "random-2222-seed2222"]
NO_FILTER = ["ghz-6", "w-3", "random-2222-seed2222"]
AUDITS = ([f"fully-separable-sfnf-{d}/{c}" for d in ("222", "223")
           for c in ("cmn-full-inf", "cmn-full-p1", "dvh-full")]
          + [f"biseparable-filtered-{d}/{c}" for d in ("222", "223")
             for c in ("cmn-bisep-inf", "cmn-bisep-p1")]
          + ["ghz-mixtures-222/cmn-bisep-inf"])


def test_smallest_run_writes_the_schema(tmp_path):
    out = tmp_path / "BENCH_0.json"
    subprocess.run([sys.executable, str(TOOL), "--out", str(out), "--repeats", "1"],
                   capture_output=True, text=True, timeout=120, check=True)
    doc = json.loads(out.read_text())
    assert list(doc) == ["schema", "environment", "settings", "rows"]
    assert doc["schema"] == 1
    env = doc["environment"]
    assert {"cores", "affinity", "python", "numpy", "blas_threads", "commit",
            "src_digest"} <= set(env)
    assert len(env["src_digest"]) == 64
    assert set(env["blas_threads"].values()) == {"1"}
    assert doc["settings"] == {"repeats": 1, "ridge": False, "large": False, "tier1": False,
                               "objective_calls": 20}
    names = [row["name"] for row in doc["rows"]]
    assert names == ([f"objective/{s}/{r}" for s in ("bell-global", "ghz3-global-A|BC")
                      for r in (1, 8, 32)]
                     + [f"objective/{s}/8" for s in ("classical-cc-global",
                                                     "random-22-seed22-side-a",
                                                     "random-23-seed23-side-a",
                                                     "ghz3-global-A|BC-reduced")]
                     + [f"solve/{s}/8" for s in SOLVES] + ["solve/random-222-seed7-side-b/8"]
                     + ["solve/bell-global/32", "solve/ghz3-global-A|BC/32",
                        "solve/bell-global/1"]
                     + [f"witness/{s}" for s in SOLVES if "ghz3" not in s]
                     + [f"analyze/{a}" for a in ANALYZE]
                     + [f"{kind}/{s}" for s in DETECT for kind in ("detect", "filter_cuts")]
                     + ["load_state/ghz-6", "render/ghz-6"]
                     + [f"detect/{s}/no-filter" for s in NO_FILTER]
                     + [f"filter_stack/{d}/fixed" for d in ("22", "222", "2222")]
                     + ["build/2x2", "build/2x3"]
                     + [f"{kind}/{d}" for d in ("222", "2222", "333") for kind in ("build", "cmn")]
                     + [f"audit/{a}" for a in AUDITS]
                     + [f"filter_stack/biseparable-filtered-{d}/32" for d in ("222", "223")])
    for row in doc["rows"]:
        assert 0 < row["min_s"] <= row["median_s"]
        assert row["ref_median_s"] > 0
        assert row["runs"] == 1
        if row["kind"] == "objective":
            # a tick of every restart: 2 slots per angle, 4 angles for a global
            # solve over (2,2) and for GHZ-3's search over side BC alone, 6 for
            # GHZ-3's full search and 2 for a one-sided solve
            angles = (4 if "reduced" in row["name"] else 6 if "ghz3" in row["name"]
                      else 4 if "global" in row["name"] else 2)
            assert row["points"] == row["restarts"] * 2 * angles
        elif row["kind"] == "solve":
            assert row["seeds"] == [0, 1, 2, 3]
            # GHZ-3's A|BC solve searches BC's angles, the side-b solve every
            # angle of side BC; the others take a closed form
            if "ghz3" in row["name"] or "side-b" in row["name"]:
                assert row["method"] == "search" and row["evaluations"] >= row["restarts"]
            else:
                assert row["method"] == "closed form" and row["evaluations"] == 0
        elif row["kind"] == "analyze":
            assert row["args"] == (["--p", "0.5", "--h", "2"] if "bisep" in row["name"] else [])
        elif row["kind"] == "detect":
            assert row["filter"] == (not row["name"].endswith("/no-filter"))
        elif row["kind"] == "filter_stack":
            assert row["calls"] == 20
        elif row["kind"] == "witness":
            assert row["reads"] == 20
        elif row["name"] in ("build/2x2", "build/2x3"):
            assert row["states"] == 1 and row["calls"] == 200
        elif row["kind"] in ("build", "cmn"):
            assert row["states"] == 32
            if row["kind"] == "cmn":  # h = d_A²
                assert row["h"] == (9 if row["name"] == "cmn/333" else 4)
        elif row["kind"] == "audit":
            assert (row["trials"], row["seed"]) == (32, 2026)
        elif row["kind"] == "audit_filter_stack":
            assert row["rows"] == 32
        elif row["kind"] == "filter_cuts":
            # W-3 filters its 3 cuts and its pair state's one
            state = row["name"].split("/")[1]
            assert row["cuts"] == {"ghz-5": 25, "ghz-6": 56, "w-3": 4,
                                   "random-2222-seed2222": 25}[state]
            # the distinct matrices among them once side A is put first
            assert row["rows"] == {"ghz-5": 9, "ghz-6": 14, "w-3": 3,
                                   "random-2222-seed2222": 25}[state]


def load_perf(monkeypatch):
    import importlib.util

    # importing the tool pins BLAS threads and puts bench/ on the path
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perf", TOOL)
    perf = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf)
    return perf


def test_src_digest_names_the_tree_not_its_place(monkeypatch, tmp_path):
    """Two copies of one tree, neither a git checkout, digest alike; an edit
    to one of its files, or a file added, changes the digest."""
    import shutil

    perf = load_perf(monkeypatch)
    package = Path(__file__).resolve().parents[1] / "src" / "cmnlab"
    one, two = tmp_path / "one" / "src", tmp_path / "two" / "src"
    for copy in (one, two):
        shutil.copytree(package, copy / "cmnlab", ignore=shutil.ignore_patterns("__pycache__"))
    assert perf.src_digest(one) == perf.src_digest(two)
    edited = two / "cmnlab" / "bounds.py"
    edited.write_text(edited.read_text() + "\n")
    assert perf.src_digest(one) != perf.src_digest(two)
    (one / "cmnlab" / "extra.py").write_text("")
    assert perf.src_digest(one) not in (perf.src_digest(two), perf.src_digest(package.parent))


def test_large_rows_are_opt_in(monkeypatch):
    """--large adds detect on GHZ-7, on rank-4 random states of 5-7 qubits
    and on ROADMAP item 1's 200 states to the planned rows; they are listed
    here, not run."""
    import tempfile

    perf = load_perf(monkeypatch)
    with tempfile.TemporaryDirectory() as workdir:
        default = [row["name"] for row, _, _ in perf.planned_rows(workdir)]
        large = [row["name"] for row, _, _ in perf.planned_rows(workdir, large=True)]
    assert large == default + ["detect/ghz-7", "detect/random-22222-rank4-seed5",
                               "detect/random-222222-rank4-seed6",
                               "detect/random-2222222-rank4-seed7",
                               "detect/slocc-rho1/200"]


def test_tier1_row_times_the_checkouts_suite(monkeypatch, tmp_path):
    """--tier1's row runs pytest in the checkout that holds --src, with that
    src/ importable; here a stand-in checkout of two tests, one failing."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "probe.py").write_text("VALUE = 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(
        "import probe\n\ndef test_ok():\n    assert probe.VALUE == 1\n\n"
        "def test_bad():\n    assert False\n")
    row = load_perf(monkeypatch).tier1_row(tmp_path / "src")
    assert (row["name"], row["kind"], row["runs"]) == ("tier1", "tier1", 1)
    assert 0 < row["min_s"] == row["median_s"] and row["ref_median_s"] > 0
    assert row["result"].startswith("1 failed, 1 passed")
    assert row["exit_code"] == 1


def test_one_long_run_is_scaled_by_samples_inside_it(monkeypatch):
    """The ridge crawl's one run is timed inside a SpeedTrack: a 0.35 s busy
    loop takes kernel samples while it runs, and its reference-speed time
    reads them."""
    from time import perf_counter

    perf = load_perf(monkeypatch)
    tracks = []

    class Track(perf.speed.SpeedTrack):
        def __enter__(self):
            tracks.append(self)
            return super().__enter__()

    monkeypatch.setattr(perf.speed, "SpeedTrack", Track)

    def busy():
        start = perf_counter()
        while perf_counter() - start < 0.35:
            pass
        return start, perf_counter()

    (start, end), *run = perf.tracked_run(busy)
    assert sum(start <= s <= end for s in tracks[0].starts) >= 2
    row = perf.summary([run], 1)
    assert row["runs"] == 1 and row["ref_median_s"] > 0


def test_witness_rows_build_one_family_per_read(monkeypatch):
    """Each read of a witness row is a first read: the row times building the
    measurement, not a cached attribute."""
    perf = load_perf(monkeypatch)
    from cmnlab import discord

    built = []
    build = discord.measurement_from_angles
    monkeypatch.setattr(discord, "measurement_from_angles",
                        lambda *args: built.append(args) or build(*args))
    row, work, units = perf.witness_work("bell-global", perf.solves()["bell-global"])
    assert built == []
    work()
    assert len(built) == units == perf.WITNESS_READS
