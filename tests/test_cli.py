import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import cmnlab
from cmnlab import cli, report
from cmnlab.bounds import CRITERIA, DetectConfig, detect
from cmnlab.cli import (
    EXIT_INVALID_INPUT,
    EXIT_OK,
    build_parser,
    load_state,
    main,
    state_to_statefile,
    statefile_text,
    statefile_to_state,
)
from cmnlab.discord import OptimizerCfg, global_discord_cmn
from cmnlab.zoo import ZOO, from_name, ghz, maximally_mixed, rho1

from conftest import dumps_oracle, random_density


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestZooCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "zoo", "list")
        assert code == EXIT_OK
        names = out.split()
        assert "rho1" in names and "ghz-3-2" in names
        assert names == sorted(names)

    def test_emit_roundtrip(self, capsys):
        code, out, _ = run(capsys, "zoo", "emit", "rho1")
        assert code == EXIT_OK
        doc = json.loads(out)
        rho = statefile_to_state(doc)
        assert np.abs(rho.data - rho1().data).max() < 1e-15

    def test_list_ignores_bad_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CMNLAB_SEED", "abc")
        code, out, _ = run(capsys, "zoo", "list")
        assert code == EXIT_OK
        assert "rho1" in out.split()

    def test_emit_unknown(self, capsys):
        code, _, err = run(capsys, "zoo", "emit", "nope")
        assert code == EXIT_INVALID_INPUT
        assert "available" in err

    @pytest.mark.parametrize("command", [["zoo", "emit", "nope"], ["analyze", "zoo:nope"]])
    def test_unknown_name_text(self, capsys, command):
        code, _, err = run(capsys, *command)
        assert code == EXIT_INVALID_INPUT
        assert err == ("error: unknown zoo state 'nope'; available: "
                       + ", ".join(sorted(ZOO)) + "\n")

    def test_emit_requires_name(self, capsys):
        code, _, err = run(capsys, "zoo", "emit")
        assert code == EXIT_INVALID_INPUT

    def test_list_output_file(self, capsys, tmp_path):
        path = tmp_path / "names.txt"
        code, out, _ = run(capsys, "zoo", "list", "--output", str(path))
        assert code == EXIT_OK and out == ""  # the list went to stdout, and no file
        assert path.read_text() == "".join(f"{name}\n" for name in sorted(ZOO))
        code, out, _ = run(capsys, "zoo", "list")
        assert out == path.read_text()


class TestStateFiles:
    def test_float_roundtrip_exact(self):
        doc = state_to_statefile(rho1())
        text = report.dumps(doc)
        back = statefile_to_state(json.loads(text))
        assert np.abs(back.data - rho1().data).max() == 0

    def test_text_is_dumps_of_the_statefile(self):
        states = [from_name(name) for name in sorted(ZOO)]
        states += [ghz(n).to_density() for n in (3, 4, 5, 6)]
        for dims in [(2, 2), (2, 3), (2, 2, 2), (2, 2, 3), (3, 3)]:
            side = int(np.prod(dims))
            states += [random_density(dims, rank, 30 + s) for rank in (2, side) for s in range(3)]
        for rho in states:
            assert statefile_text(rho) == report.dumps(state_to_statefile(rho))

    def test_input_digest_pinned(self):
        # report.dumps(state_to_statefile(rho)) hashes to these
        for name, digest in [
            ("rho1", "c027a1a0dbffa719588a9ae2a522521e9bfc12e13d7aa5bfbb4884aed11ff4c4"),
            ("w-3", "be419b9665b129e62a9f1efd54f2096a1ffeb05581e918c6aa49b839ff71ed3c"),
        ]:
            _, payload = load_state(f"zoo:{name}")
            assert report.input_digest(payload) == digest

    def test_emit_writes_the_statefile_text(self, capsys):
        code, out, _ = run(capsys, "zoo", "emit", "ghz-3-2")
        assert code == EXIT_OK
        assert out == statefile_text(ghz(3, 2).to_density()) + "\n"

    def test_rejects_bad_trace(self, tmp_path, capsys):
        doc = state_to_statefile(rho1())
        doc["matrix"] = [
            {"re": e["re"] * 0.9, "im": e["im"] * 0.9} for e in doc["matrix"]
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INVALID_INPUT
        assert "trace" in err

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_non_finite_entry(self, tmp_path, capsys, entry):
        doc = state_to_statefile(rho1())
        doc["matrix"][1]["re"] = entry
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and "non-finite" in err

    def test_rejects_wrong_length(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": [{"re": 1, "im": 0}]}))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INVALID_INPUT
        assert "entries" in err

    def test_missing_key_text(self, tmp_path, capsys):
        path = tmp_path / "nomatrix.json"
        path.write_text(json.dumps({"dims": [2, 2]}))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INVALID_INPUT
        assert err == "error: malformed state file: missing key 'matrix'\n"

    @pytest.mark.parametrize("entry", [0.0, "0", [0, 0], {"re": 0.0}, {"re": "0", "im": 0}])
    def test_bad_entry_is_named(self, tmp_path, capsys, entry):
        doc = state_to_statefile(maximally_mixed((2, 2)))
        doc["matrix"][5] = entry
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == ('error: malformed state file: matrix entry 5 is not '
                       '{"re": number, "im": number}\n')

    def test_entries_as_numbers(self, capsys, monkeypatch):
        import io
        import sys

        doc = {"dims": [2, 2], "matrix": [0.25 * (i % 5 == 0) for i in range(16)]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, _, err = run(capsys, "analyze", "-")
        assert code == EXIT_INVALID_INPUT
        assert err == ('error: malformed state file: matrix entry 0 is not '
                       '{"re": number, "im": number}\n')

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "5", "null"])
    def test_top_level_must_be_an_object(self, tmp_path, capsys, text):
        # was Python's text, such as "list indices must be integers or slices, not str"
        path = tmp_path / "top.json"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == "error: malformed state file: the top level must be a JSON object\n"

    @pytest.mark.parametrize("matrix,shown", [
        (5, "5"),  # was Python's "object of type 'int' has no len()"
        ("x" * 16, '"' + "x" * 16 + '"'),  # was read as 16 malformed entries
        ({"re": 1}, '{"re": 1}'),
    ])
    def test_matrix_must_be_a_list(self, tmp_path, capsys, matrix, shown):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix}))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == f'error: malformed state file: "matrix" must be a list, got {shown}\n'

    def test_rejects_bad_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INVALID_INPUT

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/file.json")
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("command", ["analyze", "discord"])
    @pytest.mark.parametrize("dims", [[], [2]])
    def test_rejects_fewer_than_two_parties(self, tmp_path, capsys, command, dims):
        side = math.prod(dims)
        matrix = [{"re": (i == j) / side, "im": 0.0} for i in range(side) for j in range(side)]
        path = tmp_path / "few.json"
        path.write_text(json.dumps({"dims": dims, "matrix": matrix}))
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and "two parties" in err

    @pytest.mark.parametrize("dims,shown", [
        ([2.7, 2], "[2.7, 2]"),  # was read as (2, 2)
        ([2.0, 2], "[2.0, 2]"),
        ([True, 2], "[true, 2]"),
        (["2", 2], '["2", 2]'),
        (4, "4"),  # was Python's 'int' object is not iterable
        ({"0": 2}, '{"0": 2}'),
    ])
    def test_dims_must_be_a_list_of_integers(self, tmp_path, capsys, dims, shown):
        doc = state_to_statefile(maximally_mixed((2, 2)))
        doc["dims"] = dims
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == ('error: malformed state file: "dims" must be a list of integers, '
                       f'got {shown}\n')

    @pytest.mark.parametrize("command", ["analyze", "discord"])
    @pytest.mark.parametrize("dims", [[-2, 2], [2, -2], [-2, 2, 2], [-2, -2], [1, 4], [0, 2]])
    def test_dims_below_two_are_invalid(self, tmp_path, capsys, command, dims):
        side = abs(math.prod(dims))  # a negative product crashed the reshape
        matrix = [{"re": (i == j) / side, "im": 0.0} for i in range(side) for j in range(side)]
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({"dims": dims, "matrix": matrix}))
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == "error: invalid density matrix: every party dimension must be >= 2\n"

    @pytest.mark.parametrize("field", ["re", "im"])
    def test_boolean_entries_are_not_numbers(self, tmp_path, capsys, field):
        # |00><00| with one field spelled in booleans, once read as 1+0j and 0
        matrix = [{"re": float(i == 0), "im": 0.0} for i in range(16)]
        for e in matrix:
            e[field] = bool(e[field])
        path = tmp_path / "bools.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix}))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == ('error: malformed state file: matrix entry 0 is not '
                       '{"re": number, "im": number}\n')


def _edge_state(case):
    """(dims, matrix) of a state file at an edge of the state checks."""
    x = np.array([[0, 1], [1, 0]])
    if case == "dims-overflow-int64":  # the product wrapped to 4 in int64
        return [4611686018427387905, 4], np.eye(4) / 4
    if case == "trace-off":  # trace 1 + 5e-11
        return [2, 2, 2], np.eye(8) / 8 * (1 + 5e-11)
    if case == "hermitian-off":  # 0.9e-10 from Hermitian
        return [2, 2, 2], np.eye(8) / 8 + 0.45e-10j * np.kron(np.kron(x, x), x)
    if case == "reduction-not-hermitian":  # 0.9e-10, doubled in the reductions to A, B and A, C
        return [2, 2, 2], np.eye(8) / 8 + 0.45e-10 * np.kron([[0, 1], [-1, 0]], np.eye(4))
    # min eigenvalue -9e-10, which the reduction to parties A, B doubles
    eps = 3.6e-9
    return [2, 2, 2], ((1 + eps) * np.kron(np.diag([0, 1]), np.diag([0.1, 0.2, 0.3, 0.4]))
                       - eps * np.kron(np.diag([1, 0]), np.eye(4) / 4))


OVERFLOW_ERR = "error: matrix has 16 entries, expected 340282366920938463610948560021444624400\n"
# (case, command) -> (exit code, stderr)
EDGE_OUTCOMES = {
    ("dims-overflow-int64", "analyze"): (EXIT_INVALID_INPUT, OVERFLOW_ERR),
    ("dims-overflow-int64", "discord"): (EXIT_INVALID_INPUT, OVERFLOW_ERR),
    ("trace-off", "analyze"): (EXIT_OK, ""),
    ("trace-off", "discord"): (EXIT_OK, ""),
    ("hermitian-off", "analyze"): (EXIT_OK, ""),
    ("hermitian-off", "discord"): (EXIT_OK, ""),
    ("reduction-not-psd", "analyze"): (EXIT_OK, ""),
    ("reduction-not-psd", "discord"): (EXIT_OK, ""),
    ("reduction-not-hermitian", "analyze"): (EXIT_OK, ""),
    ("reduction-not-hermitian", "discord"): (EXIT_OK, ""),
}


def _write_edge_state(tmp_path, case):
    dims, matrix = _edge_state(case)
    entries = [{"re": float(z.real), "im": float(z.imag)} for z in np.ravel(matrix)]
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"dims": dims, "matrix": entries}))
    return str(path)


@pytest.mark.parametrize("case,command", list(EDGE_OUTCOMES))
def test_states_at_the_edges_of_the_checks(tmp_path, capsys, case, command):
    """A state file that passes the state checks is analyzed, also when a
    reduction of it fails them."""
    options = ["--restarts", "1"] if command == "discord" else []
    code, out, err = run(capsys, command, _write_edge_state(tmp_path, case), *options)
    assert (code, err) == EDGE_OUTCOMES[case, command]
    assert (out != "") == (code == EXIT_OK)


@pytest.mark.parametrize("case,check", [
    ("reduction-not-psd", "not positive semidefinite (min eigenvalue -1.800e-09)"),
    ("reduction-not-hermitian", "not Hermitian (residual 1.800e-10)"),
])
def test_a_reduction_that_fails_the_checks_gates_only_its_subsets(tmp_path, capsys, case,
                                                                    check):
    """The reductions to A, B and A, C fail the state checks: every report of
    theirs is inconclusive with the failed check as its reason. The state's
    own reports and those of B, C are what detect gives on each alone."""
    from cmnlab.linalg import DensityMatrix, partial_trace_raw

    code, out, _ = run(capsys, "analyze", _write_edge_state(tmp_path, case))
    assert code == EXIT_OK
    doc = json.loads(out)["verdict"]
    entries = {tuple(e["parties"]): e["reports"] for e in doc["reduced"]}
    assert list(entries) == [(1, 2), (0, 2), (0, 1)]
    why = f"reduced state failed the state checks: {check}"
    for parties in [(0, 2), (0, 1)]:
        assert len(entries[parties]) == 6
        assert all(r["reason"] == why and not r["preconditions_met"] and not r["violated"]
                   for r in entries[parties])
    dims, matrix = _edge_state(case)
    whole = detect(DensityMatrix(dims, matrix), DetectConfig(recursive=False))
    bc = detect(DensityMatrix((2, 2), partial_trace_raw(matrix, dims, (1, 2))))
    for got, want in [(doc["reports"], whole), (entries[1, 2], bc)]:
        assert got == json.loads(report.dumps([report.bound_report_to_dict(r)
                                               for r in want.reports]))


class TestLibraryDefaults:
    """Without options, the CLI runs the library's own defaults."""

    def test_analyze_passes_the_default_config(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "detect", lambda rho, cfg: seen.append(cfg) or detect(rho, cfg))
        assert run(capsys, "analyze", "zoo:bell-phi-plus")[0] == EXIT_OK
        assert seen == [DetectConfig()]

    def test_discord_passes_the_default_optimizer(self, capsys, monkeypatch):
        monkeypatch.delenv("CMNLAB_SEED", raising=False)
        seen = []
        monkeypatch.setattr(cli, "global_discord_cmn", lambda rho, part, params, opt:
                            seen.append(opt) or global_discord_cmn(rho, part, params, opt))
        assert run(capsys, "discord", "zoo:bell-phi-plus")[0] == EXIT_OK
        assert seen == [OptimizerCfg(seed=0)]


class TestAnalyze:
    def test_rho1_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "zoo:rho1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "analyze"
        v = doc["verdict"]
        assert v["not_fully_separable"] is True
        assert v["bi_entangled_partitions"] == []
        bisep = [r for r in v["reports"] if r["criterion"] == "cmn-bisep-inf"]
        assert len(bisep) == 3
        bound = 1 / (64 * 3 * math.sqrt(3))
        for r in bisep:
            assert abs(r["value"] - bound) <= 1e-9 * bound
            assert r["saturated"] is True

    def test_stdin_roundtrip(self, capsys, monkeypatch, tmp_path):
        import io
        import sys

        _, emitted, _ = run(capsys, "zoo", "emit", "ghz-3-2")
        monkeypatch.setattr(sys, "stdin", io.StringIO(emitted))
        code, out, _ = run(capsys, "analyze", "-", "--no-recursive")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["verdict"]["not_fully_separable"] is True
        assert set(doc["verdict"]["bi_entangled_partitions"]) == {
            "A|BC", "AB|C", "AC|B"
        }

    def test_digest_is_stable(self, capsys):
        _, out1, _ = run(capsys, "analyze", "zoo:rho1", "--no-recursive")
        _, out2, _ = run(capsys, "analyze", "zoo:rho1", "--no-recursive")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["input_digest"] == d2["input_digest"]
        d1.pop("timing_seconds"), d2.pop("timing_seconds")
        assert d1 == d2

    def test_csv_export(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "analyze", "zoo:rho1", "--csv", str(csv_path))
        assert code == EXIT_OK
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0].startswith("partition,criterion,value,bound")
        assert len(lines) > 3
        # values round-trip through 17 significant digits
        for line in lines[1:3]:
            val = line.split(",")[2]
            assert float(val) == float(repr(float(val)))

    @pytest.mark.parametrize("command,option", [
        (["analyze", "zoo:rho1"], "--output"),
        (["analyze", "zoo:rho1"], "--csv"),
        (["zoo", "emit", "rho1"], "--output"),
    ])
    def test_unwritable_output(self, capsys, tmp_path, command, option):
        path = tmp_path / "missing" / "out"
        code, out, err = run(capsys, *command, option, str(path))
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert "No such file or directory" in err

    def test_one_parser_keeps_no_option(self, capsys, tmp_path):
        """The parser is built once per process, and an option of one run
        does not carry over to the next."""
        path = tmp_path / "state.json"
        path.write_text(statefile_text(random_density((2, 2, 2), 8, 31)))
        reasons = []
        for extra in (["--no-filter"], []):
            code, out, _ = run(capsys, "analyze", str(path), *extra)
            assert code == EXIT_OK
            verdict = json.loads(out)["verdict"]
            reasons.append({r["reason"] for e in [verdict] + verdict["reduced"]
                            for r in e["reports"]})
            assert build_parser() is build_parser()
        filtered = {r for r in reasons[1] if r.startswith("after SLOCC filtering")}
        assert filtered and not any(r.startswith("after SLOCC") for r in reasons[0])
        assert verdict == json.loads(report.dumps(report.verdict_to_dict(
            detect(load_state(str(path))[0]))))

    def test_schema2_flat_reduced(self, capsys):
        code, out, _ = run(capsys, "analyze", "zoo:rho1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema_version"] == 2
        reduced = doc["verdict"]["reduced"]
        assert [e["parties"] for e in reduced] == [[1, 2], [0, 2], [0, 1]]
        for e in reduced:
            assert set(e) == {"parties", "dims", "reports", "not_fully_separable",
                              "bi_entangled_partitions"}
            assert e["dims"] == [2, 2]

    def test_csv_has_one_row_set_per_subset(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code, out, _ = run(capsys, "analyze", "zoo:ghz-3-2", "--csv", str(csv_path))
        assert code == EXIT_OK
        v = json.loads(out)["verdict"]
        rows = csv_path.read_text().strip().split("\n")[1:]
        assert len(rows) == len(v["reports"]) + sum(len(e["reports"]) for e in v["reduced"])

    def test_csv_parties_column(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code, out, _ = run(capsys, "analyze", "zoo:ghz-3-2", "--csv", str(csv_path))
        assert code == EXIT_OK
        v = json.loads(out)["verdict"]
        header, *rows = csv_path.read_text().strip().split("\n")
        assert header.split(",")[-1] == "parties"
        expected = ["0 1 2"] * len(v["reports"])
        for e in v["reduced"]:
            expected += [" ".join(map(str, e["parties"]))] * len(e["reports"])
        assert [row.split(",")[-1] for row in rows] == expected
        assert {"1 2", "0 2", "0 1"} <= set(expected)

    def test_finite_p_is_inconclusive(self, capsys):
        code, out, _ = run(capsys, "analyze", "zoo:ghz-3-2", "--p", "0.5", "--h", "2")
        assert code == EXIT_OK
        cmn_reports = [r for r in json.loads(out)["verdict"]["reports"]
                       if r["criterion"].startswith("cmn-")]
        assert {r["criterion"] for r in cmn_reports} == {"cmn-bisep-p0.5", "cmn-full-p0.5"}
        assert all(r["preconditions_met"] is False for r in cmn_reports)

    def test_four_qubit_maximally_mixed(self, capsys, tmp_path):
        # the fully-separable p = inf bound at h = 16 needs prod d_i^h = 2^64
        path = tmp_path / "mm4.json"
        path.write_text(json.dumps(state_to_statefile(maximally_mixed((2, 2, 2, 2)))))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == EXIT_OK
        assert not json.loads(out)["verdict"]["not_fully_separable"]

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "zoo:maximally-mixed-2q",
                           "--output", str(out_path))
        assert code == EXIT_OK
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert doc["verdict"]["not_fully_separable"] is False

    def test_p_selection(self, capsys):
        code, out, _ = run(capsys, "analyze", "zoo:bell-phi-plus", "--p", "inf")
        assert code == EXIT_OK
        doc = json.loads(out)
        crits = {r["criterion"] for r in doc["verdict"]["reports"]}
        assert not any(c.endswith("-p1") for c in crits)

    def test_bad_p(self, capsys):
        code, _, err = run(capsys, "analyze", "zoo:bell-phi-plus", "--p", "zero")
        assert code == EXIT_INVALID_INPUT

    def test_nan_p_rejected(self, capsys):
        code, out, err = run(capsys, "analyze", "zoo:bell-phi-plus", "--p", "nan")
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error: ") and "nan" in err


    @pytest.mark.parametrize("h", ["0", "-3"])
    def test_h_below_one_rejected(self, capsys, h):
        code, out, err = run(capsys, "analyze", "zoo:rho1", "--h", h)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == f"error: --h must be at least 1, got {h}\n"

    def test_h_one_is_inconclusive(self, capsys):
        # the p = inf bounds need h >= 2, so at h = 1 they are inconclusive
        code, out, _ = run(capsys, "analyze", "zoo:rho1", "--h", "1")
        assert code == EXIT_OK
        reports = json.loads(out)["verdict"]["reports"]
        inf = [r for r in reports if r["criterion"].endswith("-inf")]
        assert inf and not any(r["preconditions_met"] for r in inf)
        assert {r["reason"] for r in inf if r["criterion"] == "cmn-full-inf"} == {"h must exceed 1"}

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
    def test_bad_tolerance_rejected(self, capsys, tolerance):
        code, out, err = run(capsys, "analyze", "zoo:rho1", "--tolerance", tolerance)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and "--tolerance" in err

    @pytest.mark.parametrize("tolerance", ["1e-300", "9e-16"])
    def test_tolerance_below_rounding_floor_rejected(self, capsys, tolerance):
        code, out, err = run(capsys, "analyze", "zoo:rho1", "--tolerance", tolerance)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and "at least 1e-15" in err

    def test_tolerance_at_rounding_floor_accepted(self, capsys):
        # rho1's residuals are 3.1e-17, under the floor, so its bounds apply
        code, out, _ = run(capsys, "analyze", "zoo:rho1", "--tolerance", "1e-15",
                           "--no-recursive")
        assert code == EXIT_OK
        reports = json.loads(out)["verdict"]["reports"]
        assert all(r["preconditions_met"] for r in reports
                   if r["criterion"] in ("cmn-bisep-inf", "cmn-full-inf"))


class TestDiscord:
    def test_bell_value(self, capsys):
        code, out, _ = run(capsys, "discord", "zoo:bell-phi-plus",
                           "--restarts", "4", "--partition", "0")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["results"]) == 1
        assert abs(doc["results"][0]["value"] - 1.25) < 1e-5

    def test_reports_best_angles_and_spread(self, capsys):
        code, out, _ = run(capsys, "discord", "zoo:bell-phi-plus",
                           "--restarts", "4", "--partition", "0")
        assert code == EXIT_OK
        result = json.loads(out)["results"][0]
        assert len(result["best_angles"]) == 4
        assert result["restart_spread"] >= 0

    def test_reports_per_restart_diagnostics(self, capsys):
        code, out, _ = run(capsys, "discord", "zoo:bell-phi-plus",
                           "--restarts", "4", "--partition", "0")
        assert code == EXIT_OK
        result = json.loads(out)["results"][0]
        # the new keys trail the existing ones, which keep their order
        assert list(result) == ["partition", "value", "evaluations", "converged", "best_angles",
                                "restart_spread", "restart_evaluations", "restart_values"]
        counts, values = result["restart_evaluations"], result["restart_values"]
        assert len(counts) == len(values) == 4
        assert sum(counts) == result["evaluations"]
        assert max(values) - min(values) == result["restart_spread"]

    @pytest.mark.parametrize("restarts", ["0", "-2"])
    def test_bad_restarts_is_usage_error(self, capsys, restarts):
        code, out, err = run(capsys, "discord", "zoo:bell-phi-plus", "--restarts", restarts)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and "restarts" in err

    @pytest.mark.parametrize("h,reason", [("5", "exceeds"), ("0", "h must be")])
    def test_bad_h_is_usage_error(self, capsys, h, reason):
        code, out, err = run(capsys, "discord", "zoo:bell-phi-plus", "--h", h,
                             "--partition", "0")
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and reason in err

    @pytest.mark.parametrize("partition", ["0,1", "5", "x"])
    def test_bad_partition_is_usage_error(self, capsys, partition):
        code, out, err = run(capsys, "discord", "zoo:bell-phi-plus", "--restarts", "2",
                             "--partition", partition)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and "--partition" in err

    def test_deterministic_given_seed(self, capsys):
        argv = ["discord", "zoo:classical-cc", "--restarts", "3", "--seed", "5"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timing_seconds"), d2.pop("timing_seconds")
        assert d1 == d2

    def test_nan_p_rejected(self, capsys):
        code, out, err = run(capsys, "discord", "zoo:bell-phi-plus", "--p", "nan",
                             "--restarts", "2", "--partition", "0")
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error: ") and "nan" in err

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CMNLAB_SEED", "11")
        # parser defaults are bound at build time, so go through main fresh
        code, out, _ = run(capsys, "discord", "zoo:classical-cc",
                           "--restarts", "2", "--partition", "0")
        assert code == EXIT_OK
        assert json.loads(out)["seed"] == 11


    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(capsys, "discord", "zoo:bell-phi-plus", "--seed", "-1")
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize("command", [
        ["discord", "zoo:bell-phi-plus", "--restarts", "2"],
        ["audit", "fully-separable-sfnf-222", "cmn-full-inf", "--trials", "2"],
    ])
    @pytest.mark.parametrize("env", ["abc", "-3"])
    def test_bad_seed_env_is_usage_error(self, capsys, monkeypatch, command, env):
        monkeypatch.setenv("CMNLAB_SEED", env)
        code, out, err = run(capsys, *command)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and "CMNLAB_SEED" in err


class TestAuditCommand:
    def test_small_audit(self, capsys):
        code, out, _ = run(capsys, "audit", "fully-separable-sfnf-222",
                           "cmn-full-inf", "--trials", "5", "--seed", "1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["audit"]["violations"] == 0
        assert doc["audit"]["trials"] == 5
        assert doc["audit"]["rejected"] == 0

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "audit", "nope", "cmn-full-inf")
        assert code == EXIT_INVALID_INPUT
        assert "available" in err

    def test_unknown_criterion(self, capsys):
        code, _, err = run(capsys, "audit", "fully-separable-sfnf-222", "nope")
        assert code == EXIT_INVALID_INPUT

    def test_accepts_exactly_the_registry(self, capsys):
        for name in CRITERIA:
            code, out, _ = run(capsys, "audit", "fully-separable-sfnf-222", name,
                               "--trials", "1", "--seed", "3")
            assert code == EXIT_OK, name
            assert json.loads(out)["audit"]["criterion"] == name
        code, _, err = run(capsys, "audit", "fully-separable-sfnf-222", "cmn-bisep-p2")
        assert code == EXIT_INVALID_INPUT
        assert all(name in err for name in CRITERIA)

    def test_dvh_bisep(self, capsys):
        code, out, _ = run(capsys, "audit", "ghz-mixtures-222", "dvh-bisep",
                           "--trials", "5", "--seed", "1")
        assert code == EXIT_OK
        assert json.loads(out)["audit"]["violations"] == 5
        code, out, err = run(capsys, "audit", "fully-separable-sfnf-223", "dvh-bisep")
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "only known for (2,2,2)" in err

    def test_full_criterion_on_bisep_family(self, capsys):
        code, out, err = run(capsys, "audit", "biseparable-filtered-222", "cmn-full-inf",
                             "--trials", "100", "--seed", "5")
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error: ") and "bi-separable" in err

    def test_other_value_errors_are_not_input_errors(self, monkeypatch):
        from cmnlab import audit

        def broken(dims, seeds):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(audit.zoo, "random_fully_separable_sfnf_stack", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["audit", "fully-separable-sfnf-222", "cmn-full-inf", "--trials", "1"])

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(capsys, "audit", "fully-separable-sfnf-222", "cmn-full-inf",
                             "--trials", "2", "--seed", "-5")
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize("seed", [2**63 - 2, 10**20])
    def test_seed_past_int64(self, capsys, seed):
        # int64 trial seeds turned float past 2^63 - 1, which SeedSequence rejects
        code, out, err = run(capsys, "audit", "biseparable-filtered-222", "cmn-bisep-inf",
                             "--trials", "2", "--seed", str(seed))
        assert code == EXIT_OK and err == ""
        worst = json.loads(out)["audit"]["worst_seed"]
        assert type(worst) is int and worst >= seed

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one(self, capsys, trials):
        code, out, err = run(capsys, "audit", "fully-separable-sfnf-222", "cmn-full-inf",
                             "--trials", trials)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert "trials" in err


class TestVersion:
    def test_one_version_string(self, capsys):
        code, out, _ = run(capsys, "analyze", "zoo:bell-phi-plus")
        assert code == EXIT_OK
        assert json.loads(out)["tool_version"] == cmnlab.__version__
        pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
        (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
        assert version == cmnlab.__version__


class TestDumps:
    def test_float_17_digits(self):
        x = 1 / 3
        assert float(report.dumps(x)) == x

    def test_special_values(self):
        assert report.dumps(math.inf) == '"inf"'
        assert report.dumps(float("nan")) == '"nan"'

    def test_nested(self):
        doc = {"a": [1, 2.5], "b": {"c": True, "d": None}}
        assert json.loads(report.dumps(doc)) == {"a": [1, 2.5], "b": {"c": True, "d": None}}

    def test_shared_list_at_two_depths(self):
        """A list object held twice at one depth and once at another is
        written with each place's own indentation."""
        shared = [{"x": 0.1, "y": [True, None]}, "s"]
        doc = {"a": shared, "b": shared, "c": {"d": [shared, []]}, "e": []}
        assert report.dumps(doc) == dumps_oracle(doc)
        assert json.loads(report.dumps(doc))["c"]["d"][0] == json.loads(report.dumps(shared))
