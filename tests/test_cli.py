import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import cmnlab
from cmnlab import report
from cmnlab.bounds import CRITERIA
from cmnlab.cli import (
    EXIT_INVALID_INPUT,
    EXIT_OK,
    main,
    state_to_statefile,
    statefile_to_state,
)
from cmnlab.zoo import rho1


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

    def test_emit_unknown(self, capsys):
        code, _, err = run(capsys, "zoo", "emit", "nope")
        assert code == EXIT_INVALID_INPUT
        assert "available" in err

    def test_emit_requires_name(self, capsys):
        code, _, err = run(capsys, "zoo", "emit")
        assert code == EXIT_INVALID_INPUT


class TestStateFiles:
    def test_float_roundtrip_exact(self):
        doc = state_to_statefile(rho1())
        text = report.dumps(doc)
        back = statefile_to_state(json.loads(text))
        assert np.abs(back.data - rho1().data).max() == 0

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

    def test_rejects_wrong_length(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": [{"re": 1, "im": 0}]}))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INVALID_INPUT
        assert "entries" in err

    def test_rejects_bad_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INVALID_INPUT

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/file.json")
        assert code == EXIT_INVALID_INPUT


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
