import sys

import pytest

from greenpot import gauss, green, verify


class TestSuiteMetadata:
    def test_every_check_has_title_and_threshold(self):
        assert verify.CRITERION_IDS == [str(k) for k in range(1, 11)]
        assert set(verify.TITLES) == set(verify.CRITERION_IDS)
        assert set(verify.THRESHOLDS) == set(verify.CRITERION_IDS)
        for cid in verify.CRITERION_IDS:
            assert verify.TITLES[cid]
            assert verify.THRESHOLDS[cid]

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            verify.run_all(which=["0"])
        with pytest.raises(ValueError):
            verify.run_all(which=["11"])


class TestFailureCapture:
    def test_fail_record_carries_exception_text(self):
        def broken():
            raise RuntimeError("broken widget")

        res = verify._run_check("1", broken)
        assert not res.passed
        assert "RuntimeError" in res.measured["error"]
        assert "broken widget" in res.measured["error"]
        assert res.runtime_s >= 0.0


class TestRuntimeLimit:
    def test_runtime_limit_fails_a_check_within_thresholds(self, monkeypatch):
        (on_time,) = verify.run_all(which=["1"])
        assert on_time.passed
        monkeypatch.setitem(verify.RUNTIME_LIMITS, "1", 0.0)
        (late,) = verify.run_all(which=["1"])
        assert not late.passed
        assert late.measured == on_time.measured
        assert late.table_rows == on_time.table_rows


def _spy(monkeypatch, fn) -> list:
    """Count calls of fn through every greenpot module that holds it."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "greenpot" or name.startswith("greenpot."))
                and getattr(module, fn.__name__, None) is fn):
            monkeypatch.setattr(module, fn.__name__, spy)
    return calls


class TestSharedFamily:
    def test_each_instance_solved_once_per_pass(self, monkeypatch):
        solves = _spy(monkeypatch, gauss.solve_gauss)
        equilibria = _spy(monkeypatch, green.green_equilibrium)
        results = verify.run_all(which=["2", "3", "4"])
        assert all(r.passed for r in results)
        assert len(solves) == 24
        assert len(equilibria) == 24

    def test_every_pass_builds_its_own_family(self, monkeypatch, tmp_path):
        # each of the 24 instances builds one Green system
        builds = _spy(monkeypatch, verify._green_from_parts)
        blobs = []
        for run in ("a", "b"):
            results = verify.run_all(which=["2"])
            assert len(builds) == 24 * (len(blobs) + 1)
            verify.write_tables(results, str(tmp_path / run))
            blobs.append((tmp_path / run / "tables" / "criterion_02.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestTableWriter:
    def test_layout_and_short_floats(self, tmp_path):
        results = [
            verify.CriterionResult(
                cid="1", title=verify.TITLES["1"], passed=True,
                measured={"worst": 1.0 / 3.0, "count": 4},
                runtime_s=0.01,
                table_header=["quantity", "value"],
                table_rows=[("gap", 0.5), ("runtime", 0.01)]),
            verify.CriterionResult(
                cid="2", title=verify.TITLES["2"], passed=False,
                measured={"error": "SolverError: nope"}, runtime_s=0.2),
        ]
        names = verify.write_tables(results, str(tmp_path))
        assert names == ["criterion_01.csv", "criterion_02.csv", "summary.csv"]
        summary = (tmp_path / "tables" / "summary.csv").read_text().splitlines()
        assert summary[0] == "criterion,passed,threshold,measured"
        assert summary[1].startswith("1,true,")
        assert "worst=0.33333333333333331" in summary[1]
        assert summary[2].startswith("2,false,")
        c1 = (tmp_path / "tables" / "criterion_01.csv").read_text().splitlines()
        assert c1[0] == "quantity,value"
        assert c1[1] == "gap,0.5"
        # an empty table still yields a parseable file
        c2 = (tmp_path / "tables" / "criterion_02.csv").read_text().splitlines()
        assert c2 == ["empty"]
