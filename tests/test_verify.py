import csv
import hashlib
import io
import sys

import pytest

from greenpot import gauss, green, solvers, verify
from greenpot.reports import csv_lines, write_csv


def write_tables(results, out) -> list[str]:
    """Write verify.tables(results) into out/tables, as the CLI stages them."""
    (out / "tables").mkdir(parents=True)
    names = []
    for name, header, rows in verify.tables(results):
        write_csv(out / "tables" / name, header, rows)
        names.append(name)
    return names


class TestSuiteMetadata:
    def test_every_check_has_title_and_threshold(self):
        assert verify.CRITERION_IDS == [str(k) for k in range(1, 11)]
        assert set(verify.TITLES) == set(verify.CRITERION_IDS)
        assert set(verify.THRESHOLDS) == set(verify.CRITERION_IDS)
        for cid in verify.CRITERION_IDS:
            assert verify.TITLES[cid]
            assert verify.THRESHOLDS[cid]

    def test_thresholds_state_each_runtime_limit(self):
        assert verify.THRESHOLDS["1"].endswith(", runtime < 1 s")
        assert verify.THRESHOLDS["3"].endswith(", runtime < 1 min")
        assert verify.THRESHOLDS["9"].endswith(", runtime < 2 min")
        assert "runtime" not in verify.THRESHOLDS["10"]
        for cid, limit in verify.RUNTIME_LIMITS.items():
            # the limit is stated once, and only where the check has one
            assert verify.THRESHOLDS[cid].count("runtime") == (limit is not None)

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


class TestCheckTenReusesTheBasePass:
    def test_every_check_body_runs_twice(self, monkeypatch):
        # with every id of _CHECK_IDS in the first pass, check 10 compares
        # it with one fresh pass; it must not count a fixed number of checks
        runs = []

        def fake(cid):
            def body(seed):
                runs.append(cid)
                return True, {"seed": seed}, ["cid"], [(cid,)]
            return body

        ids = [str(k) for k in range(1, 9)]
        monkeypatch.setattr(verify, "_CHECKS", {cid: fake(cid) for cid in ids})
        monkeypatch.setattr(verify, "_CHECK_IDS", ids)
        monkeypatch.setattr(verify, "CRITERION_IDS", ids + ["10"])
        # the fakes take the seed: none of them builds the shared family
        monkeypatch.setattr(verify, "_FAMILY_CHECKS", ())
        results = verify.run_all(seed=0)
        assert [r.cid for r in results] == ids + ["10"]
        assert all(r.passed for r in results)
        assert results[-1].measured["files_compared"] == len(ids) + 1
        assert sorted(runs) == sorted(ids * 2)


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
        # the first of them builds the family, inside its own runtime
        assert 0.0 < results[0].family_build_s < results[0].runtime_s
        assert [r.family_build_s for r in results[1:]] == [None, None]

    def test_every_pass_builds_its_own_family(self, monkeypatch, tmp_path):
        # each of the 24 instances builds one Green system
        builds = _spy(monkeypatch, verify._green_from_parts)
        blobs = []
        for run in ("a", "b"):
            results = verify.run_all(which=["2"])
            assert len(builds) == 24 * (len(blobs) + 1)
            write_tables(results, tmp_path / run)
            blobs.append((tmp_path / run / "tables" / "criterion_02.csv").read_bytes())
        assert blobs[0] == blobs[1]


def _factored_blocks(monkeypatch) -> list:
    """Digest of every block a greenpot module factors from now on, taken
    before the factorization overwrites it."""
    digests = []
    real = solvers._cholesky

    def hashing(block, *args, **kwargs):
        digests.append(hashlib.sha256(block.tobytes()).hexdigest())
        return real(block, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "greenpot" or name.startswith("greenpot."))
                and getattr(module, "_cholesky", None) is real):
            monkeypatch.setattr(module, "_cholesky", hashing)
    return digests


class TestNoSolveRepeated:
    def test_check_6_factors_no_block_twice(self, monkeypatch):
        # each truncation member is swept onto and solved on one restricted
        # system, and both end on the whole member
        blocks = _factored_blocks(monkeypatch)
        assert verify.criterion_6()[0]
        assert len(set(blocks)) == len(blocks)

    def test_check_7_factorizations(self, monkeypatch):
        # each cone member's unit-swept and charge-2 problems share one
        # restricted system; the repeats left fall between them and the
        # charge-0.5 walk, whose family_sweep builds its own systems
        blocks = _factored_blocks(monkeypatch)
        assert verify.criterion_7()[0]
        assert len(blocks) <= 43
        assert len(blocks) - len(set(blocks)) <= 14

    def test_check_9_factors_no_block_twice(self, monkeypatch):
        # the Riesz sweeps onto one target share a factor slot and the
        # Green sweeps onto the part solve on its restricted system, so the
        # idempotence re-runs and the composition sweeps reuse the factor
        # of the sweep before them: 8 factorizations per instance
        blocks = _factored_blocks(monkeypatch)
        assert verify.criterion_9()[0]
        assert len(blocks) <= 400
        assert len(set(blocks)) == len(blocks)


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
        names = write_tables(results, tmp_path)
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

    def test_summary_is_valid_csv(self):
        # threshold texts hold commas; every row still parses to four fields
        name, header, rows = verify.tables(verify.run_all(which=["1"]))[-1]
        assert name == "summary.csv"
        text = "".join(csv_lines(header, rows))
        parsed = list(csv.reader(io.StringIO(text, newline="")))
        assert parsed[0] == ["criterion", "passed", "threshold", "measured"]
        assert [len(r) for r in parsed] == [4, 4]
        assert parsed[1][2] == verify.THRESHOLDS["1"]


def _result(cid, rows, header=("check", "size", "value", "error")):
    return verify.CriterionResult(cid=cid, title=verify.TITLES[cid], passed=True,
                                  measured={}, runtime_s=0.0,
                                  table_header=list(header), table_rows=rows)


class TestRerunCheck:
    def test_compares_rendered_tables_in_memory(self, monkeypatch):
        fresh = [_result("1", [("gap", 0.5)])]
        monkeypatch.setattr(verify, "_run_pass", lambda seed, ids: fresh)
        passed, measured, _, rows = verify.criterion_10(reference=fresh)
        assert passed and measured["files_compared"] == 2
        assert rows == [("criterion_01.csv", True), ("summary.csv", True)]
        # a last-digit change shows in the 17-digit text
        moved = [_result("1", [("gap", 0.5000000000000001)])]
        passed, measured, _, _ = verify.criterion_10(reference=moved)
        assert not passed
        assert measured["byte_mismatches"] == ["criterion_01.csv"]

