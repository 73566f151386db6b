import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _result(ops: float, p50: float, attempted: int, failed: int = 0) -> dict:
    """A perfbench closing JSON object with two of its metrics."""
    return dict(
        correct=failed == 0, attempted=attempted, failed=failed,
        metrics=dict(ops_per_s=dict(value=ops, unit="1/s"), op_ms_p50=dict(value=p50, unit="ms")),
    )


CANNED = [
    (0, _result(100.0, 10.0, 1000), _result(120.0, 8.0, 1200)),
    (1, _result(110.0, 9.0, 1100), _result(105.0, 9.5, 1050, failed=2)),
    (2, _result(90.0, 11.0, 900), _result(130.0, 7.0, 1300)),
    (3, _result(105.0, 9.5, 1050), _result(125.0, 8.0, 1250)),
    (4, _result(95.0, 10.5, 950), _result(95.0, 10.5, 950)),
]


class TestSummarize:
    def test_pairs_wins_and_counts(self):
        got = bench_pairs.summarize(CANNED)
        assert got["pairs"] == 5
        assert got["ops_per_s_pairs"] == [
            [0, 100.0, 120.0], [1, 110.0, 105.0], [2, 90.0, 130.0], [3, 105.0, 125.0],
            [4, 95.0, 95.0],
        ]
        assert got["ops_per_s_pairs_won_by_change"] == 3  # the tie counts for neither
        assert got["attempted_parent"] == 5000
        assert got["attempted_change"] == 5750
        assert got["failed"] == dict(parent=0, change=2)
        assert got["correct"] == dict(parent=True, change=False)

    def test_quartiles_per_side_and_metric(self):
        runs = bench_pairs.summarize(CANNED)["runs"]
        # parent ops/s sorted: 90, 95, 100, 105, 110 -> q1 95, median 100, q3 105
        assert runs["parent"]["ops_per_s"] == dict(iqr=10.0, median=100.0, q1=95.0, q3=105.0)
        # change op_ms_p50 sorted: 7, 8, 8, 9.5, 10.5
        assert runs["change"]["op_ms_p50"] == dict(iqr=1.5, median=8.0, q1=8.0, q3=9.5)

    def test_accept_inputs_per_metric(self):
        # BENCHMARK.json's layout; peak_rss_mb is reported by no run, so it is left out.
        end_to_end = [dict(name="ops_per_s", better="higher", bound=0.25),
                      dict(name="op_ms_p50", better="lower", bound=0.25),
                      dict(name="peak_rss_mb", better="lower", bound=0.1)]
        accept = bench_pairs.summarize(CANNED, end_to_end)["accept"]
        assert set(accept) == {"ops_per_s", "op_ms_p50"}
        # ops/s medians 100 -> 120 over the parent's IQR of 10; p50 medians
        # 10 -> 8 over its IQR of 1, positive since lower is better.
        assert accept["ops_per_s"] == dict(better="higher", bound=0.25, pairs_won_by_change=3,
                                           median_gap_over_parent_iqr=2.0, within_bound=True)
        assert accept["op_ms_p50"] == dict(better="lower", bound=0.25, pairs_won_by_change=3,
                                           median_gap_over_parent_iqr=2.0, within_bound=True)

    def test_accept_inputs_of_a_worse_change(self):
        end_to_end = [dict(name="ops_per_s", better="higher", bound=0.25),
                      dict(name="op_ms_p50", better="lower", bound=0.25)]
        pairs = [(i, _result(100.0, 10.0, 1000), _result(70.0 + i, 12.5, 700)) for i in range(4)]
        accept = bench_pairs.summarize(pairs, end_to_end)["accept"]
        # A parent IQR of 0 gives no gap; median 71.5 lies below 0.75 x 100.
        assert accept["ops_per_s"] == dict(better="higher", bound=0.25, pairs_won_by_change=0,
                                           median_gap_over_parent_iqr=None, within_bound=False)
        # 12.5 ms is exactly 1.25 x 10 ms: on the bound, so within it.
        assert accept["op_ms_p50"]["within_bound"] is True
        assert accept["op_ms_p50"]["pairs_won_by_change"] == 0
        assert bench_pairs.summarize(pairs)["accept"] == {}

    def test_layout_of_the_recorded_files(self):
        recorded = json.loads((ROOT / "BENCH_7.json").read_text())["workloads"]["search_mc"]
        got = bench_pairs.summarize(CANNED)
        assert set(recorded) <= set(got)
        assert set(recorded["runs"]["parent"]["ops_per_s"]) == set(got["runs"]["parent"]["ops_per_s"])


FAKE_RUN = """\
import hashlib, json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
here = Path(__file__).resolve().parent.parent
with open(here.parent / "order.log", "a") as log:
    log.write(f"{seed} {here.name}\\n")
ops = {ops} + seed
src = hashlib.sha256(here.name.encode()).hexdigest()
print("env " + json.dumps(dict(git_commit=None, src_sha256=src, nproc=2, cpu_model="test cpu",
                               python="3", numpy="2")))
print(json.dumps(dict(correct=True, attempted=10, failed=0,
                      metrics=dict(ops_per_s=dict(value=ops, unit="1/s")))))
"""


def _fake_checkouts(tmp_path):
    for side, ops in (("parent", 100), ("change", 150)):
        bench = tmp_path / side / "perfbench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text(FAKE_RUN.replace("{ops}", str(ops)))


def test_runs_alternate_and_merge_into_one_file(tmp_path):
    _fake_checkouts(tmp_path)
    out = tmp_path / "BENCH_99.json"
    (out).write_text(json.dumps(dict(workloads=dict(huge_n=dict(pairs=3)))))
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "search_mc", "--pairs", "3", "--seconds", "1", "--pr", "99",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    order = (tmp_path / "order.log").read_text().split("\n")
    assert order[:6] == ["0 parent", "0 change", "1 change", "1 parent", "2 parent", "2 change"]
    doc = json.loads(out.read_text())
    assert doc["pr"] == 99
    assert doc["workloads"]["huge_n"] == dict(pairs=3)
    search = doc["workloads"]["search_mc"]
    assert search["ops_per_s_pairs"] == [[0, 100, 150], [1, 101, 151], [2, 102, 152]]
    assert search["ops_per_s_pairs_won_by_change"] == 3
    # The fake runs report ops/s alone; its rule comes from BENCHMARK.json.
    bound = next(m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
                 if m["name"] == "ops_per_s")
    assert search["accept"] == dict(ops_per_s=dict(
        better="higher", bound=bound, pairs_won_by_change=3, median_gap_over_parent_iqr=50.0,
        within_bound=True))


def test_commits_fall_back_to_the_source_hash(tmp_path):
    # The fake runs report no git commit, as in a checkout made with git archive.
    _fake_checkouts(tmp_path)
    out = tmp_path / "BENCH_99.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "search_mc", "--pairs", "2", "--seconds", "1", "--pr", "99",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    doc = json.loads(out.read_text())
    for side in ("parent", "change"):
        src = hashlib.sha256(side.encode()).hexdigest()
        assert doc[f"{side}_commit"] == f"src_sha256:{src[:12]}"
    env = dict(git_commit="0123456789abcdef", src_sha256="f" * 64)
    assert bench_pairs._commit(dict(env=env)) == "0123456"
    assert bench_pairs._commit(dict(env={})) is None


def test_failed_run_stops_with_its_stderr(tmp_path):
    for side in ("parent", "change"):
        bench = tmp_path / side / "perfbench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text("import sys\nsys.exit('perfbench: no such workload')\n")
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "nope", "--pairs", "2", "--seconds", "1", "--pr", "99",
            "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit, match="no such workload"):
        bench_pairs.main(argv)
    assert not (tmp_path / "out.json").exists()
