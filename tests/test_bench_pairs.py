"""The pair statistics, line counts and op digests of tools/bench_pairs.py,
on made-up runs and trees."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "rate", "better": "higher", "bound": 0.25},
           {"name": "ms", "better": "lower", "bound": 0.2}]


def _pairs(parent, change, failed=(0, 0)):
    return [{"parent": {"rate": p, "ms": 1000 / p, "failed": failed[0],
                        "attempted": 10, "correct": True},
             "change": {"rate": c, "ms": 1000 / c, "failed": failed[1],
                        "attempted": 10, "correct": True}}
            for p, c in zip(parent, change)]


def test_claim_needs_nine_tenths_and_a_gap_past_the_parent_iqr():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    change = [120, 119, 121, 118, 122, 120, 117, 123, 99, 120]
    summary = bench_pairs.summarize("w", _pairs(parent, change), METRICS)
    rate, ms = summary["metrics"]["rate"], summary["metrics"]["ms"]
    assert rate["change_ahead_pairs"] == ms["change_ahead_pairs"] == 9
    assert rate["change_worse_by"] == pytest.approx(-0.2)
    assert ms["change_worse_by"] < 0 and ms["within_bound"]
    for name, better in (("rate", "higher"), ("ms", "lower")):
        claim = bench_pairs.judge(summary, name, better)
        assert claim["wins_needed"] == 9 and claim["met"], claim

    # eight wins of ten are not enough
    change[0] = 99
    summary = bench_pairs.summarize("w", _pairs(parent, change), METRICS)
    assert not bench_pairs.judge(summary, "rate", "higher")["met"]


def test_claim_fails_on_a_gap_inside_the_iqr_or_more_failed_ops():
    parent = [90, 110, 95, 105, 100, 92, 108, 97, 103, 100]
    change = [p + 1 for p in parent]
    summary = bench_pairs.summarize("w", _pairs(parent, change), METRICS)
    claim = bench_pairs.judge(summary, "rate", "higher")
    assert claim["wins"] == 10 and claim["median_gap"] == pytest.approx(1)
    assert claim["parent_iqr_width"] > 1 and not claim["met"]

    change = [p * 2 for p in parent]
    summary = bench_pairs.summarize("w", _pairs(parent, change, (0, 1)),
                                    METRICS)
    assert summary["failed"] == {"parent": 0, "change": 10}
    assert not bench_pairs.judge(summary, "rate", "higher")["met"]


def test_claim_needs_the_ratio_interval_clear_of_one():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    change = [120, 119, 121, 118, 122, 120, 117, 123, 99, 120]
    summary = bench_pairs.summarize("w", _pairs(parent, change), METRICS)
    claim = bench_pairs.judge(summary, "rate", "higher")
    assert claim["met"] and claim["interval_clear_of_1"]
    assert claim["ratio_interval"] == pytest.approx([117 / 103, 121 / 98])
    # at ten pairs nine wins put r(2) above 1, so summarize never gives
    # this one; judge still reads the interval, not the wins alone
    spans = summary["metrics"]["rate"]["ratio_interval"] = [0.99, 1.2]
    summary["metrics"]["ms"]["ratio_interval"] = [1 / r for r in spans[::-1]]
    for name, better in (("rate", "higher"), ("ms", "lower")):
        claim = bench_pairs.judge(summary, name, better)
        assert claim["wins"] == 9
        assert claim["median_gap"] > claim["parent_iqr_width"]
        assert not claim["interval_clear_of_1"] and not claim["met"]
    # below six pairs there is no interval, so every win is not enough
    summary = bench_pairs.summarize("w", _pairs(parent[:5], change[:5]),
                                    METRICS)
    claim = bench_pairs.judge(summary, "rate", "higher")
    assert claim["wins"] == 5 and claim["ratio_interval"] is None
    assert not claim["met"]


def test_regression_past_the_bound_is_flagged():
    parent = [100] * 10
    change = [70] * 10
    summary = bench_pairs.summarize("w", _pairs(parent, change), METRICS)
    assert summary["metrics"]["rate"]["change_worse_by"] == pytest.approx(0.3)
    assert not summary["metrics"]["rate"]["within_bound"]
    assert not summary["metrics"]["ms"]["within_bound"]


def test_ratio_interval_is_the_sign_test_order_statistics():
    parent = [100] * 10
    change = [95, 103, 99, 101, 90, 104, 98, 102, 97, 100]
    summary = bench_pairs.summarize("w", _pairs(parent, change), METRICS)
    rate = summary["metrics"]["rate"]
    assert rate["ratio_median"] == pytest.approx(0.995)
    # r(2) and r(9) of the ten sorted ratios, 1 - 2 * 11/1024 coverage
    assert rate["ratio_interval"] == pytest.approx([0.95, 1.03])
    assert rate["ratio_interval_coverage"] == pytest.approx(1 - 22 / 1024)
    assert summary["metrics"]["ms"]["ratio_interval"] == pytest.approx(
        [100 / 103, 100 / 95])
    assert bench_pairs.ratio_interval([1.0] * 6) == ([1.0, 1.0], 1 - 2 / 64)
    short = bench_pairs.summarize("w", _pairs(parent[:5], change[:5]),
                                  METRICS)
    assert short["metrics"]["rate"]["ratio_interval"] is None
    assert short["metrics"]["rate"]["ratio_interval_coverage"] is None


def test_source_lines_count_each_package_file(tmp_path):
    package = tmp_path / "src" / "fairgossip"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not counted\n")
    assert bench_pairs.source_lines(tmp_path) == {
        "files": {"a.py": 2, "b.py": 1}, "total": 3}


# A stand-in for perfbench/worker.py: each op writes PAGES fresh pages of
# an anonymous mapping, so it takes at least that many minor faults.
STUB_WORKER = """
import hashlib, mmap
from types import SimpleNamespace
PAGES = {pages}
WORKLOADS = {{"w": None}}
def load_package():
    return None
def base_seed(workload, seed):
    return seed
def run_op(w, fg, k, base, out):
    if PAGES:
        size = PAGES * mmap.PAGESIZE
        with mmap.mmap(-1, size) as m:
            for page in range(0, size, mmap.PAGESIZE):
                m[page] = 1
    sha = hashlib.sha256(str(base + k).encode()).hexdigest()
    return SimpleNamespace(sha256=sha, error=None)
def digest(results):
    return hashlib.sha256("".join(r.sha256 for r in results).encode()
                          ).hexdigest()
"""


def test_digests_report_page_faults_per_op(tmp_path):
    trees = {}
    for side, pages in (("parent", 0), ("change", 512)):
        trees[side] = tmp_path / side
        (trees[side] / "perfbench").mkdir(parents=True)
        (trees[side] / "perfbench" / "worker.py").write_text(
            STUB_WORKER.format(pages=pages))
    doc = bench_pairs.digests(trees, "w", 7, 5)
    assert doc["equal_ops"] == 5 and doc["differing_ops"] == []
    assert doc["parent"]["digest"] == doc["change"]["digest"]
    assert doc["parent"]["failed"] == doc["change"]["failed"] == 0
    faults = {side: doc[side]["minflt_per_op"] for side in trees}
    assert faults["parent"]["median"] < 64
    assert min(faults["change"].values()) >= 512


def test_digests_count_calls_per_op(tmp_path):
    trees = {}
    for side, calls in (("parent", 0), ("change", 25)):
        trees[side] = tmp_path / side
        (trees[side] / "perfbench").mkdir(parents=True)
        # run_op first makes `calls` more Python calls and C calls
        (trees[side] / "perfbench" / "worker.py").write_text(
            STUB_WORKER.format(pages=0) + f"""
_run_op = run_op
def _noop():
    pass
def run_op(w, fg, k, base, out):
    for _ in range({calls}):
        _noop()
        abs(k)
    return _run_op(w, fg, k, base, out)
""")
    doc = bench_pairs.digests(trees, "w", 7, 5)
    assert doc["equal_ops"] == 5
    counts = {side: doc[side]["calls_per_op"] for side in trees}
    assert counts["parent"]["python"] > 0 and counts["parent"]["c"] > 0
    assert counts["change"] == {"python": counts["parent"]["python"] + 25,
                                "c": counts["parent"]["c"] + 25}


def test_digests_name_the_ops_that_differ(tmp_path):
    trees = {}
    for side, odd in (("parent", 0), ("change", 3)):
        trees[side] = tmp_path / side
        (trees[side] / "perfbench").mkdir(parents=True)
        # the change's op `odd` writes other bytes; every other op agrees
        (trees[side] / "perfbench" / "worker.py").write_text(
            STUB_WORKER.format(pages=0) + f"""
_run_op = run_op
def run_op(w, fg, k, base, out):
    r = _run_op(w, fg, k, base, out)
    if k == {odd}:
        r.sha256 = hashlib.sha256(b"other bytes").hexdigest()
    return r
""")
    doc = bench_pairs.digests(trees, "w", 7, 5)
    assert doc["equal_ops"] == 4
    assert doc["differing_ops"] == [3]
    assert doc["parent"]["digest"] != doc["change"]["digest"]


def test_kernel_script_times_every_case_once():
    repo = _PATH.parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    times = bench_pairs.run_json([sys.executable, "-c",
                                  bench_pairs.KERNEL_SCRIPT, "7", "1"],
                                 repo, env)
    assert "run_jsonl_n256" in times and "run_trial_recorded_n256" in times
    assert all(ms > 0 for ms in times.values()), times
