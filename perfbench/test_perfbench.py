"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import itertools
import json
import types

import pytest

import outputs
import spantrace
import worker
from spantrace import Patches, Span, Totals, Tracer, latency_summary, percentile


@pytest.fixture
def clock(monkeypatch):
    """perf_counter replaced by a clock that advances 1 s per reading."""
    ticks = itertools.count()
    monkeypatch.setattr(spantrace, "perf", lambda: float(next(ticks)))


@pytest.fixture(scope="module")
def fg():
    return worker.load_package()


# --- self time ----------------------------------------------------------------

def test_self_time_of_nested_spans_and_leaves():
    spans = [Span(0, "cli.main", None, 1, 0.0, 10.0),
             Span(1, "engine.run_trial", 0, 1, 1.0, 7.0),
             Span(2, "engine.trace_log_records", 0, 1, 7.5, 9.0)]
    leaves = {(1, "protocol.derive_stream"): [3, 2.0, 0],
              (1, "engine.certificate_bits"): [5, 0.5, 0],
              (None, "protocol.derive_stream"): [1, 4.0, 0]}
    own = spantrace.self_seconds(spans, leaves)
    assert own == {0: 10.0 - 6.0 - 1.5, 1: 6.0 - 2.5, 2: 1.5}

    tracer = Tracer()
    tracer.spans, tracer.leaves = spans, leaves
    t = Totals(tracer)
    assert t.calls["protocol.derive_stream"] == 4
    assert t.seconds["protocol.derive_stream"] == 6.0
    assert t.self_seconds["engine.run_trial"] == 3.5
    # a leaf is all self time; engine = run_trial self + records + bits
    assert t.layer_self == {"cli": 2.5, "engine": 3.5 + 1.5 + 0.5,
                            "protocol": 6.0}


def test_wrappers_record_nesting_and_aggregate_leaves(clock):
    tracer = Tracer()
    leaf = tracer.wrap_leaf("protocol.verify", lambda ok: ok,
                            hit=lambda res: res)
    inner = tracer.wrap_span("engine.run_trial",
                             lambda: [leaf(True), leaf(False), leaf(True)])
    outer = tracer.wrap_span("cli.main", lambda: inner())
    tracer.op = 7
    outer()

    main, trial = tracer.spans
    assert (main.parent, trial.parent) == (None, main.sid)
    assert main.op == trial.op == 7
    # clock reads: main 0, trial 1, leaves 2-7, trial end 8, main end 9
    assert (main.start, main.end, trial.start, trial.end) == (0, 9, 1, 8)
    assert tracer.leaves == {(trial.sid, "protocol.verify"): [3, 3.0, 2]}
    t = Totals(tracer)
    assert t.self_seconds["engine.run_trial"] == 7 - 3
    assert t.self_seconds["cli.main"] == 9 - 7
    assert t.hits["protocol.verify"] == 2


def test_span_closes_when_callee_raises(clock):
    tracer = Tracer()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap_span("engine.run_trial", boom)()
    assert tracer.spans[0].end == 1
    assert tracer.wrap_span("cli.main", lambda: 5)() == 5
    assert tracer.spans[1].parent is None


# --- latency summary ----------------------------------------------------------

def test_percentiles_are_nearest_rank_measured_values():
    values = [0.001 * v for v in range(100, 0, -1)]      # 1..100 ms
    assert percentile(values, 50) == pytest.approx(0.050)
    assert percentile(values, 90) == pytest.approx(0.090)
    assert percentile([3.0], 90) == 3.0
    assert percentile([1.0, 2.0], 50) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_latency_summary_states_op_count():
    summary = latency_summary([0.001 * v for v in range(1, 21)])
    assert summary["ops"] == 20
    assert summary["op_ms_p50"] == pytest.approx(10.0)
    assert summary["op_ms_p90"] == pytest.approx(18.0)
    assert summary["ops_beyond_p90"] == 2


# --- output checks ------------------------------------------------------------

def run_cli(fg, tmp_path, argv):
    out = tmp_path / "out.jsonl"
    assert fg.main([*argv, "--out", str(out)]) in (0, 1)
    return out.read_bytes()


def without_line(data: bytes, index: int) -> bytes:
    lines = data.splitlines(keepends=True)
    del lines[index]
    return b"".join(lines)


def test_fairness_check_rejects_truncated_or_altered(fg, tmp_path):
    data = run_cli(fg, tmp_path, ["fairness", "--n", "16", "--trials", "6",
                                  "--seed", "3"])
    assert outputs.check_fairness(data, 6)["records"] == 3
    with pytest.raises(outputs.OutputError):
        outputs.check_fairness(data, 7)
    with pytest.raises(outputs.OutputError):
        outputs.check_fairness(data[:-20], 6)
    with pytest.raises(outputs.OutputError):
        outputs.check_fairness(without_line(data, -1), 6)
    rows = [json.loads(line) for line in data.splitlines()]
    rows[0]["wins"] += 1
    altered = "".join(json.dumps(r) + "\n" for r in rows).encode()
    with pytest.raises(outputs.OutputError):
        outputs.check_fairness(altered, 6)


@pytest.mark.parametrize("chunk", [outputs.CHUNK, 64])
def test_trace_check_rejects_truncated_or_altered(fg, tmp_path, monkeypatch,
                                                  chunk):
    monkeypatch.setattr(outputs, "CHUNK", chunk)
    data = run_cli(fg, tmp_path, ["run", "--n", "16", "--seed", "5"])
    stats = outputs.check_trace(data, 16)
    rows = data.splitlines()
    assert stats["records"] == len(rows)
    assert stats["rounds_observed"] == stats["rounds_reported"]

    for bad in (data[:len(data) // 2],                 # cut mid-line
                without_line(data, -1),                # summary gone
                without_line(data, -2),                # a decision gone
                data.replace(b'"cert_push"', b'"cert_pushed"', 1),
                data + data.splitlines(keepends=True)[0]):
        with pytest.raises(outputs.CHECK_ERRORS):
            outputs.check_trace(bad, 16)


def test_attack_check_counts_every_trial():
    docs = [{"strategy": s,
             "equilibrium": {"trials": 4, "kept_pairs": 3, "dropped_pairs": 1},
             "claims": {"traces": 4}} for s in worker.STRATEGIES]
    data = json.dumps(docs).encode()
    assert outputs.check_attack(data, 4, worker.STRATEGIES)["records"] == 4
    docs[2]["claims"]["traces"] = 3
    with pytest.raises(outputs.OutputError):
        outputs.check_attack(json.dumps(docs).encode(), 4, worker.STRATEGIES)
    with pytest.raises(outputs.OutputError):
        outputs.check_attack(data[:-5], 4, worker.STRATEGIES)


# --- wrapper restoration ------------------------------------------------------

def test_patches_restore_originals_even_after_an_error():
    mod = types.SimpleNamespace(f=len, g=sum)
    originals = dict(vars(mod))
    with pytest.raises(RuntimeError):
        with Patches() as patches:
            patches.set(mod, "f", lambda x: 0)
            patches.set(mod, "f", lambda x: 1)      # patched twice
            patches.set(mod, "g", lambda x: 2)
            assert not patches.all_restored()
            raise RuntimeError
    assert vars(mod) == originals
    assert patches.all_restored()


def test_install_wraps_and_restores_package_functions(fg):
    before = {(name, attr): getattr(getattr(fg, name), attr)
              for name, attr in (("engine", "certificate_bits"),
                                 ("engine", "derive_stream"),
                                 ("engine", "make_strategy"),
                                 ("analysis", "run_trial"),
                                 ("cli", "trace_log_records"))}
    with Patches() as patches:
        worker.install(Tracer(), patches, fg)
        for (name, attr), original in before.items():
            assert getattr(getattr(fg, name), attr) is not original
    assert patches.all_restored()
    for (name, attr), original in before.items():
        assert getattr(getattr(fg, name), attr) is original


def test_traced_op_writes_the_same_bytes(fg, tmp_path):
    wl = worker.WORKLOADS["attack-n64"]
    wl = worker.Workload(wl.name, 1, wl.run, wl.check)
    out = tmp_path / "op.out"
    plain = worker.run_op(wl, fg, 1, 11, out)
    tracer = Tracer()
    with Patches() as patches:
        traced = worker.run_op(wl, worker.install(tracer, patches, fg),
                               1, 11, out, tracer)
    assert plain.error is None and traced.error is None
    assert plain.sha256 == traced.sha256
    t = Totals(tracer)
    assert t.calls["engine.run_trial"] == 5         # 1 baseline + 4 arms
    assert t.calls["adversary.hook"] > 0
    assert tracer.spans[0].name == "bench.op"

    layers = worker.layer_metrics(tracer, [traced], wl.block)
    assert layers["analysis.baseline_reuse_ratio"] == 0.75
    assert layers["cli.self_ms_per_trial"] is None   # idle: no CLI here
    listed = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert set(layers) == {m["name"] for m in listed["per_layer"]
                           if not m["name"].startswith("tracing.")}


def test_reference_speed_scales_each_op_by_its_calibration():
    wl = worker.WORKLOADS["fairness-n64"]
    ops = [worker.OpResult(k, s, "00", 0, None, {})
           for k, s in ((1, 0.1), (2, 0.2), (3, 0.3))]
    cal = [worker.CAL_REF_S, 2 * worker.CAL_REF_S, 3 * worker.CAL_REF_S]
    summary = worker.phase_summary(wl, ops, cal)
    assert summary["trials_per_s"] == pytest.approx(3 * wl.block / 0.6)
    assert summary["ref"]["trials_per_s"] == pytest.approx(3 * wl.block / 0.3)
    assert summary["ref"]["op_ms_p50"] == pytest.approx(100.0)
    assert summary["op_ms_p50"] == pytest.approx(200.0)
