"""One benchmark workload, run in this process against the package in src/.

Started by run.py, once per set-up sample and once for the measured run.
It imports fairgossip, resolves the workload, runs one untimed warm-up op
and prints ``READY``, then ``CAL <seconds>``, the host calibration just
after set-up (see ``calibrate``); a set-up sample stops there. The measured run then
runs ops in a closed loop, one at a time, and prints one JSON line with
every op's latency, the checks and the digest. With ``--trace 1`` the
loop runs for a third of --seconds, its ops then run a second time with
the wrappers of spantrace.py installed, and the per-layer numbers of that
second pass are added.

    python3 perfbench/worker.py --workload fairness-n64 --seed 1 \
        --seconds 5 --trace 0 --tmp <dir>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

import outputs
from spantrace import Patches, Totals, Tracer, latency_summary, perf

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

STRATEGIES = ("k_underbid", "commitment_mismatch", "fake_faulty",
              "coherence_silence")
COALITION = (1, 2, 33, 34)
HALF64 = "32x1,32x2"


def load_package() -> SimpleNamespace:
    """Import fairgossip from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fairgossip
    if Path(fairgossip.__file__).resolve().parent != src / "fairgossip":
        raise ImportError(f"fairgossip imported from {fairgossip.__file__}, "
                          f"not from {src}")
    import fairgossip.adversary
    import fairgossip.analysis
    import fairgossip.cli
    import fairgossip.engine
    return SimpleNamespace(
        adversary=fairgossip.adversary, analysis=fairgossip.analysis,
        cli=fairgossip.cli, engine=fairgossip.engine,
        main=fairgossip.cli.main,
        run_equilibrium_experiment=(
            fairgossip.analysis.run_equilibrium_experiment))


# --- workloads --------------------------------------------------------------

def fairness_op(fg, seed0: int, block: int, out: Path) -> int:
    return fg.main(["fairness", "--n", "64", "--gamma", "4",
                    "--colors", HALF64, "--seed", str(seed0),
                    "--trials", str(block), "--out", str(out)])


def attack_op(fg, seed0: int, block: int, out: Path) -> int:
    """The A6/A7 suite at coalition size 4 over one seed block."""
    engine, analysis = fg.engine, fg.analysis
    colors = (1,) * 32 + (2,) * 32
    cache = analysis.BaselineCache()
    docs = []
    for strategy in STRATEGIES:
        config = engine.SimConfig(
            n=64, gamma=4.0, colors=colors,
            coalition=engine.CoalitionConfig(members=COALITION,
                                             strategy=strategy))
        auditor = analysis.ClaimsAuditor()
        report = fg.run_equilibrium_experiment(config, block, seed0,
                                               cache=cache, auditor=auditor)
        docs.append({"strategy": strategy, "equilibrium": report.to_dict(),
                     "claims": auditor.report().to_dict()})
    out.write_text(json.dumps(docs, sort_keys=True), encoding="utf-8")
    return 0


def trace_op(fg, seed0: int, block: int, out: Path) -> int:
    return fg.main(["run", "--n", "256", "--seed", str(seed0),
                    "--out", str(out)])


@dataclass(frozen=True)
class Workload:
    name: str
    block: int                                # trials (seeds) per op
    run: Callable[[Any, int, int, Path], int]  # -> CLI exit code
    check: Callable[[bytes, int], dict]


WORKLOADS = {w.name: w for w in (
    Workload("fairness-n64", 16, fairness_op, outputs.check_fairness),
    Workload("attack-n64", 4, attack_op,
             lambda data, block: outputs.check_attack(data, block,
                                                      STRATEGIES)),
    Workload("trace-n256", 1, trace_op,
             lambda data, block: outputs.check_trace(data, 256)),
)}


def base_seed(workload: str, seed: int) -> int:
    """First trial seed of op 0; op k covers base + k*block onward."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# --- ops --------------------------------------------------------------------

@dataclass
class OpResult:
    k: int
    seconds: float
    sha256: str
    out_bytes: int
    error: Optional[str]
    stats: dict


def run_op(workload: Workload, fg, k: int, base: int, out: Path,
           tracer: Optional[Tracer] = None) -> OpResult:
    out.unlink(missing_ok=True)
    error = None
    t0 = perf()
    if tracer is not None:
        tracer.op = k
        span = tracer.open("bench.op")
    try:
        rc = workload.run(fg, base + k * workload.block, workload.block, out)
        if rc not in (0, 1):            # 1 is a failed verdict, still output
            error = f"exit code {rc}"
    except Exception:                   # a failing op is counted, not fatal
        error = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.close(span)
    seconds = perf() - t0

    data = out.read_bytes() if out.exists() else b""
    stats: dict = {}
    if error is None:
        try:
            stats = workload.check(data, workload.block)
        except outputs.CHECK_ERRORS as exc:
            error = f"output check: {type(exc).__name__}: {exc}"
    if error is not None:
        print(f"op {k} failed: {error}", file=sys.stderr)
    return OpResult(k, seconds, hashlib.sha256(data).hexdigest(), len(data),
                    error, stats)


# The calibration loop's time on the reference host. Op latencies are
# also reported scaled by CAL_REF_S / (the loop's time right after the op),
# which takes out most of the drift in host speed between runs.
CAL_REF_S = 0.003


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that does not touch fairgossip:
    a reading of how fast the host runs Python code at that moment."""
    t0 = perf()
    table: dict[int, int] = {}
    for i in range(20000):
        table[i % 997] = table.get(i % 997, 0) + i
    return perf() - t0


def run_for(workload: Workload, fg, base: int, out: Path, budget: float,
            ) -> tuple[list[OpResult], list[float]]:
    """Ops 1, 2, ... until their summed latency reaches `budget` seconds.
    Output checks and a host calibration run between ops, uncounted."""
    results: list[OpResult] = []
    calibration: list[float] = []
    spent = 0.0
    k = 1
    while spent < budget:
        results.append(run_op(workload, fg, k, base, out))
        calibration.append(calibrate())
        spent += results[-1].seconds
        k += 1
    return results, calibration


def digest(results: list[OpResult]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(bytes.fromhex(r.sha256))
    return h.hexdigest()


def phase_summary(workload: Workload, results: list[OpResult],
                  calibration: Optional[list[float]] = None) -> dict:
    """Throughput and latency as measured and, given the calibration read
    after each op, at the reference host speed (``ref``)."""
    seconds = [r.seconds for r in results]
    trials = len(results) * workload.block
    doc = {"trials": trials,
           "trials_per_s": trials / sum(seconds),
           "failed": sum(r.error is not None for r in results),
           "output_sha256": digest(results),
           "errors": [r.error for r in results if r.error][:3],
           **latency_summary(seconds),
           "op_seconds": seconds}
    if calibration is not None:
        ref = [s * CAL_REF_S / c for s, c in zip(seconds, calibration)]
        doc["ref"] = {"trials_per_s": trials / sum(ref),
                      **latency_summary(ref)}
        doc["host_cal_ms"] = [c * 1e3 for c in calibration]
    return doc


# --- tracing ----------------------------------------------------------------

class StrategyProxy:
    """Stands in for a deviation strategy; its hooks are timed leaves."""

    def __init__(self, strategy, hooks: tuple[str, ...], wrap) -> None:
        for name in hooks:
            setattr(self, name, wrap(getattr(strategy, name)))


def install(tracer: Tracer, patches: Patches, fg) -> SimpleNamespace:
    """Wrap the functions each layer calls in the others. Returns the
    entry points the benchmark itself calls, wrapped as spans."""
    cli, analysis, engine = fg.cli, fg.analysis, fg.engine

    def note_trace(span, trace) -> None:
        span.attrs.update(messages=trace.stats.messages,
                          bits=trace.stats.bits,
                          decided=trace.outcome is not None,
                          baseline=trace.config.coalition is None)

    def span(obj, attr: str, name: str, after=None) -> None:
        patches.set(obj, attr,
                    tracer.wrap_span(name, getattr(obj, attr), after))

    def leaf(obj, attr: str, name: str, hit=None) -> None:
        patches.set(obj, attr, tracer.wrap_leaf(name, getattr(obj, attr), hit))

    # Each module imports its callees by name, so a wrapper goes on the
    # calling module's attribute, not on the defining module's.
    span(cli, "parse_config", "config.parse_config")
    span(cli, "run_fairness_experiment", "analysis.run_fairness_experiment")
    span(cli, "run_trial", "engine.run_trial", note_trace)
    records = cli.trace_log_records
    patches.set(cli, "trace_log_records", tracer.wrap_span(
        "engine.trace_log_records", lambda trace: iter(list(records(trace)))))
    span(analysis, "run_trial", "engine.run_trial", note_trace)
    leaf(cli, "fairness_test", "analysis.fairness_test")
    leaf(analysis, "legitimate_winner", "analysis.legitimate_winner")
    for attr in ("derive_stream", "make_certificate", "min_certificate",
                 "certificate_flaw", "record_commitment"):
        leaf(engine, attr, f"protocol.{attr}")
    leaf(engine, "verify_certificate", "protocol.verify_certificate",
         hit=lambda res: res.accepted)
    leaf(engine, "certificate_bits", "engine.certificate_bits")

    hooks = tuple(name for name, value in
                  vars(fg.adversary.DeviationStrategy).items()
                  if callable(value) and not name.startswith("_"))
    make_strategy = engine.make_strategy
    patches.set(engine, "make_strategy", tracer.wrap_leaf(
        "adversary.make_strategy",
        lambda name, ctx: StrategyProxy(
            make_strategy(name, ctx), hooks,
            lambda fn: tracer.wrap_leaf("adversary.hook", fn))))

    return SimpleNamespace(
        adversary=fg.adversary, analysis=analysis, cli=cli, engine=engine,
        main=tracer.wrap_span("cli.main", fg.main),
        run_equilibrium_experiment=tracer.wrap_span(
            "analysis.run_equilibrium_experiment",
            fg.run_equilibrium_experiment))


def layer_metrics(tracer: Tracer, results: list[OpResult], block: int,
                  ) -> dict[str, Optional[float]]:
    """Per-layer numbers of the traced phase. None marks a metric whose
    layer is idle on this workload."""
    t = Totals(tracer)
    trials = len(results) * block
    traces = [s.attrs for s in tracer.spans if s.name == "engine.run_trial"]

    def called(name: str) -> bool:
        return t.calls[name] > 0

    def per_trial(name: str) -> Optional[float]:
        return t.calls[name] / trials if called(name) else None

    def ms(name: str, table: dict) -> Optional[float]:
        return table[name] * 1e3 / trials if called(name) else None

    def per_trace(key: str) -> Optional[float]:
        return sum(a[key] for a in traces) / len(traces) if traces else None

    def stat(key: str) -> Optional[float]:
        if not called("engine.trace_log_records"):
            return None
        return sum(r.stats[key] for r in results) / trials

    verify = "protocol.verify_certificate"
    baselines = sum(a["baseline"] for a in traces)
    equilibrium = called("analysis.run_equilibrium_experiment")
    layer_self = t.layer_self
    return {
        "protocol.derive_stream.calls_per_trial":
            per_trial("protocol.derive_stream"),
        "protocol.derive_stream.ms_per_trial":
            ms("protocol.derive_stream", t.seconds),
        "protocol.make_certificate.ms_per_trial":
            ms("protocol.make_certificate", t.seconds),
        "protocol.min_certificate.calls_per_trial":
            per_trial("protocol.min_certificate"),
        "protocol.verify_certificate.ms_per_trial": ms(verify, t.seconds),
        "protocol.verify_certificate.accept_ratio":
            t.hits[verify] / t.calls[verify] if called(verify) else None,
        "protocol.certificate_flaw.calls_per_trial":
            per_trial("protocol.certificate_flaw"),
        "protocol.certificate_flaw.ms_per_trial":
            ms("protocol.certificate_flaw", t.seconds),
        "protocol.record_commitment.calls_per_trial":
            per_trial("protocol.record_commitment"),
        "engine.run_trial.ms_per_trial": ms("engine.run_trial", t.seconds),
        "engine.run_trial.self_ms_per_trial":
            ms("engine.run_trial", t.self_seconds),
        "engine.certificate_bits.calls_per_trial":
            per_trial("engine.certificate_bits"),
        "engine.certificate_bits.ms_per_trial":
            ms("engine.certificate_bits", t.seconds),
        "engine.trace_log_records.ms_per_trial":
            ms("engine.trace_log_records", t.seconds),
        "engine.records_per_trial": stat("records"),
        "engine.rounds_observed_per_trial": stat("rounds_observed"),
        "engine.rounds_reported": stat("rounds_reported"),
        "engine.messages_per_trial": per_trace("messages"),
        "engine.bits_per_trial": per_trace("bits"),
        "engine.decided_ratio": per_trace("decided"),
        "adversary.hook_calls_per_trial": per_trial("adversary.hook"),
        "adversary.hook_ms_per_trial": ms("adversary.hook", t.seconds),
        "analysis.self_ms_per_trial":
            layer_self["analysis"] * 1e3 / trials
            if layer_self["analysis"] else None,
        "analysis.legitimate_winner.ms_per_trial":
            ms("analysis.legitimate_winner", t.seconds),
        "analysis.baseline_reuse_ratio":
            1 - baselines / (len(STRATEGIES) * trials)
            if equilibrium else None,
        "config.parse_config.ms_per_op":
            t.seconds["config.parse_config"] * 1e3 / len(results)
            if called("config.parse_config") else None,
        "cli.self_ms_per_trial": ms("cli.main", t.self_seconds),
        "cli.out_bytes_per_trial":
            sum(r.out_bytes for r in results) / trials
            if called("cli.main") else None,
    }


def dump_spans(tracer: Tracer, path: Path) -> None:
    doc = {"spans": [[s.sid, s.name, s.parent, s.op, s.start, s.end, s.attrs]
                     for s in tracer.spans],
           "leaves": [[parent, name, *rec]
                      for (parent, name), rec in tracer.leaves.items()]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def traced_phase(workload: Workload, fg, base: int, out: Path,
                 untraced: list[OpResult]) -> dict:
    tracer = Tracer()
    with Patches() as patches:
        traced_fg = install(tracer, patches, fg)
        traced = [run_op(workload, traced_fg, r.k, base, out, tracer)
                  for r in untraced]
    mismatched = sum(a.sha256 != b.sha256 for a, b in zip(untraced, traced))
    dump_spans(tracer, OUT_DIR / f"spans-{workload.name}.json")
    return {"traced": phase_summary(workload, traced),
            "digest_mismatches": mismatched,
            "wrappers_restored": patches.all_restored(),
            "layers": layer_metrics(tracer, traced, workload.block)}


# --- entry point ------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True,
                        help="directory for op outputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    fg = load_package()
    workload = WORKLOADS[args.workload]
    base = base_seed(workload.name, args.seed)
    out = args.tmp / "op.out"
    warmup = run_op(workload, fg, 0, base, out)
    print("READY", flush=True)
    host_cal = statistics.median(calibrate() for _ in range(5))
    print(f"CAL {host_cal!r}", flush=True)
    if args.setup_only:                  # the measured run counts failures
        return 0

    budget = args.seconds / 3 if args.trace else args.seconds
    untraced, calibration = run_for(workload, fg, base, out, budget)
    doc: dict = {"block": workload.block, "base_seed": base,
                 "warmup_failed": warmup.error is not None,
                 "untraced": phase_summary(workload, untraced,
                                           calibration)}
    if args.trace:
        doc.update(traced_phase(workload, fg, base, out, untraced))
    doc["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
