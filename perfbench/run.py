"""fairgossip benchmark: one workload per call, one JSON line as the result.

    python3 perfbench/run.py --workload fairness-n64 --seed 1 \
        --seconds 20 --trace 0

Runs from any directory; the package is taken from src/ beside this
directory. Set-up is sampled SETUP_SAMPLES times, each in a fresh
interpreter (start, imports, config resolution, one warm-up op), and the
median is reported. The measured worker then runs the workload's ops for
--seconds of op time. With --trace 0 the result carries the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it carries the per-layer
metrics of a traced re-run of the same ops. The last stdout line is the
result; the lines before it are the same numbers for a reader, plus the
latencies as measured before scaling to the reference host speed. A
fuller record, with provenance and the output digest, is written to
.perfbench-out/. Exit code 0 means a result was printed, whether or not
its checks passed; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

import worker

ROOT = worker.ROOT
OUT_DIR = worker.OUT_DIR
SETUP_SAMPLES = 9
DEADLINE_S = 170                # every worker of one call ends by then


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics, in the
    order BENCHMARK.json lists them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


class WorkerFailed(RuntimeError):
    pass


def start_worker(args: argparse.Namespace, tmp: Path, log: Path,
                 setup_only: bool, deadline: float,
                 ) -> tuple[float, float, Optional[str]]:
    """Run one worker. Return its set-up seconds (start to READY), the
    host calibration it read just after, and, for a measured run, its
    result line."""
    cmd = [sys.executable, worker.__file__, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    with open(log, "a", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            cal = proc.stdout.readline()
            rest = proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
            timer.cancel()
    if (ready.strip() != "READY" or not cal.startswith("CAL ")
            or proc.returncode != 0):
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = rest.splitlines()
    return setup, float(cal.split()[1]), (lines[-1] if lines else None)


def provenance(args: argparse.Namespace) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
            capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def measure(args: argparse.Namespace) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tmp = Path(tmp)
        log = tmp / "worker.log"
        try:
            # set-up samples before and after the measured worker, so
            # their median spans the same stretch of machine load
            extra = 0 if args.trace else SETUP_SAMPLES - 1
            samples = [start_worker(args, tmp, log, True, deadline)
                       for _ in range(extra // 2)]
            samples.append(start_worker(args, tmp, log, False, deadline))
            line = samples[-1][2]
            samples += [start_worker(args, tmp, log, True, deadline)
                        for _ in range(extra - extra // 2)]
            if line is None:
                raise WorkerFailed("worker printed no result")
        except WorkerFailed:
            sys.stderr.write(log.read_text(encoding="utf-8")[-4000:])
            raise
    doc = json.loads(line)
    doc["setup_samples_s"] = [setup for setup, _, _ in samples]
    doc["setup_cal_ms"] = [cal * 1e3 for _, cal, _ in samples]
    doc["measured_setup_s"] = statistics.median(doc["setup_samples_s"])
    doc["ref_setup_s"] = statistics.median(
        setup * worker.CAL_REF_S / cal for setup, cal, _ in samples)
    return doc


def result_line(args: argparse.Namespace, doc: dict) -> dict:
    untraced = doc["untraced"]
    failed = doc["warmup_failed"] + untraced["failed"]
    attempted = 1 + untraced["ops"]
    if args.trace:
        traced = doc["traced"]
        failed += traced["failed"] + doc["digest_mismatches"]
        attempted += traced["ops"]
        layers = dict(doc["layers"])
        layers["tracing.untraced_trials_per_s"] = untraced["trials_per_s"]
        layers["tracing.traced_trials_per_s"] = traced["trials_per_s"]
        layers["tracing.digest_match"] = float(doc["digest_mismatches"] == 0)
        layers["tracing.wrappers_restored"] = float(doc["wrappers_restored"])
        correct = failed == 0 and doc["wrappers_restored"]
        metrics = {name: {"value": 0.0 if layers[name] is None
                          else layers[name], "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    else:
        ref = untraced["ref"]
        values = {"ref_trials_per_s": ref["trials_per_s"],
                  "ref_op_ms_p50": ref["op_ms_p50"],
                  "setup_s": doc["ref_setup_s"],
                  "peak_rss_mb": doc["peak_rss_mb"]}
        correct = failed == 0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report(args: argparse.Namespace, doc: dict, result: dict) -> None:
    untraced = doc["untraced"]
    print(f"workload {args.workload}: seed {args.seed}, "
          f"{doc['block']} trial(s) per op, base trial seed "
          f"{doc['base_seed']}, {untraced['ops']} timed ops, "
          f"{untraced['ops_beyond_p90']} beyond p90")
    absent = set()
    if args.trace:
        absent = {k for k, v in doc["layers"].items() if v is None}
        print(f"traced ops {doc['traced']['ops']}, digest mismatches "
              f"{doc['digest_mismatches']}, wrappers restored "
              f"{doc['wrappers_restored']}")
    for name, metric in result["metrics"].items():
        value = "absent (layer idle)" if name in absent else metric["value"]
        print(f"  {name} = {value} {metric['unit']}")
    if not args.trace:
        print(f"  ref_op_ms_p90 = {untraced['ref']['op_ms_p90']} ms")
        print("  as measured, before scaling to the reference host speed:")
        print(f"  trials_per_s = {untraced['trials_per_s']} 1/s")
        print(f"  op_ms_p50 = {untraced['op_ms_p50']} ms")
        print(f"  op_ms_p90 = {untraced['op_ms_p90']} ms")
        print(f"  setup_s = {doc['measured_setup_s']} s")
        print(f"  host_cal_ms = {statistics.median(untraced['host_cal_ms'])} "
              f"ms (median; {worker.CAL_REF_S * 1e3} ms on the reference host)")
    print(f"  error_rate = {result['failed'] / result['attempted']} "
          f"fraction ({result['failed']} of {result['attempted']} ops)")
    print(f"  output_sha256 = {untraced['output_sha256']}")
    for phase in ("untraced", "traced"):
        for error in doc.get(phase, {}).get("errors", ()):
            print(f"  error: {error.strip().splitlines()[-1]}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=worker.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fairgossip" / "__init__.py").is_file():
        print(f"no fairgossip package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        doc = measure(args)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = result_line(args, doc)
    record = {"provenance": provenance(args), "result": result, **doc}
    name = f"result-{args.workload}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1),
                                encoding="utf-8")
    report(args, doc, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
