"""Paired parent/change runs of the benchmark, written as one JSON file.

    python3 tools/bench_pairs.py --parent HEAD --workdir /tmp/pairs \\
        --seed fairness-n64=3001 --seed attack-n64=3041 \\
        --seed trace-n256=3021 --claim fairness-n64:ref_trials_per_s \\
        --digest fairness-n64=300 --kernel --tier1 \\
        --out BENCH.json

Copies two trees into --workdir: the parent revision, exported with
``git archive``, and the working tree of this repository (tracked and
untracked files that git does not ignore). Pair p (0 to PAIRS - 1) of a
workload runs ``perfbench/run.py --workload W --seed S+p --seconds T
--trace 0`` once in each tree, T being BENCHMARK.json's ``run_seconds``,
the parent first on even pairs, and the workloads take turns within a
pair. For each end-to-end metric this reports the median and
quartiles per side, the pairs the change won, and how far the change's
median is from the parent's in the metric's worse direction against the
bound in BENCHMARK.json, and the median of the per-pair change/parent
ratios with a sign-test interval around it. The claim holds when the
change wins at least nine tenths of the pairs, its median beats the
parent's by more than the parent's interquartile range, that interval
lies wholly on the better side of 1, and no more of its ops fail.

The output also holds each tree's line counts of src/fairgossip/*.py,
per file and in total.

Optional sections, each also run in both trees:
  --digest W=N     the output sha256 of ops 1..N of workload W at seed
                   S-1, one per op, through perfbench/worker.py's run_op,
                   the count of ops whose sha256 is equal in both trees
                   and the 1-based numbers of those that differ, the
                   median and mean minor page faults per op, the median
                   cyclic GC passes per op of each generation, counted
                   through gc.callbacks, and the median Python and C
                   function calls per op, counted by sys.setprofile in a
                   second pass over the same ops (it takes about three
                   times as long as the first);
  --kernel         40 alternating rounds of in-process timings of
                   protocol.draw_batch, engine.run_honest_trials,
                   analysis.iter_trials under each attack-n64 strategy,
                   without a coalition and with eight faulty agents, a
                   recorded engine.run_trial at n=256 and trace-n256's op,
                   cli.main's `run --n 256` with its JSONL export;
  --tier1          the tier-1 tests, in the order change, parent, parent,
                   change.
Nothing under perfbench/ is changed; its files are only run or imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=4"]


def export_trees(parent: str, workdir: Path) -> dict[str, Path]:
    trees = {side: workdir / side for side in SIDES}
    for tree in trees.values():
        if tree.exists():
            shutil.rmtree(tree)
        tree.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", parent],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive,
                   check=True)
    listed = subprocess.run(
        ["git", "-C", str(REPO), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, capture_output=True).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        src = REPO / name
        if src.is_file():
            dst = trees["change"] / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return trees


def order(p: int) -> tuple[str, str]:
    return SIDES if p % 2 == 0 else SIDES[::-1]


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed in {tree}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(failed=result["failed"], attempted=result["attempted"],
               correct=result["correct"])
    return row


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def ratio_interval(ratios: list[float]) -> tuple[list[float], float] | None:
    """Sign-test interval for the median of per-pair change/parent ratios,
    and its coverage: [r(k), r(P+1-k)] of the P sorted ratios, k the
    largest with 2 P(Bin(P, 1/2) <= k-1) <= 0.05 (for 10 pairs,
    [r(2), r(9)] at 97.9%). None below 6 pairs, where no k qualifies."""
    pairs = len(ratios)
    k = 0
    while 2 * sum(math.comb(pairs, i) for i in range(k + 1)) \
            <= 0.05 * 2 ** pairs:
        k += 1
    if k == 0:
        return None
    r = sorted(ratios)
    tail = sum(math.comb(pairs, i) for i in range(k)) / 2 ** pairs
    return [r[k - 1], r[pairs - k]], 1 - 2 * tail


def summarize(workload: str, pairs: list[dict], metrics: list[dict]) -> dict:
    summary: dict = {"workload": workload, "pairs": len(pairs), "metrics": {}}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        side = {s: [p[s][name] for p in pairs] for s in SIDES}
        med = {s: statistics.median(side[s]) for s in SIDES}
        ahead = sum((c > p) if higher else (c < p)
                    for p, c in zip(side["parent"], side["change"]))
        worse_by = (med["parent"] - med["change"] if higher
                    else med["change"] - med["parent"]) / med["parent"]
        ratios = [c / p for p, c in zip(side["parent"], side["change"])]
        interval, coverage = ratio_interval(ratios) or (None, None)
        summary["metrics"][name] = {
            "parent_median": med["parent"], "change_median": med["change"],
            "parent_iqr": quartiles(side["parent"]),
            "change_iqr": quartiles(side["change"]),
            "change_ahead_pairs": ahead, "change_worse_by": worse_by,
            "ratio_median": statistics.median(ratios),
            "ratio_interval": interval, "ratio_interval_coverage": coverage,
            "bound": metric["bound"],
            "within_bound": worse_by <= metric["bound"]}
    for key in ("failed", "attempted"):
        summary[key] = {s: sum(p[s][key] for p in pairs) for s in SIDES}
    summary["correct"] = all(p[s]["correct"] for p in pairs for s in SIDES)
    return summary


def judge(summary: dict, metric: str, better: str) -> dict:
    m = summary["metrics"][metric]
    pairs = summary["pairs"]
    gap = m["change_median"] - m["parent_median"]
    if better != "higher":
        gap = -gap
    q1, q3 = m["parent_iqr"]
    needed = math.ceil(0.9 * pairs)
    interval = m["ratio_interval"]
    # None below 6 pairs: too few for the sign test to rule out no change
    clear = interval is not None and (interval[0] > 1 if better == "higher"
                                      else interval[1] < 1)
    return {"workload": summary["workload"], "metric": metric,
            "rule": "change ahead in at least nine tenths of the pairs, "
                    "median gap larger than the parent's IQR width, and "
                    "the ratio interval wholly on the better side of 1",
            "wins_needed": needed, "wins": m["change_ahead_pairs"],
            "median_gap": gap, "parent_iqr_width": q3 - q1,
            "ratio_interval": interval, "interval_clear_of_1": clear,
            "met": (m["change_ahead_pairs"] >= needed and gap > q3 - q1
                    and clear and summary["failed"]["change"]
                    <= summary["failed"]["parent"])}


# Runs in a tree's perfbench/ directory: per-op output digests, the minor
# page faults each op took and the GC passes it ran per generation, then
# the same ops again under sys.setprofile for the Python and C function
# calls each op made.
DIGEST_SCRIPT = """
import gc, json, resource, sys, tempfile
from pathlib import Path
import worker
workload, seed, ops = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
fg = worker.load_package()
w = worker.WORKLOADS[workload]
base = worker.base_seed(workload, seed)
results, minflt, gc_passes, calls = [], [], [], []
passes = [0] * 3
def note(phase, info):
    if phase == "start":
        passes[info["generation"]] += 1
def count(frame, event, arg):
    if event in seen:
        seen[event] += 1
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "op.out"
    gc.callbacks.append(note)
    for k in range(1, ops + 1):
        before, passed = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt,
                          list(passes))
        results.append(worker.run_op(w, fg, k, base, out))
        minflt.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
        gc_passes.append([a - b for a, b in zip(passes, passed)])
    gc.callbacks.remove(note)
    for k in range(1, ops + 1):
        seen = {"call": 0, "c_call": 0}
        sys.setprofile(count)
        worker.run_op(w, fg, k, base, out)
        sys.setprofile(None)
        calls.append([seen["call"], seen["c_call"]])
print(json.dumps({"ops": [r.sha256 for r in results], "minflt": minflt,
                  "gc_passes": gc_passes, "calls": calls,
                  "failed": sum(r.error is not None for r in results),
                  "digest": worker.digest(results)}))
"""

# Runs with a tree's src/ on sys.path: median milliseconds per call of each
# case over KERNEL_CALLS calls on fresh seeds, after one warm-up call. The
# trees take turns, KERNEL_ROUNDS times.
KERNEL_CALLS = 30
KERNEL_ROUNDS = 40
KERNEL_SCRIPT = """
import json, os, sys, tempfile, time
from dataclasses import replace
from fairgossip.analysis import iter_trials
from fairgossip.cli import main
from fairgossip.engine import (CoalitionConfig, SimConfig, run_honest_trials,
                               run_trial)
from fairgossip.protocol import derive_params, draw_agents, draw_batch
base, calls = int(sys.argv[1]), int(sys.argv[2])
p64, p256 = derive_params(64, 4.0), derive_params(256, 4.0)
cfg = SimConfig(n=64, gamma=4.0, colors=(1,) * 32 + (2,) * 32)
# trace-n256's config: n=256, gamma 4, alternating colours
cfg256 = SimConfig(n=256, gamma=4.0, colors=(1, 2) * 128)
cases = {
    "draw_batch_16_n64": lambda s: draw_batch(range(s, s + 16), p64),
    "draw_agents_n64": lambda s: draw_agents(s, p64),
    "draw_agents_n256": lambda s: draw_agents(s, p256),
    "run_honest_trials_16_n64":
        lambda s: list(run_honest_trials(cfg, range(s, s + 16))),
}
# attack-n64's coalition under each of its strategies
for strategy in ("k_underbid", "commitment_mismatch", "fake_faulty",
                 "coherence_silence"):
    attack = replace(cfg, coalition=CoalitionConfig(
        members=(1, 2, 33, 34), strategy=strategy))
    cases[f"iter_trials_{strategy}_4_n64"] = (
        lambda s, attack=attack: list(iter_trials(attack, range(s, s + 4))))
# the attack baseline arm's path: no coalition
cases["iter_trials_honest_4_n64"] = (
    lambda s: list(iter_trials(cfg, range(s, s + 4))))
# pulls of faulty agents, which every puller files as a mark
faulty = replace(cfg, faulty=frozenset(range(5, 65, 8)),
                 coalition=CoalitionConfig(members=(1, 2, 33, 34),
                                           strategy="k_underbid"))
cases["iter_trials_k_underbid_faulty_4_n64"] = (
    lambda s: list(iter_trials(faulty, range(s, s + 4))))
cases["run_trial_recorded_n256"] = (
    lambda s: run_trial(replace(cfg256, master_seed=s)))
tmp = tempfile.TemporaryDirectory()
# trace-n256's op: the recorded trial and its JSONL export
def run_jsonl(s):
    if main(["run", "--n", "256", "--seed", str(s),
             "--out", os.path.join(tmp.name, "run.jsonl")]):
        raise SystemExit(f"run --n 256 --seed {s} failed")
cases["run_jsonl_n256"] = run_jsonl
out = {}
with tmp:
    for name, case in cases.items():
        case(base)
        times = []
        for k in range(calls):
            t0 = time.perf_counter()
            case(base + 16 * k)
            times.append(time.perf_counter() - t0)
        out[name] = sorted(times)[len(times) // 2] * 1e3
print(json.dumps(out))
"""


def source_lines(tree: Path) -> dict:
    """Line counts of the tree's src/fairgossip/*.py, per file and in
    total."""
    files = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted((tree / "src" / "fairgossip").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def run_json(cmd: list[str], cwd: Path, env: dict | None = None) -> dict:
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def digests(trees: dict[str, Path], workload: str, seed: int,
            ops: int) -> dict:
    doc: dict = {"workload": workload, "seed": seed, "ops": ops}
    shas = {}
    for side in SIDES:
        got = run_json([sys.executable, "-c", DIGEST_SCRIPT, workload,
                        str(seed), str(ops)], trees[side] / "perfbench")
        doc[side] = {"failed": got["failed"], "digest": got["digest"],
                     "minflt_per_op": {
                         "median": statistics.median(got["minflt"]),
                         "mean": statistics.fmean(got["minflt"])},
                     "gc_passes_per_op": {
                         f"gen{g}": statistics.median(
                             p[g] for p in got["gc_passes"])
                         for g in range(3)},
                     "calls_per_op": {
                         kind: statistics.median(c[i] for c in got["calls"])
                         for i, kind in enumerate(("python", "c"))}}
        shas[side] = got["ops"]
    same = [a == b for a, b in zip(shas["parent"], shas["change"])]
    doc["equal_ops"] = sum(same)
    doc["differing_ops"] = [k for k, equal in enumerate(same, 1)
                            if not equal]
    return doc


def kernel_timings(trees: dict[str, Path], base: int) -> dict:
    rounds = []
    for r in range(KERNEL_ROUNDS):
        row = {}
        for side in order(r):
            env = dict(os.environ, PYTHONPATH=str(trees[side] / "src"))
            row[side] = run_json([sys.executable, "-c", KERNEL_SCRIPT,
                                  str(base + 10_000 * r),
                                  str(KERNEL_CALLS)],
                                 trees[side], env)
        rounds.append(row)
    doc: dict = {"rounds": KERNEL_ROUNDS, "calls_per_round": KERNEL_CALLS,
                 "cases": {}}
    for case in rounds[0]["parent"]:
        side = {s: [row[s][case] for row in rounds] for s in SIDES}
        doc["cases"][case] = {
            "parent_ms_median": statistics.median(side["parent"]),
            "change_ms_median": statistics.median(side["change"]),
            "parent_ms_iqr": quartiles(side["parent"]),
            "change_ms_iqr": quartiles(side["change"]),
            "change_faster_rounds": sum(
                c < p for p, c in zip(side["parent"], side["change"]))}
    return doc


def tier1(trees: dict[str, Path]) -> list[dict]:
    runs = []
    for i, side in enumerate(("change", "parent", "parent", "change"), 1):
        env = dict(os.environ, PYTHONPATH=str(trees[side] / "src"))
        t0 = time.perf_counter()
        proc = subprocess.run(TIER1, cwd=trees[side], env=env,
                              capture_output=True, text=True)
        wall = time.perf_counter() - t0
        tail = proc.stdout.strip().splitlines()
        counts = {k: int(v) for v, k in re.findall(
            r"(\d+) (passed|failed|error|skipped)", tail[-1] if tail else "")}
        slowest = [line.strip() for line in tail
                   if re.match(r"\s*\d+\.\d+s (setup|call|teardown)", line)]
        runs.append({"order": i, "side": side, "exit_code": proc.returncode,
                     "wall_s": round(wall, 2), **counts,
                     "summary": tail[-1] if tail else "",
                     "slowest": slowest})
    return runs


def parse_pairs(values: list[str]) -> dict[str, int]:
    """{"W": N} from ["W=N", ...]."""
    out = {}
    for value in values:
        name, _, number = value.partition("=")
        out[name] = int(number)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent side")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seed", action="append", default=[],
                        help="WORKLOAD=FIRST_SEED; pair p uses FIRST_SEED+p")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    parser.add_argument("--digest", action="append", default=[],
                        help="WORKLOAD=OPS")
    parser.add_argument("--kernel", action="store_true")
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--title", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = parse_pairs(args.seed)
    trees = export_trees(args.parent, args.workdir)
    doc: dict = {
        "title": args.title,
        "parent_commit": subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", args.parent], check=True,
            capture_output=True, text=True).stdout.strip(),
        "host": {"python": platform.python_version(),
                 "numpy": numpy.__version__,
                 "cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(), "system": platform.system()},
        "method": (f"perfbench/run.py --workload W --seed S --seconds "
                   f"{seconds:g} --trace 0 in a copy of each tree; "
                   f"{PAIRS} alternating pairs per workload (parent "
                   "first on even pairs), the workloads interleaved within "
                   "each pair; seeds " + ", ".join(
                       f"{w} {s}-{s + PAIRS - 1}"
                       for w, s in seeds.items())
                   + "; medians and quartiles (statistics.quantiles, n=4) "
                   "over the runs of each side; change_worse_by is the "
                   "relative distance of the change's median from the "
                   "parent's in the metric's worse direction"),
    }
    doc["source_lines"] = {side: source_lines(trees[side]) for side in SIDES}
    pairs: dict[str, list[dict]] = {w: [] for w in seeds}
    for p in range(PAIRS):
        for workload, seed in seeds.items():
            row = {"workload": workload, "seed": seed + p,
                   "first": order(p)[0]}
            for side in order(p):
                row[side] = run_bench(trees[side], workload, seed + p,
                                      seconds)
            pairs[workload].append(row)
            print(json.dumps(row), flush=True)
    doc["end_to_end"] = [
        {"workload": w, "pairs": rows,
         "summary": summarize(w, rows, bench["end_to_end"])}
        for w, rows in pairs.items()]
    if args.claim:
        workload, metric = args.claim.split(":")
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        doc["claim"] = judge(
            next(e["summary"] for e in doc["end_to_end"]
                 if e["workload"] == workload), metric, better[metric])
    if args.digest:
        doc["digests"] = [digests(trees, w, seeds.get(w, 1) - 1, ops)
                          for w, ops in parse_pairs(args.digest).items()]
    if args.kernel:
        doc["kernel"] = kernel_timings(trees,
                                       min(seeds.values(), default=1) * 1000)
    if args.tier1:
        doc["tier1"] = {"command": "PYTHONPATH=src python "
                                   + " ".join(TIER1[1:]),
                        "runs": tier1(trees)}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
