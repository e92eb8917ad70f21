"""End-to-end command-line tests: subcommand wiring, exit codes, output
formats, reproducibility, and the parallel merge."""

import contextlib
import copy
import csv
import dataclasses
import datetime
import io
import json
import os
import platform
import re

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairgossip import cli
from fairgossip.adversary import STRATEGIES
from fairgossip.cli import main
from fairgossip.engine import (CoalitionConfig, SimConfig, run_trial,
                               trace_to_dict)

RECORD_FIELDS = {"round", "kind", "sender", "receiver", "payload_bits"}
SUMMARY_FIELDS = {"outcome", "winner", "rounds", "max_message_bits", "flags"}


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_run_exports_trace_log(tmp_path):
    out = tmp_path / "trace.jsonl"
    assert main(["run", "--n", "8", "--gamma", "2", "--seed", "1",
                 "--out", str(out)]) == 0
    lines = read_lines(out)
    summary = lines[-1]
    assert set(summary) == SUMMARY_FIELDS
    assert all(set(rec) == RECORD_FIELDS for rec in lines[:-1])

    trace = run_trial(SimConfig(n=8, gamma=2.0, colors=(1, 2) * 4,
                                master_seed=1))
    assert summary["rounds"] == trace.stats.rounds
    assert summary["winner"] == trace.winner
    assert summary["outcome"] == trace.outcome
    n_messages = sum(1 for r in lines[:-1]
                     if r["kind"] not in ("failed", "accepted", "rejected"))
    assert n_messages == trace.stats.messages
    accepted = [r["sender"] for r in lines[:-1] if r["kind"] == "accepted"]
    assert accepted == [u for u, d in sorted(trace.decisions.items())
                        if d is not None]
    assert summary["max_message_bits"] == max(m[5] for m in trace.messages)


def test_run_reproduces_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["run", "--n", "16", "--gamma", "2", "--seed", "42"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def expected_log(trace):
    """The `run` export rebuilt from the trace itself: message records in
    send order, then failures and decisions by agent id, then the summary."""
    q = trace.params.phase_rounds
    first_round = {"commitment": 0, "voting": q, "find_min": 2 * q,
                   "coherence": 3 * q}
    records = [{"round": first_round[phase] + rnd, "kind": kind,
                "sender": sender, "receiver": receiver, "payload_bits": bits}
               for phase, rnd, sender, receiver, kind, bits
               in trace.messages]
    records += [{"round": 3 * q + rnd, "kind": "failed", "sender": u,
                 "receiver": None, "payload_bits": 0}
                for u, rnd in sorted(trace.failures.items())]
    records += [{"round": 4 * q, "sender": u, "receiver": None,
                 "kind": "rejected" if d is None else "accepted",
                 "payload_bits": 0}
                for u, d in sorted(trace.decisions.items())]
    summary = {"outcome": trace.outcome, "winner": trace.winner,
               "rounds": 4 * q,
               "max_message_bits": max(m[5] for m in trace.messages),
               "flags": dataclasses.asdict(trace.flags)}
    return records, summary


RUN_CASES = {
    "plain": (["--n", "8", "--gamma", "2", "--seed", "1"],
              SimConfig(n=8, gamma=2.0, colors=(1, 2) * 4, master_seed=1)),
    "faulty": (["--n", "16", "--gamma", "2", "--seed", "7",
                "--faulty", "3,7"],
               SimConfig(n=16, gamma=2.0, colors=(1, 2) * 8,
                         faulty=frozenset({3, 7}), master_seed=7)),
    # gamma 1 is too few rounds for find-min: coherence failures follow
    "coalition": (["--n", "16", "--gamma", "1", "--seed", "0",
                   "--coalition", "1,2", "--strategy", "k_underbid"],
                  SimConfig(n=16, gamma=1.0, colors=(1, 2) * 8,
                            coalition=CoalitionConfig(
                                members=(1, 2), strategy="k_underbid"),
                            master_seed=0)),
    # a golden command line: failures, a silencing member, decisions
    "silenced": (["--n", "16", "--gamma", "1.5", "--faulty", "2,5",
                  "--coalition", "3", "--strategy", "coherence_silence",
                  "--seed", "4"],
                 SimConfig(n=16, gamma=1.5, colors=(1, 2) * 8,
                           faulty=frozenset({2, 5}),
                           coalition=CoalitionConfig(
                               members=(3,), strategy="coherence_silence"),
                           master_seed=4)),
}


def run_output(tmp_path, capsys, argv, dest):
    if dest == "stdout":
        assert main(["run", *argv]) == 0
        return capsys.readouterr().out
    out = tmp_path / "run.out"
    assert main(["run", *argv, "--out", str(out)]) == 0
    return out.read_bytes().decode("utf-8")


@pytest.mark.parametrize("dest", ["stdout", "out"])
@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_jsonl_matches_json_dumps(tmp_path, capsys, case, dest):
    argv, config = RUN_CASES[case]
    records, summary = expected_log(run_trial(config))
    expected = "".join(json.dumps(rec, sort_keys=True) + "\n"
                       for rec in records + [summary])
    assert run_output(tmp_path, capsys, argv, dest) == expected


@pytest.mark.parametrize("batch", [1, 2, "rows"])
def test_run_jsonl_is_the_same_at_any_batch_size(tmp_path, capsys,
                                                 monkeypatch, batch):
    argv, config = RUN_CASES["silenced"]
    records, summary = expected_log(run_trial(config))
    expected = "".join(json.dumps(rec, sort_keys=True) + "\n"
                       for rec in records + [summary])
    default = run_output(tmp_path, capsys, argv, "out")
    monkeypatch.setattr(cli, "_RUN_BATCH",
                        len(records) if batch == "rows" else batch)
    assert run_output(tmp_path, capsys, argv, "out") == default == expected


def test_run_coalition_case_has_failure_rows():
    _, config = RUN_CASES["coalition"]
    records, _ = expected_log(run_trial(config))
    assert any(rec["kind"] == "failed" for rec in records)


@pytest.mark.parametrize("dest", ["stdout", "out"])
@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_csv_table(tmp_path, capsys, case, dest):
    argv, config = RUN_CASES[case]
    records, _ = expected_log(run_trial(config))
    text = run_output(tmp_path, capsys, argv + ["--format", "csv"], dest)
    header = "round,kind,sender,receiver,payload_bits"
    assert text.startswith(header + "\r\n")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == header.split(",")
    assert rows[1:] == [["" if rec[f] is None else str(rec[f])
                         for f in rows[0]] for rec in records]


def test_fairness_pass_and_summary(tmp_path):
    out = tmp_path / "fair.jsonl"
    assert main(["fairness", "--n", "8", "--colors", "4x1,4x2",
                 "--trials", "80", "--out", str(out)]) == 0
    rows = read_lines(out)
    assert [r["record"] for r in rows] == ["color", "color", "summary"]
    assert rows[0]["wins"] == 45 and rows[1]["wins"] == 35
    summary = rows[-1]
    assert summary["passed"] is True and summary["fail_count"] == 0
    assert summary["config"]["q"] == 9      # resolved round count echoed


def test_fairness_fail_exit_code(tmp_path):
    # an absurdly tight tolerance forces a verdict failure
    assert main(["fairness", "--n", "8", "--colors", "4x1,4x2",
                 "--trials", "40", "--sigma-mult", "0.0001",
                 "--out", str(tmp_path / "f.jsonl")]) == 1


@pytest.mark.parametrize("coalition", [[], ["--coalition", "1,5"]],
                         ids=["plain", "coalition"])
def test_fairness_ignores_the_calibration(tmp_path, capsys, coalition):
    # fairness counts outcomes and winners and reads no flag, so even a
    # band no tally can reach leaves its bytes as they are
    argv = ["fairness", "--n", "16", "--gamma", "2", "--trials", "40",
            *coalition]
    outputs = []
    for band in ([], ["--beta1", "50", "--beta2", "99"]):
        out = tmp_path / f"f{len(outputs)}.jsonl"
        code = main(argv + band + ["--out", str(out)])
        outputs.append((code, capsys.readouterr(), out.read_bytes()))
    assert outputs[0] == outputs[1]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_indeterminate_verdict_exits_one(tmp_path, capsys):
    # the only trial aborts, so no colour has a win frequency to test:
    # exit code 1 means "did not pass", indeterminate as well as FAIL
    out = tmp_path / "f.jsonl"
    assert main(["fairness", "--n", "3", "--trials", "1", "--gamma", "0.5",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "fairness verdict: indeterminate")
    *colors, _ = [json.loads(line, parse_constant=_no_constant)
                  for line in out.read_text().splitlines()]
    assert [row["z"] for row in colors] == [None, None]


def test_fairness_csv_table(tmp_path):
    out = tmp_path / "fair.csv"
    assert main(["fairness", "--n", "8", "--colors", "4x1,4x2",
                 "--trials", "20", "--format", "csv",
                 "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header.split(",")[:3] == ["record", "color", "active_share"]
    assert len(rows) == 2                   # flat table only, no summary


@pytest.mark.parametrize("argv", [
    ["fairness", "--n", "8", "--colors", "4x1,4x2", "--trials", "30"],
    ["claims", "--n", "16", "--gamma", "2", "--coalition", "1,5",
     "--trials", "30"],
], ids=lambda argv: argv[0])
def test_fairness_parallel_matches_serial(tmp_path, argv):
    serial, par = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
    assert main(argv + ["--out", str(serial)]) == 0
    assert main(argv + ["--parallel", "3", "--out", str(par)]) == 0
    assert serial.read_bytes() == par.read_bytes()


@pytest.mark.parametrize("cpus,pools", [(64, [3]), (2, [2]), (None, [])])
def test_parallel_is_capped_at_trials_and_cpus(tmp_path, monkeypatch,
                                               cpus, pools):
    # the fake pool records its size and runs the chunks in this process
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("fairgossip.cli.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    argv = ["fairness", "--n", "8", "--colors", "4x1,4x2", "--trials", "3"]
    serial, par = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
    assert main(argv + ["--out", str(serial)]) == 0
    assert main(argv + ["--parallel", "64", "--out", str(par)]) == 0
    assert asked == pools
    assert serial.read_bytes() == par.read_bytes()


def test_attack_requires_coalition(tmp_path, capsys):
    assert main(["attack", "--n", "16", "--gamma", "2",
                 "--trials", "5"]) == 2
    assert "coalition" in capsys.readouterr().err


def test_attack_no_gain_verdict(tmp_path):
    out = tmp_path / "attack.jsonl"
    assert main(["attack", "--n", "16", "--colors", "8x1,8x2",
                 "--gamma", "2", "--strategy", "k_underbid",
                 "--coalition", "5", "--trials", "30",
                 "--out", str(out)]) == 0
    member, summary = read_lines(out)
    assert member["member"] == 5 and member["difference"] < 0
    assert summary["verdict_no_gain"] is True
    assert summary["deviation_fail_rate"] == 1.0
    assert summary["config"]["coalition"]["strategy"] == "k_underbid"


def test_attack_strategy_options_flow_through(tmp_path):
    out = tmp_path / "attack.jsonl"
    assert main(["attack", "--n", "16", "--colors", "8x1,8x2",
                 "--gamma", "2", "--strategy", "coherence_silence",
                 "--coalition", "5", "--option", "victims=[1,2]",
                 "--trials", "6", "--out", str(out)]) == 0
    _, summary = read_lines(out)
    assert summary["config"]["coalition"]["options"] == {"victims": [1, 2]}


def test_summary_and_trace_write_one_config_form():
    args = cli.build_parser().parse_args([
        "attack", "--n", "16", "--colors", "8x1,8x2", "--faulty", "2,3",
        "--coalition", "5,9", "--strategy", "coherence_silence",
        "--option", "victims=[1,4]", "--seed", "7"])
    sim, exp = cli._resolve(args)
    echo = cli._config_echo(sim, exp)
    written = trace_to_dict(run_trial(sim))["config"]
    shared = echo.keys() & written.keys()
    assert shared == {"n", "gamma", "chi", "num_colors", "faulty",
                      "coalition"}
    assert {k: echo[k] for k in shared} == {k: written[k] for k in shared}
    assert echo["coalition"]["options"] == {"victims": [1, 4]}
    assert echo["faulty"] == [2, 3]


def test_claims_subcommand(tmp_path):
    out = tmp_path / "claims.jsonl"
    assert main(["claims", "--n", "32", "--colors", "16x1,16x2",
                 "--gamma", "3", "--coalition", "1,17", "--trials", "60",
                 "--out", str(out)]) == 0
    rows = read_lines(out)
    summary = rows[-1]
    assert summary["claim1_violations"] == 0
    assert summary["passed"] is True
    assert {r["color"] for r in rows[:-1]} == {1, 2}


def test_claims_with_no_eligible_trace_is_indeterminate(tmp_path, capsys):
    # at gamma 0.1 no trial classifies good: there is nothing to audit
    out = tmp_path / "claims.jsonl"
    assert main(["claims", "--n", "64", "--gamma", "0.1", "--trials", "20",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "claims verdict: indeterminate")
    summary = read_lines(out)[-1]
    assert (summary["eligible"], summary["passed"]) == (0, None)


def test_scaling_subcommand(tmp_path):
    out = tmp_path / "scaling.jsonl"
    assert main(["scaling", "--sizes", "8,16", "--trials", "2",
                 "--out", str(out)]) == 0
    rows = read_lines(out)
    assert [r["n"] for r in rows[:-1]] == [8, 16]
    assert all(r["rounds"] == 4 * r["q"] for r in rows[:-1])
    assert rows[-1]["passed"] is True


def test_scaling_reads_a_piped_config(tmp_path):
    # a pipe can be read only once, so a second read would replace the
    # file's values with the defaults (gamma 4, sizes 16,64,256)
    read_end, write_end = os.pipe()
    os.write(write_end, b"gamma: 3\nsizes: [8, 16]\ntrials: 2\n")
    os.close(write_end)
    out = tmp_path / "scaling.jsonl"
    try:
        assert main(["scaling", "--config", f"/dev/fd/{read_end}",
                     "--out", str(out)]) == 0
    finally:
        os.close(read_end)
    rows = read_lines(out)
    assert [r["n"] for r in rows[:-1]] == [8, 16]
    assert (rows[-1]["gamma"], rows[-1]["trials"]) == (3.0, 2)


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("n: 8\ncolors: 4x1,4x2\ngamma: 2.0\ntrials: 10\n"
                   "coalition:\n  members: [3]\n  strategy: fake_faulty\n")
    out = tmp_path / "attack.jsonl"
    assert main(["attack", "--config", str(cfg), "--gamma", "4",
                 "--out", str(out)]) == 0
    _, summary = read_lines(out)
    assert summary["config"]["gamma"] == 4.0          # flag wins
    assert summary["config"]["q"] == 9
    assert summary["config"]["coalition"]["strategy"] == "fake_faulty"
    assert summary["trials"] == 10                    # file value kept


def test_unknown_strategy_is_config_error(capsys):
    assert main(["attack", "--n", "8", "--coalition", "1",
                 "--strategy", "mystery", "--trials", "2"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FAIRGOSSIP_OUT", str(tmp_path))
    assert main(["run", "--n", "4", "--gamma", "1", "--out",
                 "rel.jsonl"]) == 0
    assert (tmp_path / "rel.jsonl").exists()


def test_write_failure_reports_path(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.jsonl"
    assert main(["run", "--n", "4", "--gamma", "1",
                 "--out", str(missing)]) == 2
    assert "no-such-dir" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scaling", "--sizes", "8,x"],
    ["run", "--n", "8", "--faulty", "random:abc"],
    ["run", "--n", "8", "--faulty", "color:a:1"],
    ["run", "--n", "8", "--seed", "-1"],
    ["run", "--n", "8", "--gamma", "inf"],
    ["run", "--n", "8", "--chi", "nan"],
    ["run", "--n", "8", "--faulty", "random", "--alpha", "nan"],
    ["run", "--n", "8", "--coalition", "1,x"],
    ["run", "--n", "8", "--coalition", "1", "--option", "a=["],
    ["fairness", "--n", "8", "--trials", "4", "--parallel", "0"],
    ["fairness", "--n", "8", "--trials", "4", "--max-fail-rate", "-1"],
    ["attack", "--n", "8", "--trials", "2", "--coalition", "1",
     "--parallel", "2"],
    ["scaling", "--sizes", "8", "--trials", "1", "--parallel", "2"],
    ["run", "--n", "8", "--parallel", "2"],
    ["run", "--n", "2097152", "--gamma", "0.1"],
    *(["attack", "--n", "8", "--trials", "2", "--coalition", "1",
       "--strategy", "coherence_silence", "--option", f"victims={victims}"]
      for victims in ("abc", "5", "[1.5]")),
    *(["attack", "--n", "8", "--trials", "2", "--coalition", "1",
       "--strategy", strategy, "--option", option]
      for strategy, option in [
          ("commitment_mismatch", "equivocate=abc"),
          ("commitment_mismatch", "retarget=1"),
          ("fake_faulty", "silent_voting=[1]"),
          ("fake_faulty", "silent_voting=null"),
      ]),
    ["scaling", "--sizes", "8", "--trials", "1", "--coalition", "1",
     "--strategy", "k_underbid"],
    ["scaling", "--sizes", "8", "--trials", "1", "--faulty", "2,3"],
    ["run", "--n", "8", "--coalition", "1", "--option", "foo"],
    ["scaling", "--sizes", ""],     # no sizes, not the default ones
    ["fairness", "--n", "8", "--trials", "4", "--beta2", "-1"],
    ["run", "--n", "8", "--faulty", "color:1:-1"],
    ["run", "--n", "8", "--gamma", "1e308"],
    ["run", "--n", "4", "--gamma", "1e20"],
    ["run", "--n", "64", "--gamma", "1e17"],
    ["attack", "--n", "8", "--gamma", "1e308", "--trials", "2",
     "--coalition", "1"],
    ["scaling", "--sizes", "8", "--gamma", "1e308", "--trials", "1"],
    ["fairness", "--n", "4", "--gamma", "1e308", "--trials", "2"],
], ids=" ".join)
def test_bad_input_exits_two_with_one_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1


def test_bad_config_file_exits_two_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("n: 8\ngamma: [\n")
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("doc, flags", [
    (b"\xff\xfe n: 3\n", []),        # a UTF-16 mark, then no UTF-16
    (b"n: 8\ngamma: \xff\n", []),                  # not UTF-8
    # YAML reads `1:` as an int key, which no str key sorts against
    (b"n: 8\n1: 2\nzz: 3\n", []),
    (b"n: 8\ncoalition: {members: [1], 1: a, b: c}\n", []),
    (b"n: 8\ncoalition: {members: [1], strategy: coherence_silence, "
     b"options: {3: 4, zz: 1}}\n", []),
    # a flag that updates a map the file gives as something else
    (b"n: 8\ncoalition: 5\n", ["--coalition", "1"]),
    (b"n: 8\ncoalition: []\n", ["--coalition", "1"]),
    (b"n: 8\ncalibration: [1]\n", ["--beta1", "0.1"]),
    (b"n: 8\ncoalition: {members: [1], options: [1]}\n",
     ["--option", "victims=[2]"]),
], ids=["utf16", "utf8", "keys", "coalition-keys", "option-keys",
        "coalition-map", "coalition-list", "calibration-map", "options-map"])
def test_odd_config_file_exits_two_with_one_line(doc, flags, tmp_path,
                                                 capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(doc)
    assert main(["run", "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--faulty", "20"], ["--coalition", "20"], ["--strategy", "k_underbid"]])
def test_scaling_rejects_faults_and_coalitions_at_any_size(flags, capsys):
    assert main(["scaling", "--sizes", "8", "--trials", "1", *flags]) == 2
    assert capsys.readouterr().err == (
        "configuration error: scaling runs fault-free, coalition-free "
        "configs; got a coalition or faulty agents\n")


def test_scaling_names_a_listed_size_when_gamma_is_too_large(tmp_path,
                                                             capsys):
    # scaling runs only the listed sizes, so an error names one of them
    cfg = tmp_path / "scaling.yaml"
    cfg.write_text("gamma: 1.0e+308\nsizes: [8, 12]\n")
    for argv in (["--sizes", "8", "--gamma", "1e308"],
                 ["--config", str(cfg)]):
        assert main(["scaling", "--trials", "1", *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.search(r"at n=(8|12)$", err.rstrip()), err


@pytest.mark.parametrize("doc", [
    "n: true\n",
    "n: 4\ncolors: [true, true, 2, 2]\n",
    "n: 4\nfaulty: [true]\n",
], ids=["n", "colors", "faulty"])
def test_config_file_booleans_exit_two_with_one_line(doc, tmp_path, capsys):
    # YAML reads `true` as a bool, which is no agent id, colour or count
    cfg = tmp_path / "bools.yaml"
    cfg.write_text(doc)
    assert main(["run", "--config", str(cfg), "--seed", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


def test_config_file_with_no_sizes_exits_two_with_one_line(tmp_path,
                                                          capsys):
    # a scaling run over no sizes would pass with nothing measured
    cfg = tmp_path / "no-sizes.yaml"
    cfg.write_text("sizes: []\n")
    assert main(["scaling", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: sizes: need positive agent counts, got []\n")


def test_scaling_checks_every_size_before_any_trial(monkeypatch, capsys):
    # gamma 1e10 passes at n=8 but gives too many rounds at n=2097151
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before every size was checked")

    monkeypatch.setattr("fairgossip.analysis.iter_trials", no_trials)
    assert main(["scaling", "--sizes", "8,2097151", "--gamma", "1e10",
                 "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "n=2097151" in err


def test_empty_config_file_reads_as_no_keys(tmp_path):
    cfg = tmp_path / "empty.yaml"
    cfg.write_text("")
    flags = ["--n", "4", "--gamma", "1", "--seed", "3"]
    assert main(["run", *flags, "--out", str(tmp_path / "a.jsonl")]) == 0
    assert main(["run", "--config", str(cfg), *flags,
                 "--out", str(tmp_path / "b.jsonl")]) == 0
    assert (tmp_path / "a.jsonl").read_bytes() \
        == (tmp_path / "b.jsonl").read_bytes()


def test_config_file_that_is_a_list_exits_two(tmp_path, capsys):
    cfg = tmp_path / "list.yaml"
    cfg.write_text("- n: 8\n- gamma: 2\n")
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: config file {cfg}: expected a " \
                  "key-value map\n"


def test_impossible_allocation_exits_two_with_one_line(tmp_path, capsys):
    # numpy refuses the 1.92 PiB draw at once: nothing is allocated
    assert main(["run", "--n", "64", "--gamma", "1e12",
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("out of memory:") and err.count("\n") == 1


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="mallopt is glibc's")
def test_repeated_runs_fault_no_freed_memory_back_in(tmp_path):
    # importing fairgossip fixes glibc's thresholds, so one run's freed
    # numpy temporaries serve the next run instead of going back to the
    # system
    import resource
    argv = ["fairness", "--n", "64", "--gamma", "4", "--trials", "16",
            "--out", str(tmp_path / "f.jsonl")]
    main(argv)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        main(argv)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 300


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["fairness", "--frobnicate"])
    assert exc.value.code == 2


def test_parser_is_shared_across_calls(tmp_path, monkeypatch):
    # main() reuses one parser per process; a flag given to one call must
    # not leak into the next, and each subcommand keeps its own handler
    import fairgossip.cli as cli

    seen = []
    resolve = cli._resolve

    def spy(args):
        seen.append((args.subcommand, args.func.__name__, args.option))
        return resolve(args)

    monkeypatch.setattr(cli, "_resolve", spy)
    attack = ["attack", "--n", "8", "--trials", "2", "--coalition", "1",
              "--strategy", "commitment_mismatch",
              "--out", str(tmp_path / "a.jsonl")]
    assert main(attack + ["--option", "retarget=true"]) in (0, 1)
    assert main(attack) in (0, 1)
    assert main(["fairness", "--n", "8", "--trials", "4",
                 "--out", str(tmp_path / "f.jsonl")]) in (0, 1)
    assert seen == [("attack", "_cmd_attack", ["retarget=true"]),
                    ("attack", "_cmd_attack", None),
                    ("fairness", "_cmd_fairness", None)]
    assert cli.build_parser() is cli.build_parser()


# Values each flag may take when the rest of the command line is valid,
# and junk or edge values for it.
VALID = {
    "--gamma": ["0.5", "1", "2", "1e-9"],
    "--chi": ["0", "1", "2.5"],
    "--num-colors": ["3"],
    "--seed": ["0", "1", "18446744073709551621"],
    "--sigma-mult": ["4", "0.5"],
    "--max-fail-rate": ["0.01", "1", "0"],
    "--alpha": ["0.25", "0", "1"],
    "--beta1": ["0.2", "0"],
    "--beta2": ["8", "0.2"],
    "--format": ["jsonl", "csv"],
    "--parallel": ["1", "2"],
}
JUNK = {
    "--n": ["0", "-3", "x", "2.5", ""],
    "--trials": ["0", "-1", "x", "2.5"],
    "--sizes": ["0", "8,x", "", "-1"],
    "--gamma": ["0", "-1", "inf", "nan", "x", "1e308"],
    "--chi": ["-1", "nan", "x"],
    "--num-colors": ["0", "1", "x"],
    "--colors": ["3x3", "x", "", "0", "1,2"],
    "--faulty": ["random:abc", "99", "0", "", "color:9:1", "random:99"],
    "--coalition": ["0", "13", "1,1", "x", ""],
    "--strategy": ["mystery", ""],
    "--option": ["junk=1", "a=[", "=3", "noeq"],
    "--seed": ["-1", "x"],
    "--sigma-mult": ["0", "-1", "inf", "x"],
    "--max-fail-rate": ["-1", "2", "x"],
    "--alpha": ["2", "nan", "x"],
    "--beta1": ["-1", "x"],
    "--beta2": ["x", "0", "-1"],
    "--format": ["xml"],
    "--parallel": ["0", "-1", "x"],
}
BUILT_IN_STRATEGIES = ["honest", "k_underbid", "commitment_mismatch",
                       "fake_faulty", "coherence_silence"]
OPTION_VALUES = {
    "victims": ["[1]", "[1,2]", "[]", "[99]", "abc", "5", "[1.5]",
                "[true]"],
    "retarget": ["true", "1", "x"],
    "equivocate": ["true", "0"],
    "silent_voting": ["true", "[1]"],
    "junk": ["1"],
}


def _ids(ids):
    return ",".join(map(str, ids))


@st.composite
def cli_argv(draw):
    """A command line with n <= 12, trials <= 3 and sizes <= 16 that is
    valid apart from clashes between flags and up to two junk flags."""
    sub = draw(st.sampled_from(["run", "fairness", "attack", "claims",
                                "scaling"]))
    n = draw(st.integers(1, 12))
    flags = {"--n": str(n), "--trials": str(draw(st.integers(1, 3)))}
    if sub == "scaling":         # sizes default to 16,64,256: too slow
        flags["--sizes"] = _ids(draw(st.lists(st.integers(1, 16),
                                              min_size=1, max_size=3)))
    elif draw(st.booleans()):
        flags["--coalition"] = _ids(draw(st.lists(
            st.integers(1, n), min_size=1, max_size=2, unique=True)))
        strategy = draw(st.sampled_from(BUILT_IN_STRATEGIES))
        flags["--strategy"] = strategy
        if draw(st.booleans()):
            key = draw(st.sampled_from(
                sorted(STRATEGIES[strategy].option_keys) + ["junk"]))
            value = draw(st.sampled_from(OPTION_VALUES[key]))
            flags["--option"] = f"{key}={value}"
    if draw(st.booleans()):
        flags["--colors"] = draw(st.sampled_from([
            f"{n}x1", f"{n // 2}x1,{n - n // 2}x2",
            _ids(u % 3 + 1 for u in range(n))]))
    if draw(st.booleans()):
        flags["--faulty"] = draw(st.sampled_from(
            [str(n), "random", "random:1", "color:1:1"]))
    for flag, values in VALID.items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            flags[flag] = value
    for flag in draw(st.lists(st.sampled_from(sorted(JUNK)), max_size=2)):
        flags[flag] = draw(st.sampled_from(JUNK[flag]))
    return [sub, *(part for item in flags.items() for part in item)]


@given(cli_argv())
@example(["attack", "--n", "8", "--trials", "2", "--coalition", "1",
          "--strategy", "coherence_silence", "--option", "victims=abc"])
@example(["claims", "--n", "8", "--trials", "2", "--coalition", "1",
          "--strategy", "coherence_silence", "--option", "victims=5"])
@settings(max_examples=300, deadline=None)
def test_main_survives_any_argv(argv):
    _assert_survives(argv)


def _assert_survives(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:         # argparse's usage error
            assert exc.code == 2
            return
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:           # a verdict that did not pass, never a crash
        assert re.search(r"verdict: (FAIL|indeterminate)\n$", err.getvalue())


# Values a config document may hold where the code expects another type.
ODD = st.sampled_from([
    None, True, "", "x", "random", "random:1", "color:1:1", "4x1,4x2",
    "20000000x1", "1,2", -1, 0, 2.5, float("nan"), 1e308, [], {}, [1, "x"],
    datetime.date(2001, 12, 14), b"\x00\xff"])
OPTION_DOC_VALUES = [yaml.safe_load(v) for vs in OPTION_VALUES.values()
                     for v in vs]


@st.composite
def config_file_argv(draw):
    """A subcommand and a config document with n <= 12, trials <= 3 and
    sizes <= 16: valid apart from up to two odd values, which may sit at
    any key (int keys too) of the document or of one of its maps, and
    apart from stray bytes that are not UTF-8. A few flags update the
    document's maps."""
    n = draw(st.integers(1, 12))
    members = st.lists(st.integers(1, n), min_size=1, max_size=2,
                       unique=True)
    drawn = draw(st.fixed_dictionaries({"n": st.just(n)}, optional={
        "gamma": st.floats(1, 6),
        "chi": st.floats(0, 3),
        "colors": st.sampled_from([f"{n}x1", f"{n // 2}x1,{n - n // 2}x2",
                                   [u % 3 + 1 for u in range(n)]]),
        "faulty": st.sampled_from([[n], "random", "random:1", "color:1:1",
                                   {"random": 1}, {"color": 1, "count": 1}]),
        "coalition": st.fixed_dictionaries(
            {"members": members},
            optional={"strategy": st.sampled_from(BUILT_IN_STRATEGIES),
                      "options": st.dictionaries(
                          st.sampled_from(sorted(OPTION_VALUES)),
                          st.sampled_from(OPTION_DOC_VALUES), max_size=1)}),
        "calibration": st.fixed_dictionaries({}, optional={
            "beta1": st.floats(0, 0.5), "beta2": st.floats(4, 10)}),
        "seed": st.integers(0, 2**70),
        "trials": st.integers(1, 3),
        "sigma_mult": st.floats(0.5, 8),
        "max_fail_rate": st.floats(0, 1),
        "alpha": st.floats(0, 1),
        "sizes": st.lists(st.integers(1, 16), min_size=1, max_size=3),
    }))
    doc = copy.deepcopy(drawn)    # the odd values are written into its maps
    for _ in range(draw(st.integers(0, 2))):
        target = doc
        maps = [k for k, v in doc.items() if isinstance(v, dict)]
        if maps and draw(st.booleans()):
            target = doc[draw(st.sampled_from(maps))]
        key = draw(st.sampled_from([*target, 0, 1, 2, "bogus"]))
        target[key] = copy.deepcopy(draw(ODD))
    data = yaml.safe_dump(doc).encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3("])) \
            + data[at:]
    sub = draw(st.sampled_from(["run", "fairness", "attack", "claims",
                                "scaling"]))
    argv = [sub, *draw(st.sampled_from([
        [], ["--coalition", "1"], ["--strategy", "k_underbid"],
        ["--option", "victims=[2]"], ["--beta1", "0.1"], ["--n", "8"]]))]
    if sub == "scaling":
        argv += ["--sizes", "8"]          # not the default 16,64,256
    return data, argv


@given(config_file_argv())
@settings(max_examples=200, deadline=None)
def test_main_survives_any_config_file(tmp_path_factory, doc_argv):
    data, argv = doc_argv
    path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    path.write_bytes(data)
    _assert_survives([*argv, "--config", str(path)])
