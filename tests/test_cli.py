"""End-to-end command-line tests: subcommand wiring, exit codes, output
formats, reproducibility, and the parallel merge."""

import contextlib
import csv
import dataclasses
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairgossip.adversary import STRATEGIES
from fairgossip.cli import main
from fairgossip.engine import CoalitionConfig, SimConfig, run_trial

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


def test_scaling_subcommand(tmp_path):
    out = tmp_path / "scaling.jsonl"
    assert main(["scaling", "--sizes", "8,16", "--trials", "2",
                 "--out", str(out)]) == 0
    rows = read_lines(out)
    assert [r["n"] for r in rows[:-1]] == [8, 16]
    assert all(r["rounds"] == 4 * r["q"] for r in rows[:-1])
    assert rows[-1]["passed"] is True


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
    ["scaling", "--sizes", "8", "--trials", "1", "--coalition", "1",
     "--strategy", "k_underbid"],
    ["scaling", "--sizes", "8", "--trials", "1", "--faulty", "2,3"],
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


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["fairness", "--frobnicate"])
    assert exc.value.code == 2


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
    "--beta2": ["8", "0"],
    "--format": ["jsonl", "csv"],
    "--parallel": ["1", "2"],
}
JUNK = {
    "--n": ["0", "-3", "x", "2.5", ""],
    "--trials": ["0", "-1", "x", "2.5"],
    "--sizes": ["0", "8,x", "", "-1"],
    "--gamma": ["0", "-1", "inf", "nan", "x"],
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
    "--beta2": ["x"],
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
