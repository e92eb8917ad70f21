"""End-to-end command-line tests: subcommand wiring, exit codes, output
formats, reproducibility, and the parallel merge."""

import csv
import dataclasses
import io
import json

import pytest

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


def test_fairness_parallel_matches_serial(tmp_path):
    serial, par = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
    argv = ["fairness", "--n", "8", "--colors", "4x1,4x2",
            "--trials", "30"]
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
