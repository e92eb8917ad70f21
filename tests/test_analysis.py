"""Oracle and experiment-harness tests: legitimate-winner reconstruction
against brute force, fairness statistics with frozen counts, coupled
equilibrium comparisons, claims audits, and the scaling table."""

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fairgossip.analysis import (
    BaselineCache,
    ClaimsAuditor,
    FairnessReport,
    MemberStat,
    fairness_test,
    iter_trials,
    legitimate_winner,
    run_claims_experiment,
    run_equilibrium_experiment,
    run_fairness_experiment,
    scaling_experiment,
    winner_uniformity_test,
)
import fairgossip
from fairgossip import engine
from fairgossip.engine import (
    Calibration,
    CoalitionConfig,
    SimConfig,
    run_trial,
    trace_json_line,
)
from fairgossip.protocol import ConfigError, derive_params

HALF16 = tuple([1] * 8 + [2] * 8)
HALF32 = tuple([1] * 16 + [2] * 16)


def underbid_config(seed):
    return SimConfig(n=16, gamma=2.0, colors=HALF16, master_seed=seed,
                     coalition=CoalitionConfig(members=(5,),
                                               strategy="k_underbid"))


# --- legitimate winner ------------------------------------------------------

def test_honest_trace_winner_is_legitimate():
    t = run_trial(SimConfig(n=4, gamma=1.0, colors=(1, 2, 1, 2),
                            master_seed=2))
    rec = legitimate_winner(t)
    assert rec.legitimate_winner == rec.winner == 2
    assert rec.k_star == t.tickets     # declared and actual coincide
    assert not rec.e_c and not rec.e_c_prime


def test_empty_coalition_events_false():
    t = run_trial(SimConfig(n=4, gamma=1.0, colors=(1, 2, 1, 2),
                            master_seed=7))
    rec = legitimate_winner(t)
    assert rec.e_c is False and rec.e_c_prime is False


def test_k_star_matches_brute_force():
    cfg = SimConfig(n=5, gamma=1.0, colors=(1, 2, 1, 2, 1), master_seed=11,
                    coalition=CoalitionConfig(
                        members=(2,), strategy="commitment_mismatch"))
    t = run_trial(cfg)
    rec = legitimate_winner(t)
    m = t.params.modulus
    declared = {v: (t.first_declarations.get(v) if v == 2
                    else t.intentions[v])
                for v in range(1, 6)}
    for u in rec.k_star:
        total = sum(value for pairs in declared.values()
                    for value, target in (pairs or ()) if target == u)
        assert rec.k_star[u] == total % m
    for u, k in t.tickets.items():
        assert sum(val for _, _, tgt, val in t.votes if tgt == u) % m == k


def test_fabricated_winner_sets_e_c_prime_only():
    t = run_trial(underbid_config(0))
    rec = legitimate_winner(t)
    # the stolen certificate was adopted, but verification killed the run
    assert (rec.legitimate_winner, rec.winner) == (10, 5)
    assert rec.e_c is False and rec.e_c_prime is True
    assert t.outcome is None


def test_k_star_skips_a_member_with_no_first_declaration():
    # a fake_faulty member answers no pull, so no honest agent pinned its
    # votes down: they count towards nobody's k*
    cfg = SimConfig(n=5, gamma=1.0, colors=(1, 2, 1, 2, 1), master_seed=11,
                    coalition=CoalitionConfig(members=(2,),
                                              strategy="fake_faulty"))
    t = run_trial(cfg)
    assert t.first_declarations.get(2) is None
    rec = legitimate_winner(t)
    m = t.params.modulus
    for u in rec.k_star:
        assert rec.k_star[u] == sum(
            value for v in (1, 3, 4, 5)
            for value, target in t.intentions[v] if target == u) % m


# --- fairness ---------------------------------------------------------------

def test_fairness_frozen_counts():
    cfg = SimConfig(n=8, gamma=4.0, colors=(1, 1, 1, 1, 2, 2, 2, 2))
    rep = run_fairness_experiment(cfg, 80)
    assert rep.fail_count == 0
    assert rep.wins_by_color == {1: 45, 2: 35}
    assert rep.per_agent_wins == {1: 7, 2: 7, 3: 14, 4: 17, 5: 7, 6: 6,
                                  7: 11, 8: 11}
    assert sum(rep.wins_by_color.values()) + rep.fail_count == rep.trials
    assert round(rep.z_score(1), 3) == 1.118
    v = fairness_test(rep)
    assert v.passed and v.per_color == {1: True, 2: True}
    u = winner_uniformity_test(rep)
    assert u.passed and round(u.worst_offset, 4) == 0.0875


def test_fairness_share_over_active_only():
    cfg = SimConfig(n=8, gamma=2.0, colors=(1, 1, 1, 1, 2, 2, 2, 2),
                    faulty=frozenset({1, 2}))
    rep = run_fairness_experiment(cfg, 10)
    assert rep.active_share == {1: pytest.approx(1 / 3),
                                2: pytest.approx(2 / 3)}
    assert set(rep.per_agent_wins) == {3, 4, 5, 6, 7, 8}


def test_single_agent_always_wins_own_color():
    rep = run_fairness_experiment(SimConfig(n=1, gamma=4.0, colors=(1,)),
                                  100)
    assert rep.wins_by_color == {1: 100, 2: 0}
    assert rep.fail_count == 0
    assert fairness_test(rep).passed
    assert winner_uniformity_test(rep).passed


def test_fairness_merge_folds_parts_into_the_serial_report():
    cfg = SimConfig(n=8, gamma=2.0, colors=(1, 1, 1, 1, 2, 2, 2, 2),
                    faulty=frozenset({3}))
    merged = run_fairness_experiment(cfg, 13)
    for seed0, count in ((13, 0), (13, 20), (33, 7)):
        merged.merge(run_fairness_experiment(cfg, count, seed0))
    assert merged == run_fairness_experiment(cfg, 40)


def test_fairness_merge_rejects_mixed_configs():
    cfg = SimConfig(n=8, gamma=2.0, colors=(1, 1, 1, 1, 2, 2, 2, 2))
    report = run_fairness_experiment(cfg, 5)
    before = copy.deepcopy(report)
    for other in (SimConfig(n=8, gamma=3.0, colors=cfg.colors),
                  SimConfig(n=8, gamma=2.0, colors=cfg.colors,
                            faulty=frozenset({1}))):
        with pytest.raises(ConfigError):
            report.merge(run_fairness_experiment(other, 5))
    shifted = run_fairness_experiment(cfg, 5)
    shifted.active_share = {1: 0.25, 2: 0.75}
    with pytest.raises(ConfigError):
        report.merge(shifted)
    assert report == before


def _hand_report(wins1, trials=10000):
    cfg = SimConfig(n=8, gamma=4.0, colors=(1, 1, 1, 1, 2, 2, 2, 2))
    return FairnessReport(config=cfg, trials=trials, fail_count=0,
                          wins_by_color={1: wins1, 2: trials - wins1},
                          per_agent_wins={u: trials // 8
                                          for u in range(1, 9)},
                          active_share={1: 0.5, 2: 0.5})


# Ten repeated fairness runs in one fresh process, by a caller that never
# calls cli.main; prints the minor page faults they took.
REPEATED_RUNS = """
import resource
from fairgossip.analysis import run_fairness_experiment
from fairgossip.engine import SimConfig
config = SimConfig(n=64, gamma=4.0, colors=(1,) * 32 + (2,) * 32)
run_fairness_experiment(config, 16)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    run_fairness_experiment(config, 16)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_library_callers_fault_no_freed_memory_back_in():
    # importing fairgossip fixes glibc's thresholds, so a library caller's
    # freed numpy temporaries serve its next run too (about 3,200 faults
    # with the adaptive thresholds)
    src = str(Path(fairgossip.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", REPEATED_RUNS], env=env,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 300


def test_fairness_test_tolerance_edges():
    assert fairness_test(_hand_report(5000)).passed           # freq == p
    assert not fairness_test(_hand_report(5500)).passed       # p + 10 sigma


def test_fairness_indeterminate_without_successes():
    cfg = SimConfig(n=8, gamma=4.0, colors=(1, 1, 1, 1, 2, 2, 2, 2))
    rep = FairnessReport(config=cfg, trials=5, fail_count=5,
                         wins_by_color={1: 0, 2: 0},
                         per_agent_wins={u: 0 for u in range(1, 9)},
                         active_share={1: 0.5, 2: 0.5})
    assert fairness_test(rep).passed is None
    assert not fairness_test(rep).fail_rate_ok
    assert winner_uniformity_test(rep) == (False, math.inf, 0.0)


def test_uniformity_rejects_dictator():
    rep = _hand_report(5000)
    rep.per_agent_wins = {u: (10000 if u == 3 else 0) for u in range(1, 9)}
    v = winner_uniformity_test(rep)
    assert not v.passed and v.worst_offset == pytest.approx(.875)


# --- equilibrium ------------------------------------------------------------

def test_honest_deviation_changes_nothing():
    cfg = SimConfig(n=16, gamma=2.0, colors=HALF16,
                    coalition=CoalitionConfig(members=(3, 5),
                                              strategy="honest"))
    rep = run_equilibrium_experiment(cfg, 30)
    assert rep.kept_pairs == 9 and rep.dropped_pairs == 21
    for s in rep.per_member:
        assert s.difference == 0.0 and s.ci_half_width == 0.0
    assert rep.verdict


def test_k_underbid_never_pays():
    cache = BaselineCache()
    rep = run_equilibrium_experiment(underbid_config(0), 40, cache=cache)
    assert (rep.kept_pairs, rep.dropped_pairs) == (22, 18)
    assert rep.deviation_fail_rate == 1.0
    (s,) = rep.per_member
    assert s.member == 5
    assert round(s.baseline_mean, 4) == 0.5455
    assert s.deviation_mean == -1.0           # every deviation run aborts
    assert round(s.difference, 4) == -1.5455
    assert round(s.ci_half_width, 4) == 0.4346
    assert rep.verdict
    assert len(cache.entries) == 40

    # the same cache feeds a different strategy at the same base config
    cfg = SimConfig(n=16, gamma=2.0, colors=HALF16,
                    coalition=CoalitionConfig(members=(5,),
                                              strategy="commitment_mismatch"))
    rep2 = run_equilibrium_experiment(cfg, 30, cache=cache)
    assert len(cache.entries) == 40           # no new baseline trials
    assert (rep2.kept_pairs, rep2.dropped_pairs) == (16, 14)
    assert rep2.deviation_fail_rate == pytest.approx(0.4)
    (s2,) = rep2.per_member
    assert round(s2.difference, 4) == -0.5625
    assert rep2.verdict


@pytest.mark.parametrize("seed0, kept", [(0, 0), (15, 1)])
def test_no_gain_verdict_is_indeterminate_below_two_kept_pairs(seed0, kept):
    # one kept pair gives no CI and none gives no difference: neither
    # can show a gain or its absence
    cfg = SimConfig(n=16, gamma=2.0, colors=HALF16,
                    coalition=CoalitionConfig(members=(2, 5),
                                              strategy="coherence_silence"))
    rep = run_equilibrium_experiment(cfg, 5, seed0)
    assert rep.kept_pairs == kept
    assert rep.verdict is None
    assert rep.to_dict()["verdict_no_gain"] is None
    # and neither has a CI; with no pair the means are undefined too
    for s in rep.per_member:
        assert s.ci_half_width is None
        means = (s.baseline_mean, s.deviation_mean, s.difference)
        if kept:
            assert all(type(x) is float for x in means)
        else:
            assert means == (None, None, None)
    for row in rep.to_dict()["per_member"]:
        assert row["ci_half_width"] is None


def test_poisoned_cache_is_believed():
    # proves the cache short-circuits the baseline arm
    cache = BaselineCache()
    rep = run_equilibrium_experiment(underbid_config(0), 10, cache=cache)
    forced = BaselineCache()
    forced.key = cache.key
    forced.entries = {seed: (2, True) for seed in range(10)}
    rep2 = run_equilibrium_experiment(underbid_config(0), 10, cache=forced)
    (s2,) = rep2.per_member
    assert s2.baseline_mean == 0.0            # member 5 supports color 1
    assert rep2.baseline_fail_rate == 0.0
    assert rep2.kept_pairs >= rep.kept_pairs


def test_cache_guards_its_config():
    cache = BaselineCache()
    run_equilibrium_experiment(underbid_config(0), 3, cache=cache)
    other = SimConfig(n=16, gamma=2.0, colors=HALF16,
                      faulty=frozenset({9}),
                      coalition=CoalitionConfig(members=(5,),
                                                strategy="k_underbid"))
    with pytest.raises(ConfigError):
        run_equilibrium_experiment(other, 3, cache=cache)
    # the same population, classified under another calibration
    recalibrated = dataclasses.replace(
        underbid_config(0), calibration=Calibration(beta1=0.5, beta2=2.5))
    with pytest.raises(ConfigError):
        run_equilibrium_experiment(recalibrated, 3, cache=cache)


def test_cache_ignores_the_master_seed():
    # baselines run at the experiment's seeds, never at master_seed
    cache = BaselineCache()
    run_equilibrium_experiment(dataclasses.replace(underbid_config(0),
                                                   master_seed=5),
                               3, 0, cache=cache)
    other = SimConfig(n=16, gamma=2.0, colors=HALF16, master_seed=6,
                      coalition=CoalitionConfig(
                          members=(5,), strategy="commitment_mismatch"))
    rep = run_equilibrium_experiment(other, 3, 0, cache=cache)
    assert len(cache.entries) == 3
    assert rep == run_equilibrium_experiment(other, 3, 0)


def test_equilibrium_requires_coalition():
    with pytest.raises(ConfigError):
        run_equilibrium_experiment(
            SimConfig(n=16, gamma=2.0, colors=HALF16), 5)


def test_report_serializes():
    rep = run_equilibrium_experiment(underbid_config(0), 5)
    doc = rep.to_dict()
    assert doc["strategy"] == "k_underbid"
    assert doc["verdict_no_gain"] == rep.verdict
    assert doc["per_member"][0]["member"] == 5
    # a report's JSON is its fields plus its verdict
    assert set(doc) == ({f.name for f in dataclasses.fields(rep)}
                        | {"verdict_no_gain"})
    json.dumps(doc)


# --- claims audit -----------------------------------------------------------

def audit32(trials, members=(1, 17), strategy="honest"):
    aud = ClaimsAuditor()
    coalition = CoalitionConfig(members=members, strategy=strategy)
    for s in range(trials):
        aud.add(run_trial(SimConfig(n=32, gamma=3.0, colors=HALF32,
                                    coalition=coalition, master_seed=s),
                          record=False))
    return aud


def test_claims_audit_honest_coalition():
    rep = audit32(200).report()
    assert (rep.traces, rep.eligible) == (200, 150)
    assert rep.claim1_checked == 145
    assert rep.claim1_violations == 0
    assert rep.claim4_rate == pytest.approx(5 / 150)
    assert rep.claim4_bound == pytest.approx(
        2 / 32 + 4 * math.sqrt((2 / 32) * (30 / 32) / 150))
    assert rep.claim3_passed and rep.claim4_passed and rep.passed
    obs = {c: o for c, _, o, _ in rep.claim3_rows}
    assert obs[1] == pytest.approx(0.4552, abs=1e-4)
    assert obs[2] == pytest.approx(0.5448, abs=1e-4)
    doc = rep.to_dict()
    assert set(doc) == ({f.name for f in dataclasses.fields(rep)}
                        - {"claim3_rows"} | {"claim3", "passed"})
    assert [list(row) for row in doc["claim3"]] == [
        ["color", "expected", "observed", "ok"]] * 2
    json.dumps(doc)


def test_claims_audit_under_attack_conditions_out_aborts():
    aud = ClaimsAuditor()
    for s in range(25):
        aud.add(run_trial(underbid_config(s), record=False))
    rep = aud.report()
    assert rep.traces == 25
    assert rep.eligible == 0        # every fabricated win aborted
    assert rep.claim1_violations == 0
    assert rep.claim3_passed is None and rep.claim4_passed is None
    assert rep.passed is None       # nothing audited: indeterminate


def test_claims_audit_counts_a_claim1_violation():
    t = next(t for t in (run_trial(SimConfig(n=16, gamma=2.0, colors=HALF16,
                                             master_seed=s), record=False)
                         for s in range(20))
             if t.outcome is not None)
    aud = ClaimsAuditor()
    aud.add(t)
    assert (aud.claim1_checked, aud.claim1_violations) == (1, 0)
    aud.add(dataclasses.replace(t, winner=t.winner % 16 + 1))
    assert (aud.claim1_checked, aud.claim1_violations) == (2, 1)
    assert not aud.report().passed


def test_auditor_rejects_mixed_configs():
    aud = ClaimsAuditor()
    aud.add(run_trial(underbid_config(0)))
    with pytest.raises(ConfigError):
        aud.add(run_trial(SimConfig(n=4, gamma=1.0, colors=(1, 2, 1, 2))))
    # the same population, differing in gamma alone
    aud = ClaimsAuditor()
    aud.add(run_trial(SimConfig(n=16, gamma=2.0, colors=HALF16)))
    with pytest.raises(ConfigError):
        aud.add(run_trial(SimConfig(n=16, gamma=4.0, colors=HALF16)))
    # the same coalition, differing in strategy alone
    aud = ClaimsAuditor()
    aud.add(run_trial(underbid_config(0)))
    with pytest.raises(ConfigError):
        aud.add(run_trial(dataclasses.replace(
            underbid_config(1), coalition=CoalitionConfig(
                members=(5,), strategy="honest"))))
    # the same trials, classified under another calibration
    with pytest.raises(ConfigError):
        aud.add(run_trial(dataclasses.replace(
            underbid_config(1), calibration=Calibration(beta1=0.5,
                                                        beta2=2.5))))
    # the seed is not part of the config an audit is over
    aud.add(run_trial(underbid_config(1)))
    assert aud.traces_seen == 2


def test_claims_merge_folds_parts_into_the_serial_audit():
    cfg = SimConfig(n=16, gamma=2.0, colors=HALF16,
                    coalition=CoalitionConfig(members=(5,)))
    merged = ClaimsAuditor()
    merged.merge(ClaimsAuditor())               # empty parts add nothing
    for seed0, count in ((0, 13), (13, 27)):
        merged.merge(run_claims_experiment(cfg, count, seed0))
    assert merged == run_claims_experiment(cfg, 40)
    assert merged.claim1_checked > 0
    honest = SimConfig(n=16, gamma=2.0, colors=HALF16)
    with pytest.raises(ConfigError):
        merged.merge(run_claims_experiment(honest, 3))


# --- scaling ----------------------------------------------------------------

def test_scaling_table_frozen():
    rows = scaling_experiment([16, 64], trials=3)
    assert [tuple(r) for r in rows] == [
        (16, 12, 48, 397, 1.0),
        (64, 17, 68, 779, 1.0),
    ]
    for r in rows:
        assert r.rounds == 4 * r.q


# --- the seed loop ----------------------------------------------------------

@pytest.mark.parametrize("record", [False, True])
def test_iter_trials_draws_a_chunk_at_a_time(monkeypatch, record):
    # chunks of 4 seeds; one-, two- and three-word seeds sit on both sides
    # of each chunk boundary
    config = SimConfig(n=17, gamma=1.5, colors=tuple(i % 2 + 1
                                                     for i in range(17)),
                       faulty=frozenset({6}),
                       coalition=CoalitionConfig(members=(2, 9),
                                                 strategy="k_underbid"))
    q = derive_params(17, 1.5).phase_rounds
    monkeypatch.setattr(engine, "_CHUNK_WORDS", 4 * 17 * 5 * q)
    seeds = [(0, 2**32, 2**70)[s % 3] + s for s in range(11)]
    pulled = []

    def feed():
        for seed in seeds:
            pulled.append(seed)
            yield seed

    traces = iter_trials(config, feed(), record=record)
    assert not pulled
    got = [next(traces)]
    assert len(pulled) == 4
    got += [next(traces) for _ in range(4)]
    assert len(pulled) == 8
    got += list(traces)
    assert len(got) == len(pulled) == len(seeds)
    for seed, trace in zip(seeds, got):
        expected = run_trial(dataclasses.replace(config, master_seed=seed),
                             record=record)
        assert trace_json_line(trace) == trace_json_line(expected), seed


def test_iter_trials_rejects_a_negative_seed():
    # as run_trial does: numpy's SeedSequence refuses it
    config = SimConfig(n=16, gamma=2.0, colors=HALF16)
    with pytest.raises(ValueError) as want:
        run_trial(dataclasses.replace(config, master_seed=-1))
    with pytest.raises(ValueError) as got:
        list(iter_trials(config, [0, -1]))
    assert not isinstance(got.value, ConfigError)
    assert str(got.value) == str(want.value)
