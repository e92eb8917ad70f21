"""Acceptance gate: ten desk-scale criteria, one printed pass/fail line
each. Statistical criteria run at fixed seeds with 4-sigma tolerances, so
every run of this module reproduces the same verdicts.

This is the slow part of the suite (roughly 100k trials all told); expect
several minutes.
"""

import math
from dataclasses import replace

import pytest

from fairgossip.analysis import (
    BaselineCache,
    ClaimsAuditor,
    fairness_test,
    legitimate_winner,
    run_equilibrium_experiment,
    run_fairness_experiment,
    winner_uniformity_test,
)
from fairgossip.engine import (
    CoalitionConfig,
    SimConfig,
    run_trial,
    trace_json_line,
)
from fairgossip.protocol import (
    FAULT_STREAM_TAG,
    derive_params,
    derive_stream,
)

HALF64 = tuple([1] * 32 + [2] * 32)
HALF16 = tuple([1] * 8 + [2] * 8)


def gate(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion}: {'pass' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_a1_fairness_fault_free():
    rep = run_fairness_experiment(SimConfig(n=64, gamma=4.0, colors=HALF64),
                                  20000)
    tol = 4 * math.sqrt(0.25 / 20000)
    off = {c: abs(rep.frequency(c) - 0.5) for c in (1, 2)}
    fail_rate = rep.fail_count / rep.trials
    ok = max(off.values()) <= tol and fail_rate <= 0.01
    gate("A1 fault-free fairness", ok,
         f"|freq-0.5| = {max(off.values()):.4f} <= {tol:.4f}, "
         f"fail rate {fail_rate:.4%} <= 1%")


def test_a2_fairness_adversarial_faults():
    cfg = SimConfig(n=64, gamma=4.0, colors=HALF64,
                    faulty=frozenset(range(1, 17)))
    rep = run_fairness_experiment(cfg, 20000)
    assert rep.active_share == {1: pytest.approx(1 / 3),
                                2: pytest.approx(2 / 3)}
    verdict = fairness_test(rep, sigma_mult=4.0, max_fail_rate=0.01)
    gate("A2 fairness under adversarial faults", bool(verdict.passed),
         f"freq(1) = {rep.frequency(1):.4f} vs 1/3, "
         f"freq(2) = {rep.frequency(2):.4f} vs 2/3, "
         f"fail rate {verdict.fail_rate:.4%}")


def test_a3_round_and_message_bounds():
    measured = {}
    rounds_ok = True
    for n in (16, 64, 256):
        q = derive_params(n, 4.0).phase_rounds
        assert q == math.ceil(4.0 * math.log(n))
        colors = tuple((i % 2) + 1 for i in range(n))
        worst = 0
        for s in range(5):
            t = run_trial(SimConfig(n=n, gamma=4.0, colors=colors,
                                    master_seed=s))
            rounds_ok = rounds_ok and t.stats.rounds == 4 * q
            worst = max(worst, max(m[5] for m in t.messages))
        measured[n] = worst
    c = measured[16] / (math.log(16) * math.log2(16))
    bits_ok = all(measured[n] <= 2 * c * math.log(n) * math.log2(n)
                  for n in (64, 256))
    gate("A3 round and message-size bounds", rounds_ok and bits_ok,
         f"rounds = 4q everywhere; max bits {measured} inside "
         f"2x (ln n)(log2 n) fit from n=16")


def test_a4_winner_uniformity():
    rep = run_fairness_experiment(SimConfig(n=16, gamma=4.0, colors=HALF16),
                                  50000)
    u = winner_uniformity_test(rep, sigma_mult=4.0)
    gate("A4 winner uniformity", u.passed,
         f"worst |freq - 1/16| = {u.worst_offset:.5f} <= {u.bound:.5f} "
         f"over {rep.t_success} decided trials")


def test_a5_good_execution_rate():
    good = 0
    for s in range(1000):
        rng = derive_stream(s, FAULT_STREAM_TAG)
        faults = frozenset(int(u) + 1
                           for u in rng.choice(64, size=16, replace=False))
        t = run_trial(SimConfig(n=64, gamma=4.0, colors=HALF64,
                                faulty=faults, master_seed=s), record=False)
        good += t.flags.d2_good and t.flags.d3_good
    gate("A5 good-execution rate", good >= 990,
         f"{good}/1000 trials with all six flags (need >= 990)")


STRATEGIES_UNDER_TEST = ("k_underbid", "commitment_mismatch", "fake_faulty",
                         "coherence_silence")
MEMBER_SETS = {1: (1,), 4: (1, 2, 33, 34)}


@pytest.fixture(scope="module")
def deviation_suite():
    """All eight coupled experiments, sharing one baseline cache."""
    cache = BaselineCache()
    results = {}
    for strategy in STRATEGIES_UNDER_TEST:
        for size, members in MEMBER_SETS.items():
            cfg = SimConfig(n=64, gamma=4.0, colors=HALF64,
                            coalition=CoalitionConfig(members=members,
                                                      strategy=strategy))
            auditor = ClaimsAuditor()
            report = run_equilibrium_experiment(cfg, 5000, 0, cache=cache,
                                                auditor=auditor)
            results[strategy, size] = (report, auditor)
    return results


def test_a6_equilibrium_suite(deviation_suite):
    no_gain = all(rep.verdict for rep, _ in deviation_suite.values())
    underbid_fails = min(
        deviation_suite["k_underbid", size][0].deviation_fail_rate
        for size in MEMBER_SETS)
    worst = max((rep.per_member[0].difference
                 for rep, _ in deviation_suite.values()))
    gate("A6 equilibrium suite", no_gain and underbid_fails >= 0.95,
         f"no-gain verdict in all 8 strategy/size runs "
         f"(max member gain {worst:+.4f}); k_underbid deviation "
         f"failure rate {underbid_fails:.2%} >= 95%")


def test_a7_claim1_exact_audit(deviation_suite):
    checked = sum(aud.claim1_checked for _, aud in deviation_suite.values())
    violations = sum(aud.claim1_violations
                     for _, aud in deviation_suite.values())
    gate("A7 exact winner audit", violations == 0 and checked > 0,
         f"winner = legitimate winner in {checked}/{checked + violations} "
         f"eligible traces")


def test_a8_coalition_win_bound():
    cfg = SimConfig(n=64, gamma=4.0, colors=HALF64,
                    coalition=CoalitionConfig(members=(1, 2, 33, 34),
                                              strategy="honest"))
    auditor = ClaimsAuditor()
    for s in range(10000):
        auditor.add(run_trial(replace(cfg, master_seed=s), record=False))
    rep = auditor.report()
    ok = bool(rep.claim4_passed) and rep.claim1_violations == 0
    gate("A8 coalition win-probability bound", ok,
         f"Pr(winner in C) = {rep.claim4_rate:.4f} <= {rep.claim4_bound:.4f}"
         f" over {rep.eligible} good trials")


def test_a9_oracle_equivalence():
    strategies = ("honest", "commitment_mismatch", "k_underbid",
                  "fake_faulty", "coherence_silence")
    for s in range(1000):
        n = 2 + s % 4
        gamma = (0.5, 1.0, 1.5)[s % 3]
        q = derive_params(n, gamma).phase_rounds
        assert n <= 5 and q <= 3
        colors = tuple((i % 2) + 1 for i in range(n))
        faulty = frozenset({1}) if (s % 5 == 0 and n >= 3) else frozenset()
        coalition = None
        members = frozenset()
        if s % 2 and n >= 3:
            coalition = CoalitionConfig(members=(2,),
                                        strategy=strategies[s % 5])
            members = frozenset({2})
        t = run_trial(SimConfig(n=n, gamma=gamma, colors=colors,
                                faulty=faulty, coalition=coalition,
                                master_seed=s))
        m = t.params.modulus
        for u, k in t.tickets.items():
            brute = sum(v for _, _, tgt, v in t.votes if tgt == u) % m
            assert brute == k, f"seed {s}: ticket of {u}"
        rec = legitimate_winner(t)
        for u in rec.k_star:
            total = 0
            for v in rec.k_star:
                pairs = (t.first_declarations.get(v) if v in members
                         else t.intentions[v])
                for value, target in (pairs or ()):
                    if target == u:
                        total += value
            assert total % m == rec.k_star[u], f"seed {s}: k* of {u}"
        if coalition is None:
            assert rec.k_star == t.tickets
    gate("A9 oracle equivalence", True,
         "brute-forced k and k* match engine and oracle on 1000 small "
         "trials")


def test_a10_determinism():
    configs = [
        SimConfig(n=16, gamma=2.0, colors=HALF16, master_seed=7),
        SimConfig(n=16, gamma=2.0, colors=HALF16, master_seed=8,
                  faulty=frozenset({3, 9}),
                  coalition=CoalitionConfig(members=(5,),
                                            strategy="fake_faulty")),
        SimConfig(n=8, gamma=1.0, colors=(1, 2) * 4, master_seed=0,
                  coalition=CoalitionConfig(members=(1, 2),
                                            strategy="commitment_mismatch",
                                            options={"equivocate": True})),
    ]
    replay_ok = all(trace_json_line(run_trial(c)) ==
                    trace_json_line(run_trial(c)) for c in configs)

    base = run_trial(SimConfig(n=16, gamma=2.0, colors=HALF16,
                               master_seed=11))
    dev = run_trial(replace(base.config,
                            coalition=CoalitionConfig(members=(5,),
                                                      strategy="k_underbid")))
    honest = [u for u in range(1, 17) if u != 5]
    coupled = all(base.intentions[u] == dev.intentions[u] for u in honest)
    coupled = coupled and base.tickets == dev.tickets
    honest_pulls = lambda t: [msg for msg in t.messages
                              if msg[4] == "pull_request" and msg[2] != 5]
    coupled = coupled and honest_pulls(base) == honest_pulls(dev)
    gate("A10 determinism", replay_ok and coupled,
         "replays byte-identical; honest draws coupled across arms")
