"""Simulator tests: determinism, phase mechanics, message accounting,
execution classification, and config validation."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairgossip.adversary import DeviationStrategy, StrategyError, register
from fairgossip.engine import (
    Calibration,
    CoalitionConfig,
    CoalitionRegimeWarning,
    GoodExecutionFlags,
    SimConfig,
    bit_widths,
    certificate_bits,
    intention_reply_bits,
    pull_request_bits,
    run_honest_trials,
    run_trial,
    trace_json_line,
    trace_to_dict,
    validate_config,
    vote_push_bits,
)
from fairgossip.protocol import Certificate, ConfigError, derive_params, vote_sum

HALF = tuple([1] * 8 + [2] * 8)          # n=16, two equal color classes
HALF64 = tuple([1] * 32 + [2] * 32)


def cfg4(seed, colors=(1, 1, 2, 2)):
    return SimConfig(n=4, gamma=1.0, colors=colors, master_seed=seed)


def test_happy_path_small_frozen():
    t = run_trial(cfg4(2))
    assert t.tickets == {1: 33, 2: 7, 3: 57, 4: 49}
    assert t.winner == 2 and t.outcome == 1
    assert (t.stats.messages, t.stats.bits) == (29, 466)
    assert t.stats.rounds == 8  # 4 phases x q=2
    assert t.failures == {}
    assert all(t.decisions[u] == 1 for u in (1, 2, 3, 4))
    assert t.cert_min[1] == t.cert_min[3] and t.cert_min[1].owner == 2


def test_ticket_tie_diverges_and_aborts_frozen():
    # seed 3: agents 1 and 4 both receive zero votes, so two distinct
    # ticket-0 certificates circulate; strict-less folding cannot merge
    # them and coherence burns the conflict down to an abort.
    t = run_trial(cfg4(3))
    assert t.tickets == {1: 0, 2: 39, 3: 57, 4: 0}
    assert t.tally_sizes[1] == 0 and t.tally_sizes[4] == 0
    assert not t.flags.d2_k_distinct
    assert t.winner is None and t.outcome is None
    assert t.failures  # somebody observed the conflict
    assert t.flags.d3_coherence_agree_or_fail


def test_single_agent_run():
    t = run_trial(SimConfig(n=1, gamma=2.0, colors=(1,), num_colors=1))
    assert t.winner == 1 and t.outcome == 1
    assert t.stats.messages == 0  # every event is local
    assert t.tickets == {1: 0}    # m=1: all sums vanish
    assert t.tally_sizes == {1: 1}


def test_replay_is_byte_identical():
    a = run_trial(cfg4(2))
    b = run_trial(cfg4(2))
    assert trace_json_line(a) == trace_json_line(b)
    c = run_trial(cfg4(5))
    assert trace_json_line(a) != trace_json_line(c)


def test_round_count_tracks_parameters():
    for n, gamma in [(4, 1.0), (16, 2.0), (16, 4.0)]:
        cols = tuple(1 for _ in range(n))
        t = run_trial(SimConfig(n=n, gamma=gamma, colors=cols, num_colors=1),
                      record=False)
        q = derive_params(n, gamma).phase_rounds
        assert t.stats.rounds == 4 * q


def test_no_self_messages_and_phase_budget():
    t = run_trial(SimConfig(n=16, gamma=2.0, colors=HALF, master_seed=1))
    q = t.params.phase_rounds
    assert all(s != r for _, _, s, r, _, _ in t.messages)
    per_phase = dict((p, c) for p, c, _ in t.stats.by_phase)
    # pull phases: at most one request + one reply per agent per round;
    # push phases: at most one message per agent per round
    assert per_phase["commitment"] <= 2 * 16 * q
    assert per_phase["find_min"] <= 2 * 16 * q
    assert per_phase["voting"] <= 16 * q
    assert per_phase["coherence"] <= 16 * q
    assert all(rnd <= q for _, rnd, *_ in t.messages)


def test_bit_accounting_examples():
    # n=256: agent ids are one byte
    w256 = bit_widths(derive_params(256, 4.0))
    assert pull_request_bits(w256) == 8
    # n=8, two colors: an empty certificate costs 9 + 1 + 3 bits
    p8 = derive_params(8, 3.0)
    w8 = bit_widths(p8)
    assert certificate_bits(Certificate(0, (), 1, 1), w8) == 13
    assert vote_push_bits(w8) == 9
    assert intention_reply_bits(p8, w8) == 7 * (9 + 3)
    # each claimed vote costs value + sender + round index
    assert (certificate_bits(Certificate(0, ((1, 2, 1),), 1, 1), w8)
            == 13 + 9 + 3 + 3)


def test_message_bits_match_logged_sizes():
    t = run_trial(SimConfig(n=16, gamma=2.0, colors=HALF, master_seed=4))
    assert t.stats.messages == len(t.messages)
    assert t.stats.bits == sum(m[5] for m in t.messages)
    by_phase = {p: (c, b) for p, c, b in t.stats.by_phase}
    for phase in by_phase:
        msgs = [m for m in t.messages if m[0] == phase]
        assert by_phase[phase] == (len(msgs), sum(m[5] for m in msgs))


def test_votes_log_reconstructs_tallies_and_tickets():
    t = run_trial(SimConfig(n=16, gamma=2.0, colors=HALF, master_seed=9,
                            faulty=frozenset({3, 7})))
    m = t.params.modulus
    for u in t.tickets:
        tally = [(v, s, r) for r, s, tgt, v in t.votes if tgt == u]
        assert len(tally) == t.tally_sizes[u]
        assert vote_sum(tally, m) == t.tickets[u]
    assert 3 not in t.tickets and 7 not in t.tickets  # faulty never tally


def test_faulty_agents_are_marked_and_silent():
    t = run_trial(SimConfig(n=16, gamma=2.0, colors=HALF, master_seed=9,
                            faulty=frozenset({3, 7})))
    assert all(s not in (3, 7) for _, _, s, _, _, _ in t.messages)
    assert all(s not in (3, 7) for _, s, _, _ in t.votes)
    # every agent that pulled 3 or 7 holds a mark for it
    for u, marks in t.faulty_marks.items():
        assert set(marks) <= {3, 7}
    assert any(3 in marks for marks in t.faulty_marks.values())
    assert t.intentions[3] is None  # not exported for faulty agents


def test_failed_agents_go_quiet_but_stay_addressed():
    t = run_trial(SimConfig(n=16, gamma=2.0, colors=HALF, master_seed=0,
                            coalition=CoalitionConfig(members=(1, 2),
                                                      strategy="k_underbid")))
    assert t.outcome is None and len(t.failures) >= 2
    for agent, failed_round in t.failures.items():
        late = [m for m in t.messages
                if m[0] == "coherence" and m[2] == agent and m[1] > failed_round]
        assert late == []  # quiescent after failure
    # absorbing: an agent fails at most once
    assert len(t.failures) == len(set(t.failures))


def test_honest_coalition_is_execution_identical():
    base = run_trial(SimConfig(n=16, gamma=2.0, colors=HALF, master_seed=11))
    dev = run_trial(SimConfig(n=16, gamma=2.0, colors=HALF, master_seed=11,
                              coalition=CoalitionConfig(members=(1, 5),
                                                        strategy="honest")))
    assert dev.messages == base.messages
    assert dev.votes == base.votes
    assert dev.tickets == base.tickets
    assert dev.cert_min == base.cert_min
    assert dev.decisions == base.decisions
    assert (dev.winner, dev.outcome) == (base.winner, base.outcome)
    assert dev.first_declarations == {1: dev.intentions[1],
                                      5: dev.intentions[5]}
    f_base, f_dev = base.flags, dev.flags
    assert (f_dev.d2_votes_theta_logn, f_dev.d2_k_distinct,
            f_dev.d2_findmin_converged) == (
        f_base.d2_votes_theta_logn, f_base.d2_k_distinct,
        f_base.d2_findmin_converged)


def test_flag_flips_frozen_seeds():
    # seeds located by scanning the fault-free-calibration config space
    def a5trial(seed, faulty):
        return run_trial(SimConfig(n=64, gamma=4.0, colors=HALF64,
                                   faulty=faulty, master_seed=seed),
                         record=False)

    from fairgossip.protocol import FAULT_STREAM_TAG, derive_stream

    def drawn_faults(seed):
        rng = derive_stream(seed, FAULT_STREAM_TAG)
        return frozenset(int(x) + 1 for x in rng.choice(64, size=16,
                                                        replace=False))

    assert not a5trial(28, drawn_faults(28)).flags.d2_k_distinct
    assert not a5trial(278, drawn_faults(278)).flags.d2_findmin_converged
    assert a5trial(0, drawn_faults(0)).flags.d2_good


def test_fast_draws_replay_reference_loop(monkeypatch):
    # every trace byte, faults and a coalition included, is the same when
    # the engine draws through the per-agent reference loop instead
    import fairgossip.engine as engine
    from test_protocol import reference_draws

    def config(seed):
        n = (5, 17, 40, 100)[seed % 4]
        colors = tuple((i % 2) + 1 for i in range(n))
        coalition = None
        if seed % 3 == 0:
            coalition = CoalitionConfig(
                members=(1, 4), strategy=("k_underbid", "fake_faulty",
                                          "coherence_silence")[seed % 9 // 3])
        return SimConfig(n=n, gamma=1.5, colors=colors, master_seed=seed,
                         faulty=frozenset({2, n}) if seed % 2 else frozenset(),
                         coalition=coalition)

    seeds = range(200)
    fast = [trace_json_line(run_trial(config(s))) for s in seeds]
    monkeypatch.setattr(engine, "draw_agents", reference_draws)
    assert [trace_json_line(run_trial(config(s))) for s in seeds] == fast


def _honest_cases():
    """(config, calibration, trials): ticket ties at n <= 5, redrawn
    draw_agents rows at n=100, three colours, explicit and random:K
    faults, and gammas low enough that find-min often fails to converge."""
    from fairgossip.config import resolve_faulty

    def alt(n, k=2):
        return tuple(i % k + 1 for i in range(n))

    tight = Calibration(beta1=0.5, beta2=3.0)
    floor = Calibration(beta1=0.0)       # an empty tally sits on the bound
    default = Calibration()
    c17, c64 = alt(17, 3), alt(64)
    return [
        (SimConfig(n=1, gamma=2.0, colors=(1,), num_colors=1), default, 200),
        (SimConfig(n=2, gamma=1.0, colors=(1, 2)), floor, 1500),
        (SimConfig(n=3, gamma=1.0, colors=(1, 2, 3), num_colors=3), tight,
         1500),
        (SimConfig(n=5, gamma=0.5, colors=alt(5), faulty=frozenset({2})),
         default, 1500),
        (SimConfig(n=17, gamma=0.5, colors=c17, num_colors=3), tight, 2000),
        (SimConfig(n=17, gamma=1.5, colors=c17, num_colors=3,
                   faulty=resolve_faulty("random:4", 17, c17, 5, 0.25)),
         default, 1000),
        (SimConfig(n=64, gamma=1.0, colors=c64,
                   faulty=resolve_faulty("random:16", 64, c64, 0, 0.25)),
         tight, 1200),
        (SimConfig(n=100, gamma=0.8, colors=alt(100),
                   faulty=frozenset({1, 50, 100})), default, 1200),
    ]


def test_honest_kernel_matches_run_trial(monkeypatch):
    import fairgossip.protocol as protocol
    from dataclasses import fields, replace

    redrawn = []
    derive = protocol.derive_stream

    def counting_derive(seed, label):
        redrawn.append(label)
        return derive(seed, label)

    monkeypatch.setattr(protocol, "derive_stream", counting_derive)

    seen: dict[str, set] = {f.name: set() for f in fields(GoodExecutionFlags)}
    events = {"abort": 0, "split_undetected": 0, "n100_redraw": 0}
    total = 0
    for config, calibration, trials in _honest_cases():
        redrawn.clear()
        fast = list(run_honest_trials(config, range(trials), calibration))
        if config.n == 100:
            events["n100_redraw"] += len(redrawn)
        for seed, got in enumerate(fast):
            t = run_trial(replace(config, master_seed=seed), record=False,
                          calibration=calibration)
            assert got == (t.outcome, t.winner, t.flags), (config, seed)
            for f in seen:
                seen[f].add(getattr(t.flags, f))
            events["abort"] += bool(t.failures)
            events["split_undetected"] += (
                not t.flags.d2_findmin_converged and not t.failures)
        total += trials
    assert total >= 10_000
    # every flag, ticket ties and non-convergence included, went both ways
    assert all(v == {False, True} for v in seen.values()), seen
    assert all(events.values()), events


def test_honest_kernel_sums_past_int64_in_python_ints(monkeypatch):
    import fairgossip.engine as engine

    config = SimConfig(n=17, gamma=1.0, colors=tuple([1] * 9 + [2] * 8),
                       faulty=frozenset({4}))
    expected = list(run_honest_trials(config, range(300)))
    monkeypatch.setattr(engine, "_I64_SUM_LIMIT", 0)
    assert list(run_honest_trials(config, range(300))) == expected


def test_honest_kernel_rejects_a_coalition():
    config = SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 2),
                       coalition=CoalitionConfig(members=(1,)))
    with pytest.raises(ConfigError):
        run_honest_trials(config, range(3))


def test_calibration_band_is_injectable():
    cfg = SimConfig(n=16, gamma=2.0, colors=HALF, master_seed=1)
    assert run_trial(cfg).flags.d2_votes_theta_logn
    squeezed = run_trial(cfg, calibration=Calibration(beta1=0.2, beta2=0.5))
    assert not squeezed.flags.d2_votes_theta_logn
    starved = run_trial(cfg, calibration=Calibration(beta1=50.0, beta2=99.0))
    assert not starved.flags.d2_votes_theta_logn


def test_validate_config_rejections():
    good = SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 2))
    validate_config(good)
    bad = [
        SimConfig(n=4, gamma=1.0, colors=(1, 1, 2)),
        SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 3)),       # color > |Σ|
        SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 0)),
        SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 2), faulty=frozenset({5})),
        SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 2),
                  coalition=CoalitionConfig(members=(2, 2))),
        SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 2),
                  coalition=CoalitionConfig(members=(9,))),
        SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 2), faulty=frozenset({1}),
                  coalition=CoalitionConfig(members=(1,))),
        SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 2),
                  faulty=frozenset({1, 2}),
                  coalition=CoalitionConfig(members=(3, 4))),  # nobody honest
    ]
    for config in bad:
        with pytest.raises(ConfigError):
            validate_config(config)
    with pytest.raises(ConfigError):
        run_trial(SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 2),
                            coalition=CoalitionConfig(members=(1,),
                                                      strategy="nope")))


def test_large_coalition_warns():
    cfg = SimConfig(n=8, gamma=2.0, colors=(1, 1, 1, 1, 2, 2, 2, 2),
                    coalition=CoalitionConfig(members=(1, 2, 3, 4)))
    with pytest.warns(CoalitionRegimeWarning):
        run_trial(cfg, record=False)
    small = SimConfig(n=64, gamma=4.0, colors=HALF64,
                      coalition=CoalitionConfig(members=(1, 2, 3, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", CoalitionRegimeWarning)
        run_trial(small, record=False)


def test_agent_payoff():
    t = run_trial(cfg4(2))           # outcome 1
    assert t.agent_payoff(1) == 1.0  # color 1
    assert t.agent_payoff(3) == 0.0  # color 2
    aborted = run_trial(SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 2),
                                  chi=0.25, master_seed=3))
    assert aborted.outcome is None
    assert aborted.agent_payoff(1) == -0.25


@register
class _BadCert(DeviationStrategy):
    name = "_test_bad_cert"

    def declare_certificate(self, view, default):
        return Certificate(default.ticket, default.votes, default.color,
                           owner=(view.id % self.ctx.params.n) + 1)


@register
class _BadVote(DeviationStrategy):
    name = "_test_bad_vote"

    def choose_vote(self, view, round_index, default):
        return (self.ctx.params.modulus + 5, 1)


def test_strategy_boundary_violations_raise():
    base = dict(n=4, gamma=1.0, colors=(1, 1, 2, 2), master_seed=2)
    with pytest.raises(StrategyError):
        run_trial(SimConfig(**base,
                            coalition=CoalitionConfig(members=(2,),
                                                      strategy="_test_bad_cert")))
    with pytest.raises(StrategyError):
        run_trial(SimConfig(**base,
                            coalition=CoalitionConfig(members=(2,),
                                                      strategy="_test_bad_vote")))


def test_trace_dict_is_plain_data():
    import json
    t = run_trial(cfg4(2))
    d = trace_to_dict(t)
    line = json.dumps(d, sort_keys=True)
    assert json.loads(line) == json.loads(trace_json_line(t).replace(
        "\n", ""))
    assert d["winner"] == 2 and d["outcome"] == 1
    assert d["config"]["n"] == 4
    assert len(d["intentions"]) == 4
    assert d["stats"]["rounds"] == 8


@given(st.integers(0, 10_000), st.integers(5, 10), st.integers(0, 2))
@settings(max_examples=15, deadline=None)
def test_trial_invariants_random_configs(seed, n, n_faulty):
    colors = tuple((i % 2) + 1 for i in range(n))
    faulty = frozenset(range(2, 2 + n_faulty))
    t = run_trial(SimConfig(n=n, gamma=1.5, colors=colors, faulty=faulty,
                            master_seed=seed), record=False)
    q = t.params.phase_rounds
    assert t.stats.rounds == 4 * q
    active = set(range(1, n + 1)) - faulty
    assert set(t.tickets) == active
    assert all(0 <= k < t.params.modulus for k in t.tickets.values())
    assert t.winner is None or t.winner in active
    for u, d in t.decisions.items():
        assert d is None or 1 <= d <= 2
    if t.outcome is not None:
        honest_decisions = {t.decisions[u] for u in active}
        assert honest_decisions == {t.outcome}
