"""Simulator tests: determinism, phase mechanics, message accounting,
execution classification, and config validation."""

import re
import warnings
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairgossip import engine
from fairgossip.adversary import (
    STRATEGIES,
    DeviationStrategy,
    StrategyError,
    register,
)
from fairgossip.engine import (
    Calibration,
    CoalitionConfig,
    CoalitionRegimeWarning,
    GoodExecutionFlags,
    SimConfig,
    bit_widths,
    certificate_bits,
    run_honest_trials,
    run_trial,
    trace_json_line,
    trace_to_dict,
    validate_config,
)
from fairgossip.protocol import (
    Certificate,
    ConfigError,
    Params,
    derive_params,
    verify_certificate,
    vote_sum,
)

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


def _logged_bits(trace):
    """kind -> the set of payload sizes logged for that message kind."""
    sizes = {}
    for _, _, _, _, kind, bits in trace.messages:
        sizes.setdefault(kind, set()).add(bits)
    return sizes


def test_bit_accounting_examples():
    # n=256: agent ids are one byte
    t256 = run_trial(SimConfig(n=256, gamma=4.0, colors=(1,) * 256))
    assert _logged_bits(t256)["pull_request"] == {8}
    # n=8, two colors: an empty certificate costs 9 + 1 + 3 bits
    w8 = bit_widths(derive_params(8, 3.0))
    assert certificate_bits(Certificate(0, (), 1, 1), w8) == 13
    sizes = _logged_bits(run_trial(SimConfig(n=8, gamma=3.0,
                                             colors=(1, 2) * 4)))
    assert sizes["vote_push"] == {9}
    # q = 7 declared (value, target) pairs
    assert sizes["intention_reply"] == {7 * (9 + 3)}
    # each claimed vote costs value + sender + round index
    assert (certificate_bits(Certificate(0, ((1, 2, 1),), 1, 1), w8)
            == 13 + 9 + 3 + 3)


def test_message_bits_match_logged_sizes():
    # members that skip pulls, stay silent, pull themselves and reply with
    # certificates of their own, next to faulty targets that never answer
    built_in = [name for name, cls in STRATEGIES.items()
                if cls.__module__ == "fairgossip.adversary"]
    for faulty in (frozenset(), frozenset({3, 7})):
        for coalition in (None, *(CoalitionConfig(members=(1, 4),
                                                  strategy=name)
                                  for name in built_in)):
            t = run_trial(SimConfig(n=16, gamma=2.0, colors=HALF,
                                    faulty=faulty, coalition=coalition,
                                    master_seed=4))
            assert t.stats.messages == len(t.messages)
            assert t.stats.bits == sum(m[5] for m in t.messages)
            by_phase = {p: (c, b) for p, c, b in t.stats.by_phase}
            for phase in by_phase:
                msgs = [m for m in t.messages if m[0] == phase]
                assert by_phase[phase] == (len(msgs),
                                           sum(m[5] for m in msgs))


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
    """(config, calibration, trials): ticket ties at n <= 5, tied smallest
    tickets at n=5, gamma=30, redrawn draw_agents rows at n=100, three
    colours, explicit and random:K faults, and gammas low enough that
    find-min often fails to converge."""
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
        # modulus 125 and 49-vote tallies: tied smallest tickets
        (SimConfig(n=5, gamma=30.0, colors=alt(5)), default, 400),
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
        config = replace(config, calibration=calibration)
        fast = list(run_honest_trials(config, range(trials)))
        if config.n == 100:
            events["n100_redraw"] += len(redrawn)
        for seed, got in enumerate(fast):
            t = run_trial(replace(config, master_seed=seed), record=False)
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


def test_honest_cases_include_tied_minima():
    # the kernel's find-min stops once every active agent holds the
    # smallest ticket; two agents drawing it is the case to hold it to
    (config, _, trials), = [case for case in _honest_cases()
                            if case[0].gamma == 30.0]
    tied = 0
    for seed in range(trials):
        tickets = run_trial(replace(config, master_seed=seed),
                            record=False).tickets
        tied += list(tickets.values()).count(min(tickets.values())) > 1
    assert tied > 0


def test_honest_kernel_takes_seeds_lazily_in_chunks():
    # more seeds than one chunk holds, with one- to three-word seeds mixed
    # inside each chunk; the kernel pulls a chunk's seeds only when it
    # needs them
    from dataclasses import replace

    import fairgossip.engine as engine

    config = SimConfig(n=17, gamma=1.5, colors=tuple(i % 2 + 1
                                                     for i in range(17)),
                       faulty=frozenset({3}))
    q = derive_params(17, 1.5).phase_rounds
    per_chunk = engine._CHUNK_WORDS // (17 * 5 * q)
    seeds = [s if s % 3 == 0 else s + 2**32 if s % 3 == 1 else s + 2**70
             for s in range(per_chunk * 2 + 50)]
    pulled = []

    def feed():
        for seed in seeds:
            pulled.append(seed)
            yield seed

    results = run_honest_trials(config, feed())
    assert not pulled
    first = next(results)
    assert len(pulled) == per_chunk
    got = [first, *results]
    assert len(got) == len(seeds) == len(pulled)
    for seed, result in zip(seeds, got):
        t = run_trial(replace(config, master_seed=seed), record=False)
        assert result == (t.outcome, t.winner, t.flags), seed


def test_honest_kernel_sums_past_int64_in_python_ints(monkeypatch):
    import fairgossip.engine as engine

    config = SimConfig(n=17, gamma=1.0, colors=tuple([1] * 9 + [2] * 8),
                       faulty=frozenset({4}))

    def coalition_traces():
        # run_trial's tallies go through the same sum
        return [trace_json_line(run_trial(replace(
                    config, master_seed=seed,
                    coalition=CoalitionConfig(members=(9, 1),
                                              strategy=strategy))))
                for strategy in ("k_underbid", "commitment_mismatch")
                for seed in range(20)]

    expected = list(run_honest_trials(config, range(300)))
    traces = coalition_traces()
    monkeypatch.setattr(engine, "_I64_SUM_LIMIT", 0)
    assert list(run_honest_trials(config, range(300))) == expected
    assert coalition_traces() == traces


def test_honest_kernel_rejects_a_coalition():
    config = SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 2),
                       coalition=CoalitionConfig(members=(1,)))
    with pytest.raises(ConfigError):
        run_honest_trials(config, range(3))


def test_calibration_band_is_injectable():
    from fairgossip.analysis import (
        iter_trials,
        run_claims_experiment,
        run_equilibrium_experiment,
    )

    cfg = SimConfig(n=16, gamma=2.0, colors=HALF, master_seed=1)
    assert run_trial(cfg).flags.d2_votes_theta_logn
    squeezed = run_trial(replace(cfg, calibration=Calibration(beta1=0.2,
                                                              beta2=0.5)))
    assert not squeezed.flags.d2_votes_theta_logn
    starved = Calibration(beta1=50.0, beta2=99.0)
    assert not run_trial(replace(cfg, calibration=starved)
                         ).flags.d2_votes_theta_logn
    # every entry point classifies under its config's calibration: a band
    # no tally reaches leaves no good trial, no kept pair, nothing to audit
    for calibration, good in ((Calibration(), True), (starved, False)):
        plain = replace(cfg, calibration=calibration)
        coalition = replace(plain, coalition=CoalitionConfig(members=(5,)))
        flags = [f for _, _, f in run_honest_trials(plain, range(20))]
        flags += [t.flags for t in iter_trials(coalition, range(20))]
        assert any(f.d2_good for f in flags) == good
        kept = run_equilibrium_experiment(coalition, 20).kept_pairs
        assert (kept > 0) == good
        eligible = run_claims_experiment(coalition, 20).eligible
        assert (eligible > 0) == good


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
        SimConfig(n=4, gamma=1.0, colors=(True, 1, 2, 2)),     # bools
        SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 2), faulty=frozenset({True})),
        SimConfig(n=4, gamma=1.0, colors=(1, 1, 2, 2),
                  coalition=CoalitionConfig(members=(True,))),
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


@register
class _BadHook(DeviationStrategy):
    """Answers the hook named by option ``hook`` with option ``value``."""

    name = "_test_bad_hook"
    option_keys = frozenset({"hook", "value"})

    def __init__(self, ctx):
        super().__init__(ctx)
        setattr(self, ctx.options["hook"], lambda *_: ctx.options["value"])


# (strategy, options, message after "member 2: ") for each wire check
BOUNDARY_CASES = [
    ("_test_bad_cert", {}, "declared certificate owned by 3"),
    ("_test_bad_vote", {}, "bad vote (69, 1)"),
    *(("_test_bad_hook", {"hook": hook, "value": value}, message)
      for hook, value, message in [
          ("choose_intention", "junk", "invalid intention 'junk'"),
          ("choose_commit_target", 0, "bad pull target 0"),
          ("choose_findmin_target", 5, "bad pull target 5"),
          ("declare_certificate", "junk", "not a certificate"),
          ("findmin_reply", "junk", "not a certificate"),
          ("coherence_push", "junk", "not a certificate"),
          ("final_decision", 3, "bad decision 3"),
          # a bool is an int to isinstance, but no wire field carries one
          ("choose_intention", ((True, 1), (1, 1)),
           "invalid intention ((True, 1), (1, 1))"),
          ("choose_commit_target", True, "bad pull target True"),
          ("choose_vote", (True, 1), "bad vote (True, 1)"),
          ("choose_vote", (1, True), "bad vote (1, True)"),
          ("choose_findmin_target", True, "bad pull target True"),
          ("declare_certificate", Certificate(0, (), True, 2),
           "color out of range"),
          ("findmin_reply", Certificate(False, (), 1, 2),
           "ticket out of range"),
          ("coherence_push", Certificate(0, ((1, True, 1),), 1, 2),
           "vote sender out of range"),
          ("final_decision", True, "bad decision True"),
          # checked before any per-agent list is indexed by the target
          ("choose_commit_target", -1, "bad pull target -1"),
          ("choose_findmin_target", -1, "bad pull target -1"),
      ]),
    # a declared certificate that is not the default is checked vote by vote
    *(("_test_bad_hook", {"hook": "declare_certificate",
                          "value": Certificate(0, votes, 1, 2)}, message)
      for votes, message in [
          (((65, 1, 1),), "vote value out of range"),
          (((1, 0, 1),), "vote sender out of range"),
          (((1, True, 1),), "vote sender out of range"),
          (((1, 3, 1), (1, 3, 1)), "duplicate (sender, round) vote"),
      ]),
]


def test_strategy_boundary_violations_raise():
    base = dict(n=4, gamma=1.0, colors=(1, 1, 2, 2), master_seed=2)
    for strategy, options, message in BOUNDARY_CASES:
        coalition = CoalitionConfig(members=(2,), strategy=strategy,
                                    options=options)
        with pytest.raises(StrategyError,
                           match=rf"^member 2: {re.escape(message)}$"):
            run_trial(SimConfig(**base, coalition=coalition))


@register
class _CurrentViews(DeviationStrategy):
    """Honest, but fails unless the engine kept ``view.ce_min`` current."""

    name = "_test_current_views"

    def findmin_reply(self, view, requester, round_index, default):
        assert view.ce_min is default
        return default

    def coherence_push(self, view, round_index, target, default):
        assert default is None or view.ce_min is default
        return default


@pytest.mark.parametrize("faulty", [frozenset(), frozenset({2, 7, 12})])
def test_member_views_hold_the_current_certificate(faulty):
    config = SimConfig(n=16, gamma=2.0, colors=HALF, faulty=faulty,
                       coalition=CoalitionConfig(
                           members=(1, 4), strategy="_test_current_views"))
    for seed in range(30):
        run_trial(replace(config, master_seed=seed), record=False)


@register
class _SavedLedgers(DeviationStrategy):
    """Honest, but saves each member's ``view.ledger`` as it commits and
    as it decides, in ``saved``."""

    name = "_test_saved_ledgers"
    saved: dict = {}

    def choose_commit_target(self, view, round_index, default):
        self.saved[view.id, "commit"] = view.ledger
        return default

    def final_decision(self, view, default):
        self.saved[view.id, "decide"] = view.ledger
        return default


@pytest.mark.parametrize("faulty", [frozenset(), frozenset({2, 7, 12})])
def test_member_views_hold_their_live_ledgers(faulty):
    config = SimConfig(n=16, gamma=2.0, colors=HALF, faulty=faulty,
                       coalition=CoalitionConfig(
                           members=(1, 4), strategy="_test_saved_ledgers"))
    saved = _SavedLedgers.saved
    for seed in range(30):
        saved.clear()
        t = run_trial(replace(config, master_seed=seed), record=False)
        for b in (1, 4):
            ledger = saved[b, "decide"]
            assert ledger is saved[b, "commit"] and ledger  # it pulled
            res = verify_certificate(t.cert_min[b], ledger, t.params)
            accepted = res.color if res.accepted else None
            assert t.decisions[b] == (None if b in t.failures else accepted)
            marks = sorted(v for v, d in ledger.items() if d is None)
            assert tuple(marks) == t.faulty_marks[b]
            assert set(marks) >= faulty & ledger.keys()


# every built-in strategy, with its options, as a subclass that saves each
# member's view.ledger in ``saved`` when it decides
SAVING: list = []
for _i, (_base, _options) in enumerate([
        ("honest", {}), ("k_underbid", {}), ("commitment_mismatch", {}),
        ("commitment_mismatch", {"equivocate": True}), ("fake_faulty", {}),
        ("coherence_silence", {})]):
    @register
    class _Saving(STRATEGIES[_base]):
        name = f"_test_saving_{_i}"
        saved: dict = {}

        def final_decision(self, view, default):
            self.saved[view.id] = view.ledger
            return super().final_decision(view, default)

    SAVING.append((_Saving, _options))


@pytest.mark.parametrize("faulty", [frozenset(), frozenset({2, 7, 12})])
def test_member_verdicts_follow_verify_certificate(faulty):
    # a member decides by the same audit as an honest agent; under every
    # built-in strategy that verdict is verify_certificate's over its ledger
    for cls, options in SAVING:
        config = SimConfig(n=16, gamma=2.0, colors=HALF, faulty=faulty,
                           coalition=CoalitionConfig(
                               members=(1, 4, 9), strategy=cls.name,
                               options=options))
        for seed in range(40):
            cls.saved.clear()
            t = run_trial(replace(config, master_seed=seed), record=False)
            for b in (1, 4, 9):
                res = verify_certificate(t.cert_min[b], cls.saved[b],
                                         t.params)
                accepted = res.color if res.accepted else None
                assert t.decisions[b] == (None if b in t.failures
                                          else accepted), (cls.name, seed, b)


@register
class _LedgerWrite(DeviationStrategy):
    """Tries to file a no-reply mark for its first pull target itself."""

    name = "_test_ledger_write"

    def choose_commit_target(self, view, round_index, default):
        view.ledger[default] = None
        return default


def test_member_ledger_is_read_only():
    config = SimConfig(n=16, gamma=2.0, colors=HALF,
                       coalition=CoalitionConfig(
                           members=(1, 4), strategy="_test_ledger_write"))
    with pytest.raises(TypeError):
        run_trial(config, record=False)


@register
class _Copies(DeviationStrategy):
    """Honest, but every default comes back as an equal, distinct copy."""

    name = "_test_copies"

    def choose_intention(self, view, default):
        return tuple(list(default))

    def reply_to_pull(self, view, requester, round_index, default):
        return tuple(list(default))

    def choose_vote(self, view, round_index, default):
        return tuple(list(default))

    def declare_certificate(self, view, default):
        return replace(default)

    def findmin_reply(self, view, requester, round_index, default):
        return replace(default)

    def coherence_push(self, view, round_index, target, default):
        return None if default is None else replace(default)


@pytest.fixture
def wire_checks(monkeypatch):
    """Counts run_trial's calls of its member certificate, reply,
    intention and vote checks."""
    calls = Counter()
    for name in ("certificate_flaw", "record_commitment", "valid_intention",
                 "valid_vote"):
        def counted(*args, _check=getattr(engine, name), _name=name):
            calls[_name] += 1
            return _check(*args)
        monkeypatch.setattr(engine, name, counted)
    return calls


def test_default_hook_results_are_not_rechecked(wire_checks):
    config = SimConfig(n=64, gamma=4.0, colors=HALF64,
                       coalition=CoalitionConfig(members=(1, 2, 33, 34)))
    # an honest member casts the intention and votes the engine drew for
    # it, declares the certificate the engine built over its tally and
    # serves it as its default, and its pull answers are its chosen
    # intention: nothing it sends is checked
    for seed in range(3):
        run_trial(replace(config, master_seed=seed), record=False)
    assert wire_checks == {}
    # a doctored declaration is checked once, when it is declared; its
    # owner serves it from then on as its default
    run_trial(replace(config, coalition=replace(config.coalition,
                                                strategy="k_underbid")),
              record=False)
    assert wire_checks == {"certificate_flaw": 4}


def test_kept_commitment_replies_are_checked_once(wire_checks):
    # commitment_mismatch answers every pull with one cached fake per
    # member, which is checked when it is first filed; its certificates
    # are the engine's defaults
    config = SimConfig(n=64, gamma=4.0, colors=HALF64,
                       coalition=CoalitionConfig(members=(1, 2, 33, 34),
                                                 strategy="commitment_mismatch"))
    for seed in range(4):
        run_trial(replace(config, master_seed=seed), record=False)
        assert wire_checks == {"record_commitment": 4}
        wire_checks.clear()


class _Pair(tuple):
    pass


@register
class _Replies(DeviationStrategy):
    """Honest, but answers pulls with option ``kind``: a fresh equal tuple
    each time ("copies"), or one cached tuple per member whose pairs are
    lists ("lists") or a tuple subclass ("subclass"). ``answers`` counts
    the answers."""

    name = "_test_replies"
    option_keys = frozenset({"kind"})
    answers = Counter()

    def __init__(self, ctx):
        super().__init__(ctx)
        self._cached = {}

    def reply_to_pull(self, view, requester, round_index, default):
        self.answers["reply_to_pull"] += 1
        kind = self.ctx.options["kind"]
        if kind == "copies":
            return tuple(list(default))
        pair = list if kind == "lists" else _Pair
        if view.id not in self._cached:
            self._cached[view.id] = tuple(pair(p) for p in default)
        return self._cached[view.id]


@pytest.mark.parametrize("kind", ["copies", "lists", "subclass"])
def test_unkept_commitment_replies_are_checked_every_time(wire_checks, kind):
    honest = SimConfig(n=16, gamma=2.0, colors=HALF,
                       coalition=CoalitionConfig(members=(1, 4)))
    replies = replace(honest, coalition=replace(
        honest.coalition, strategy="_test_replies", options={"kind": kind}))
    for seed in range(6):
        expected = trace_json_line(run_trial(replace(honest,
                                                     master_seed=seed)))
        wire_checks.clear()
        _Replies.answers.clear()
        trace = run_trial(replace(replies, master_seed=seed))
        assert wire_checks["record_commitment"] == \
            _Replies.answers["reply_to_pull"] > 2
        trace.config = replace(honest, master_seed=seed)
        assert trace_json_line(trace) == expected


@pytest.mark.parametrize("faulty", [frozenset(), frozenset({2, 7, 12})])
def test_copied_defaults_are_checked_and_change_nothing(wire_checks, faulty):
    honest = SimConfig(n=16, gamma=2.0, colors=HALF, faulty=faulty,
                       coalition=CoalitionConfig(members=(1, 4)))
    copies = replace(honest, coalition=replace(honest.coalition,
                                               strategy="_test_copies"))
    for seed in range(12):
        expected = trace_json_line(run_trial(replace(honest,
                                                     master_seed=seed)))
        assert wire_checks == {}
        trace = run_trial(replace(copies, master_seed=seed))
        assert wire_checks["certificate_flaw"] > 2
        assert wire_checks["record_commitment"] > 0
        assert wire_checks["valid_intention"] == 2      # one per member
        assert wire_checks["valid_vote"] > 2
        wire_checks.clear()
        trace.config = replace(honest, master_seed=seed)
        assert trace_json_line(trace) == expected


@register
class _HookLog(DeviationStrategy):
    """Logs every hook call in ``log`` and draws a number from ``ctx.rng``
    on each. An entry holds the hook, the member, the round, the requester
    or target, whether the default is the member's own object (its chosen
    intention, or its current certificate), the draw, and the certificates
    involved as (number, owner, ticket), numbered by identity in the order
    first seen. The draw also picks a deviation now and then: a withheld or
    retargeted vote, a skipped find-min pull, an equal copy or a forged
    variant of the certificate it sends."""

    name = "_test_hook_log"
    log = []

    def __init__(self, ctx):
        super().__init__(ctx)
        self._seen = []      # certificate objects, in the order first seen

    def _cert(self, cert):
        if cert is None:
            return None
        for number, seen in enumerate(self._seen):
            if seen is cert:
                break
        else:
            number = len(self._seen)
            self._seen.append(cert)
        return number, cert.owner, cert.ticket

    def _note(self, hook, view, *where, own=None, default=None):
        draw = int(self.ctx.rng.integers(1 << 20))
        self.log.append((hook, view.id, where, own, draw,
                         self._cert(view.ce_min),
                         self._cert(default) if isinstance(
                             default, Certificate) else default))
        return draw

    def _forge(self, cert):
        # the last vote rewritten so the ticket is 0, owner and colour kept
        if not cert.votes:
            return cert
        m = self.ctx.params.modulus
        votes = list(cert.votes)
        value, sender, rnd = votes[-1]
        votes[-1] = ((value - cert.ticket) % m or m, sender, rnd)
        return Certificate(vote_sum(votes, m), tuple(votes), cert.color,
                           cert.owner)

    def _send(self, draw, default):
        if default is None or draw % 7 > 1:
            return default
        return replace(default) if draw % 7 else self._forge(default)

    def choose_intention(self, view, default):
        self._note("choose_intention", view, default=default)
        return default

    def choose_commit_target(self, view, round_index, default):
        self._note("choose_commit_target", view, round_index, default)
        return default

    def reply_to_pull(self, view, requester, round_index, default):
        self._note("reply_to_pull", view, round_index, requester,
                   own=default is view.chosen_intention)
        return default

    def choose_vote(self, view, round_index, default):
        own = default is view.chosen_intention[round_index - 1]
        draw = self._note("choose_vote", view, round_index, default, own=own)
        if draw % 11 == 0:
            return None
        if draw % 11 == 1:
            return default[0], draw % self.ctx.params.n + 1
        return default

    def declare_certificate(self, view, default):
        self._note("declare_certificate", view, default=default)
        return default

    def choose_findmin_target(self, view, round_index, default):
        draw = self._note("choose_findmin_target", view, round_index, default)
        return None if draw % 9 == 0 else default

    def findmin_reply(self, view, requester, round_index, default):
        draw = self._note("findmin_reply", view, round_index, requester,
                          own=default is view.ce_min, default=default)
        return self._send(draw, default)

    def coherence_push(self, view, round_index, target, default):
        draw = self._note("coherence_push", view, round_index, target,
                          own=default is view.ce_min, default=default)
        return self._send(draw, default)

    def final_decision(self, view, default):
        self._note("final_decision", view, default=default)
        return default


#: sha256 of the hook logs and traces of every ``_hook_log_cases`` trial
HOOK_LOG_SHA256 = (
    "9f2a5dd459d88c4fd417f45927955c593f82fd1835fac95f7283e2069a7a97ea")


def _hook_log_cases():
    for n in (5, 17, 64):
        colors = tuple(u % 2 + 1 for u in range(n))
        for members in ((1, 4), (5, 3), (34, 1, 33, 2)):
            if max(members) > n:
                continue
            faults = frozenset(u for u in range(1, n + 1)
                               if u % 4 == 2 and u not in members)
            for faulty in (frozenset(), faults):
                for seed in range(6):
                    config = SimConfig(
                        n=n, gamma=1.5, colors=colors, faulty=faulty,
                        coalition=CoalitionConfig(members=members,
                                                  strategy="_test_hook_log"),
                        master_seed=seed)
                    for record in (True, False):
                        yield config, record


def test_hook_calls_follow_the_frozen_sequence():
    # which hook runs when, with which defaults and which certificate
    # objects, across unsorted member tuples, faults and both record modes
    import hashlib

    h = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for config, record in _hook_log_cases():
            _HookLog.log.clear()
            line = trace_json_line(run_trial(config, record=record))
            h.update(repr(_HookLog.log).encode())
            h.update(line.encode())
    assert h.hexdigest() == HOOK_LOG_SHA256


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


def test_given_draws_replay_the_trial():
    from fairgossip.protocol import draw_agents

    config = SimConfig(n=17, gamma=1.5, colors=tuple(i % 2 + 1
                                                     for i in range(17)),
                       faulty=frozenset({6}), master_seed=2**32 + 3,
                       coalition=CoalitionConfig(members=(2, 9),
                                                 strategy="k_underbid"))
    drawn = draw_agents(config.master_seed, validate_config(config))
    assert (trace_json_line(run_trial(config, draws=drawn))
            == trace_json_line(run_trial(config)))


@st.composite
def _audit_cases(draw):
    """A certificate and honest verifiers' ledgers as run_trial can build
    them: an honest sender's entry is its intention, a faulty one's a None
    mark, and a member's whatever it answered that verifier (None, its
    intention, or another list), each entry possibly missing."""
    n = draw(st.integers(2, 7))
    q = draw(st.integers(1, 3))
    m = n ** 3
    roles = draw(st.lists(st.sampled_from("hfm"), min_size=n, max_size=n))
    plain = [False] + [r == "h" for r in roles]
    members = frozenset(u for u, r in enumerate(roles, 1) if r == "m")
    owner = draw(st.integers(1, n))
    pair = st.tuples(st.integers(1, m), st.integers(1, n))
    intentions = [None] + [list(draw(st.lists(pair, min_size=q, max_size=q)))
                           for _ in range(n)]
    votes = []
    for sender in range(1, n + 1):
        for rnd in range(1, q + 1):
            kind = draw(st.sampled_from(["none", "true", "other", "zero"]))
            if kind == "none":
                continue
            if kind == "true":      # as declared: sent to the owner
                intentions[sender][rnd - 1] = (
                    intentions[sender][rnd - 1][0], owner)
                value = intentions[sender][rnd - 1][0]
            else:
                value = 0 if kind == "zero" else draw(st.integers(0, m))
            votes.append((value, sender, rnd))
    intentions = [None] + [tuple(i) for i in intentions[1:]]
    ticket = vote_sum(votes, m)
    if draw(st.booleans()) and draw(st.booleans()):
        ticket = (ticket + 1) % m
    cert = Certificate(ticket, tuple(votes), 1, owner)
    ledgers = []
    for _ in range(draw(st.integers(1, 4))):
        ledger = {}
        for s in range(1, n + 1):
            if not draw(st.booleans()):
                continue            # never pulled: unseen
            if plain[s]:
                ledger[s] = intentions[s]
            elif s not in members:
                ledger[s] = None
            else:
                ledger[s] = draw(st.one_of(
                    st.none(), st.just(intentions[s]),
                    st.lists(pair, min_size=q, max_size=q).map(tuple)))
        ledgers.append(ledger)
    params = Params(n=n, num_colors=2, modulus=m, phase_rounds=q)
    return params, cert, intentions, plain, members, ledgers


@given(_audit_cases())
@settings(max_examples=400, deadline=None)
def test_certificate_audit_agrees_with_verify_certificate(case):
    params, cert, intentions, plain, members, ledgers = case
    audit = engine._audit(cert, params.modulus, intentions, plain, members)
    for ledger in ledgers:
        reason = verify_certificate(cert, ledger, params).reason
        assert engine._rejection(audit, ledger, ()) == reason
        # as run_trial holds a plain verifier's ledger: its plain entries
        # as the agents it pulled, the rest as a dict
        pulled = [s for s in ledger if plain[s]]
        rest = {s: entry for s, entry in ledger.items() if not plain[s]}
        assert engine._rejection(audit, rest, pulled) == reason


@register
class _FaultyVote(DeviationStrategy):
    """Honest, but declares its certificate with one more vote, value
    ``m - ticket`` (or m), from faulty agent ``faulty`` in round 1: the
    checksum holds and the ticket is 0."""

    name = "_test_faulty_vote"
    option_keys = frozenset({"faulty"})

    def declare_certificate(self, view, default):
        m = self.ctx.params.modulus
        votes = tuple(sorted(default.votes + (
            (m - default.ticket, self.ctx.options["faulty"], 1),),
            key=lambda v: (v[1], v[2])))
        return Certificate(vote_sum(votes, m), votes, default.color, view.id)


def test_faulty_vote_in_a_declared_certificate_is_rejected_by_markers():
    # no built-in strategy sends a non-zero vote from a faulty agent: every
    # honest agent that marked that agent rejects, the others accept
    config = SimConfig(n=16, gamma=2.0, colors=HALF, faulty=frozenset({7}),
                       coalition=CoalitionConfig(
                           members=(3,), strategy="_test_faulty_vote",
                           options={"faulty": 7}))
    markers = accepters = 0
    for seed in range(5):
        t = run_trial(replace(config, master_seed=seed))
        declared = t.cert_min[3]
        assert declared.ticket == 0
        assert any(s == 7 and v > 0 for v, s, _ in declared.votes)
        for u, cert in t.cert_min.items():
            if u == 3 or u in t.failures or cert != declared:
                continue
            marked = 7 in t.faulty_marks[u]
            assert t.decisions[u] == (None if marked else 1)
            markers += marked
            accepters += not marked
    assert markers and accepters
