"""Monte Carlo experiment harness and oracles.

Everything here is a pure function of traces (plus fresh trials drawn from
a config): fairness statistics, the legitimate-winner reconstruction with
its E_C / E'_C events, coupled equilibrium comparisons, per-trace claims
audits, and the scaling table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from statistics import fmean, stdev
from typing import Iterable, Iterator, NamedTuple, Optional

from .engine import (
    DEFAULT_CALIBRATION,
    Calibration,
    SimConfig,
    Trace,
    draw_chunks,
    fields_dict,
    run_honest_trials,
    run_trial,
    validate_config,
)
from .protocol import ConfigError, payoff


def _coalition_of(config: SimConfig) -> frozenset[int]:
    c = config.coalition
    return frozenset(c.members) if c is not None else frozenset()


def iter_trials(config: SimConfig, seeds: Iterable[int],
                record: bool = False) -> Iterator[Trace]:
    """The trace of `config` at each master seed in `seeds`, in order.
    Seeds are taken a chunk at a time, and each chunk's agent draws come
    from one `draw_batch` (`engine.draw_chunks`)."""
    params = validate_config(config)
    for chunk, values, targets in draw_chunks(iter(seeds), params):
        for seed, drawn in zip(chunk, zip(values, targets)):
            yield run_trial(replace(config, master_seed=seed), record=record,
                            draws=drawn)


# --- legitimate winner ------------------------------------------------------

@dataclass(frozen=True, slots=True)
class LegitimateWinnerRecord:
    """Who should have won given first-declared votes, vs. who did.

    ``k_star`` maps every active agent u to k*_u, the checksum of the votes
    declared for u (honest declarations are their real intentions; a
    member's declaration is its first reply to an honest non-member, or
    nothing at all). ``e_c`` / ``e_c_prime`` record whether the legitimate
    winner / the actual winner fell inside the coalition.
    """

    k_star: dict[int, int]
    legitimate_winner: int
    winner: Optional[int]
    e_c: bool
    e_c_prime: bool


def legitimate_winner(trace: Trace) -> LegitimateWinnerRecord:
    """Reconstruct the legitimate winner from a finished trace.

    a = argmin of actual tickets over honest non-members, b = argmin of
    k* over members; the legitimate winner is a iff k_a < k*_b (ties and
    everything else go to b).
    """
    config = trace.config
    coalition = _coalition_of(config)
    m = trace.params.modulus
    active = [u for u in range(1, config.n + 1) if u not in config.faulty]

    k_star = {u: 0 for u in active}
    for v in active:
        if v in coalition:
            pairs = trace.first_declarations.get(v)
        else:
            pairs = trace.intentions[v]
        if pairs is None:
            continue
        for value, target in pairs:
            if target in k_star:
                k_star[target] = (k_star[target] + value) % m

    a = min((u for u in active if u not in coalition),
            key=lambda u: (trace.tickets[u], u))
    if coalition:
        b = min(coalition, key=lambda u: (k_star[u], u))
        lw = a if trace.tickets[a] < k_star[b] else b
    else:
        lw = a
    return LegitimateWinnerRecord(
        k_star=k_star,
        legitimate_winner=lw,
        winner=trace.winner,
        e_c=lw in coalition,
        e_c_prime=trace.winner is not None and trace.winner in coalition,
    )


# --- fairness ---------------------------------------------------------------

@dataclass(slots=True)
class FairnessReport:
    """Win statistics over independent trials of one configuration."""

    config: SimConfig
    trials: int
    fail_count: int
    wins_by_color: dict[int, int]
    per_agent_wins: dict[int, int]
    active_share: dict[int, float]    # p_c over active agents only

    @property
    def t_success(self) -> int:
        return self.trials - self.fail_count

    def frequency(self, color: int) -> float:
        if self.t_success == 0:
            return 0.0
        return self.wins_by_color[color] / self.t_success

    def z_score(self, color: int) -> Optional[float]:
        """None when no trial decided: there is no frequency to test."""
        if self.t_success == 0:
            return None
        p = self.active_share[color]
        se = math.sqrt(p * (1 - p) / self.t_success)
        dev = self.frequency(color) - p
        if se == 0.0:
            return 0.0 if dev == 0.0 else math.copysign(math.inf, dev)
        return dev / se

    def per_color_rows(self) -> list[dict]:
        return [{"color": c,
                 "active_share": self.active_share[c],
                 "wins": self.wins_by_color[c],
                 "frequency": self.frequency(c),
                 "z": self.z_score(c)}
                for c in sorted(self.wins_by_color)]

    def merge(self, other: "FairnessReport") -> None:
        """Fold in another part's counts (same config and shares required);
        a part with no trials adds nothing."""
        if (other.config, other.active_share) != (self.config,
                                                  self.active_share):
            raise ConfigError("fairness reports built from mixed configs")
        self.trials += other.trials
        self.fail_count += other.fail_count
        for c, w in other.wins_by_color.items():
            self.wins_by_color[c] += w
        for u, w in other.per_agent_wins.items():
            self.per_agent_wins[u] += w


def run_fairness_experiment(config: SimConfig, trials: int, seed0: int = 0,
                            ) -> FairnessReport:
    """Run `trials` independent trials at seeds seed0..seed0+trials-1.
    A coalition-free config runs on `run_honest_trials`, which reports
    what `run_trial` would."""
    validate_config(config)
    active = [u for u in range(1, config.n + 1) if u not in config.faulty]
    share = {c: sum(config.colors[u - 1] == c for u in active) / len(active)
             for c in range(1, config.num_colors + 1)}
    wins = {c: 0 for c in range(1, config.num_colors + 1)}
    agent_wins = {u: 0 for u in active}
    fails = 0
    seeds = range(seed0, seed0 + trials)
    if config.coalition is None:
        results = run_honest_trials(config, seeds)
    else:
        results = ((t.outcome, t.winner, t.flags)
                   for t in iter_trials(config, seeds))
    for outcome, winner, _ in results:
        if outcome is None:
            fails += 1
        else:
            wins[outcome] += 1
            if winner is not None:
                agent_wins[winner] += 1
    return FairnessReport(config=config, trials=trials, fail_count=fails,
                          wins_by_color=wins, per_agent_wins=agent_wins,
                          active_share=share)


class FairnessVerdict(NamedTuple):
    passed: Optional[bool]        # None when no trial succeeded
    per_color: dict[int, bool]
    fail_rate: float
    fail_rate_ok: bool


def fairness_test(report: FairnessReport, sigma_mult: float = 4.0,
                  max_fail_rate: float = 0.01) -> FairnessVerdict:
    """Each color's win frequency must sit within sigma_mult binomial
    standard errors of its active share, and aborts must stay rare."""
    fail_rate = report.fail_count / report.trials if report.trials else 0.0
    rate_ok = fail_rate <= max_fail_rate
    if report.t_success == 0:
        return FairnessVerdict(None, {}, fail_rate, rate_ok)
    per_color = {}
    for c, p in report.active_share.items():
        se = math.sqrt(p * (1 - p) / report.t_success)
        per_color[c] = abs(report.frequency(c) - p) <= sigma_mult * se
    return FairnessVerdict(all(per_color.values()) and rate_ok,
                           per_color, fail_rate, rate_ok)


class UniformityVerdict(NamedTuple):
    passed: bool
    worst_offset: float           # max |frequency - 1/|A||
    bound: float


def winner_uniformity_test(report: FairnessReport,
                           sigma_mult: float = 4.0) -> UniformityVerdict:
    """Every active agent should win equally often."""
    n_active = len(report.per_agent_wins)
    p = 1.0 / n_active
    ts = report.t_success
    if ts == 0:
        return UniformityVerdict(False, math.inf, 0.0)
    worst = max(abs(w / ts - p) for w in report.per_agent_wins.values())
    bound = sigma_mult * math.sqrt(p * (1 - p) / ts)
    return UniformityVerdict(worst <= bound, worst, bound)


# --- equilibrium ------------------------------------------------------------

class MemberStat(NamedTuple):
    """A member's mean utilities over the kept pairs: None with no kept
    pair, and ``ci_half_width`` None below 2 kept pairs."""

    member: int
    baseline_mean: Optional[float]
    deviation_mean: Optional[float]
    difference: Optional[float]   # deviation - baseline, paired
    ci_half_width: Optional[float]


@dataclass(slots=True)
class EquilibriumReport:
    """Coupled honest-vs-deviation comparison at identical seeds."""

    strategy: str
    members: tuple[int, ...]
    trials: int
    kept_pairs: int               # both arms classified good
    dropped_pairs: int
    baseline_fail_rate: float
    deviation_fail_rate: float
    baseline_good_rate: float
    deviation_good_rate: float
    per_member: tuple[MemberStat, ...]

    @property
    def verdict(self) -> Optional[bool]:
        """True iff some member gained nothing (no-gain within CI); None
        (indeterminate) below 2 kept pairs, which give no CI."""
        if self.kept_pairs < 2:
            return None
        return any(s.difference <= s.ci_half_width for s in self.per_member)

    def to_dict(self) -> dict:
        return {**fields_dict(self),
                "per_member": [s._asdict() for s in self.per_member],
                "verdict_no_gain": self.verdict}


@dataclass(slots=True)
class BaselineCache:
    """Memo for the honest arm, reusable across strategies at one config.

    A baseline trial depends only on the coalition-free config and the
    seed, so different deviation experiments over the same population can
    share it, whatever their ``master_seed`` (the seeds come from the
    experiment's range). Keyed defensively: reusing the cache with a
    different base config is a configuration error.
    """

    key: Optional[SimConfig] = None
    entries: dict[int, tuple[Optional[int], bool]] = field(
        default_factory=dict)


def run_equilibrium_experiment(config: SimConfig, trials: int, seed0: int = 0,
                               *, sigma_mult: float = 4.0,
                               cache: Optional[BaselineCache] = None,
                               auditor: Optional["ClaimsAuditor"] = None,
                               ) -> EquilibriumReport:
    """Run coupled trial pairs and test whether deviating paid off.

    Both arms replay the same seeds; a pair counts only when both arms
    classify good (baseline by the fault-free flags, deviation by the
    coalition flags). Deviation traces stream into `auditor` when given.
    """
    if config.coalition is None or not config.coalition.members:
        raise ConfigError("equilibrium experiment needs a coalition")
    validate_config(config)
    members = config.coalition.members
    base_config = replace(config, coalition=None)
    if cache is not None:
        cache_key = replace(base_config, master_seed=0)
        if cache.key is None:
            cache.key = cache_key
        elif cache.key != cache_key:
            raise ConfigError("baseline cache built for a different config")

    seeds = range(seed0, seed0 + trials)
    baselines = cache.entries if cache is not None else {}
    missing = [seed for seed in seeds if seed not in baselines]
    for seed, bt in zip(missing, iter_trials(base_config, missing)):
        baselines[seed] = (bt.outcome, bt.flags.d2_good)

    base_fail = dev_fail = base_good = dev_good = 0
    base_util: dict[int, list[float]] = {w: [] for w in members}
    diffs: dict[int, list[float]] = {w: [] for w in members}
    for seed, dt in zip(seeds, iter_trials(config, seeds)):
        base_outcome, base_ok = baselines[seed]
        if auditor is not None:
            auditor.add(dt)
        dev_ok = dt.flags.d3_good
        base_fail += base_outcome is None
        dev_fail += dt.outcome is None
        base_good += base_ok
        dev_good += dev_ok
        if base_ok and dev_ok:
            for w in members:
                bu = payoff(base_outcome, config.colors[w - 1], config.chi)
                base_util[w].append(bu)
                diffs[w].append(dt.agent_payoff(w) - bu)

    kept = len(diffs[members[0]])
    per_member = []
    for w in members:
        if not kept:
            per_member.append(MemberStat(w, None, None, None, None))
            continue
        bmean = fmean(base_util[w])
        dmean = fmean(diffs[w])
        ci = (sigma_mult * stdev(diffs[w]) / math.sqrt(kept) if kept >= 2
              else None)
        per_member.append(MemberStat(
            member=w, baseline_mean=bmean, deviation_mean=bmean + dmean,
            difference=dmean, ci_half_width=ci))
    return EquilibriumReport(
        strategy=config.coalition.strategy, members=members, trials=trials,
        kept_pairs=kept, dropped_pairs=trials - kept,
        baseline_fail_rate=base_fail / trials if trials else 0.0,
        deviation_fail_rate=dev_fail / trials if trials else 0.0,
        baseline_good_rate=base_good / trials if trials else 0.0,
        deviation_good_rate=dev_good / trials if trials else 0.0,
        per_member=tuple(per_member))


# --- claims audit -----------------------------------------------------------

@dataclass(slots=True)
class ClaimsAuditReport:
    traces: int
    eligible: int                 # good and non-failing
    claim1_checked: int           # eligible with the legitimate winner honest
    claim1_violations: int
    claim3_rows: tuple[tuple[int, float, float, bool], ...]
    claim3_passed: Optional[bool]
    claim4_rate: Optional[float]
    claim4_bound: float
    claim4_passed: Optional[bool]

    @property
    def passed(self) -> Optional[bool]:
        """None (indeterminate) when no trace was eligible."""
        if not self.eligible:
            return None
        return (self.claim1_violations == 0
                and self.claim3_passed is not False
                and self.claim4_passed is not False)

    def to_dict(self) -> dict:
        doc = fields_dict(self)
        doc["claim3"] = [dict(zip(("color", "expected", "observed", "ok"), r))
                         for r in doc.pop("claim3_rows")]
        doc["passed"] = self.passed
        return doc


@dataclass(slots=True)
class ClaimsAuditor:
    """Streaming audit of one configuration's traces.

    Checks, over good non-failing traces: the winner equals the
    legitimate winner whenever the latter is honest (exact, per trace);
    conditioned on an honest legitimate winner, the outcome color follows
    the honest active shares (statistical); and the coalition wins no
    more often than its share of active agents (statistical).
    """

    sigma_mult: float = 4.0
    _key: Optional[SimConfig] = None      # the traces' config at seed 0
    _share: dict[int, float] = field(default_factory=dict)
    _coalition_share: float = 0.0
    traces_seen: int = 0
    eligible: int = 0
    claim1_checked: int = 0
    claim1_violations: int = 0
    winner_in_c: int = 0
    _color_wins: dict[int, int] = field(default_factory=dict)

    def _bind(self, key: SimConfig) -> None:
        """Take `key` and its shares on first use; after that, require it."""
        if self._key is not None:
            if self._key != key:
                raise ConfigError("claims audit over mixed configs")
            return
        self._key = key
        coalition = _coalition_of(key)
        active = [u for u in range(1, key.n + 1) if u not in key.faulty]
        honest = [u for u in active if u not in coalition]
        self._share = {
            c: sum(key.colors[u - 1] == c for u in honest) / len(honest)
            for c in range(1, key.num_colors + 1)}
        self._coalition_share = len(coalition) / len(active)
        self._color_wins = {c: 0 for c in self._share}

    def add(self, trace: Trace) -> None:
        self._bind(replace(trace.config, master_seed=0))
        self.traces_seen += 1
        good = trace.flags.d2_good and trace.flags.d3_good
        if not good or trace.outcome is None:
            return
        self.eligible += 1
        rec = legitimate_winner(trace)
        if rec.e_c_prime:
            self.winner_in_c += 1
        if rec.e_c:
            return
        self.claim1_checked += 1
        if rec.winner != rec.legitimate_winner:
            self.claim1_violations += 1
        else:
            self._color_wins[trace.config.colors[rec.winner - 1]] += 1

    def merge(self, other: "ClaimsAuditor") -> None:
        """Fold another auditor's counters in (same config required)."""
        if other._key is None:
            return
        self._bind(other._key)
        self.traces_seen += other.traces_seen
        self.eligible += other.eligible
        self.claim1_checked += other.claim1_checked
        self.claim1_violations += other.claim1_violations
        self.winner_in_c += other.winner_in_c
        for c, w in other._color_wins.items():
            self._color_wins[c] += w

    def report(self) -> ClaimsAuditReport:
        checked = self.claim1_checked - self.claim1_violations
        rows = []
        claim3: Optional[bool] = None
        if checked:
            claim3 = True
            for c, p in sorted(self._share.items()):
                se = math.sqrt(p * (1 - p) / checked)
                obs = self._color_wins[c] / checked
                ok = abs(obs - p) <= self.sigma_mult * se
                rows.append((c, p, obs, ok))
                claim3 = claim3 and ok
        p4 = self._coalition_share
        claim4_rate: Optional[float] = None
        claim4: Optional[bool] = None
        bound = p4
        if self.eligible:
            bound = p4 + self.sigma_mult * math.sqrt(
                p4 * (1 - p4) / self.eligible)
            claim4_rate = self.winner_in_c / self.eligible
            claim4 = claim4_rate <= bound
        return ClaimsAuditReport(
            traces=self.traces_seen, eligible=self.eligible,
            claim1_checked=self.claim1_checked,
            claim1_violations=self.claim1_violations,
            claim3_rows=tuple(rows), claim3_passed=claim3,
            claim4_rate=claim4_rate, claim4_bound=bound,
            claim4_passed=claim4)


def run_claims_experiment(config: SimConfig, trials: int, seed0: int = 0,
                          *, sigma_mult: float = 4.0) -> ClaimsAuditor:
    """Audit `trials` traces at seeds seed0..seed0+trials-1."""
    auditor = ClaimsAuditor(sigma_mult=sigma_mult)
    for trace in iter_trials(config, range(seed0, seed0 + trials)):
        auditor.add(trace)
    return auditor


# --- scaling ----------------------------------------------------------------

class ScalingRow(NamedTuple):
    n: int
    q: int
    rounds: int
    max_message_bits: int
    good_rate: float


def scaling_experiment(n_values: Iterable[int], gamma: float = 4.0,
                       trials: int = 5, seed0: int = 0,
                       *, calibration: Calibration = DEFAULT_CALIBRATION,
                       ) -> list[ScalingRow]:
    """Measure round counts and the largest message at each size. Every
    size's config is checked before the first trial runs."""
    sized = []
    for n in n_values:
        config = SimConfig(n=n, gamma=gamma,
                           colors=tuple((i % 2) + 1 for i in range(n)),
                           calibration=calibration)
        sized.append((config, validate_config(config).phase_rounds))
    rows = []
    for config, q in sized:
        max_bits = 0
        rounds = 0
        good = 0
        for t in iter_trials(config, range(seed0, seed0 + trials),
                             record=True):
            rounds = max(rounds, t.stats.rounds)
            max_bits = max(max_bits, t.max_message_bits)
            good += t.flags.d2_good and t.flags.d3_good
        rows.append(ScalingRow(n=config.n, q=q, rounds=rounds,
                               max_message_bits=max_bits,
                               good_rate=good / trials if trials else 0.0))
    return rows
