"""Golden corpus: SHA-256 digests of engine output that a refactor must
leave unchanged.

Each group hashes one stream of output, so a failure names what moved:
``plain`` is the ``trace_json_line`` of coalition-free trials over a grid
of n and seeds in three colours, with and without crashed agents; each
strategy group is the same grid (n >= 5) with agents 1 and 4 in the
coalition; each ``kernel-*`` group is ``run_honest_trials`` over 300
seeds. Every flag goes both ways in the ``plain`` group, aborts and
undetected splits included. The ``n64-*`` groups are the benchmark's
attack configs (n=64, gamma 4, two colour halves, members 1, 2, 33 and
34) under each of its four strategies, recorded and unrecorded, and
``n256`` is recorded coalition-free trials at the size of its trace
workload. The ``silenced-*`` groups, recorded and unrecorded, are trials
at a gamma so low that coherence fails agents, under a silencing
coalition and faults.

``CLI_DIGESTS`` holds one digest per command line of ``fairgossip``, over
its exit code, stdout, stderr and the bytes it writes to ``--out``.

A change that is meant to move output re-freezes the digests in the same
change and says why: ROADMAP item 3 (synchronous find-min rounds) is the
next one that will.
"""

import hashlib
import shlex
import warnings
from dataclasses import replace

import pytest

from fairgossip.cli import main
from fairgossip.config import expand_colors
from fairgossip.engine import (
    Calibration,
    CoalitionConfig,
    SimConfig,
    run_honest_trials,
    run_trial,
    trace_json_line,
    trace_to_dict,
    validate_config,
)
from fairgossip.protocol import draw_agents

SIZES = (1, 2, 3, 5, 8, 17, 40, 64, 100)
SEEDS = (0, 1, 7, 2**32 + 3, 2**64 + 5)
#: coalition groups: group name -> (strategy, options); the last three set
#: the options no other group or CLI digest sets
STRATEGIES = {
    "honest": ("honest", {}),
    "k_underbid": ("k_underbid", {}),
    "commitment_mismatch": ("commitment_mismatch", {"equivocate": True}),
    "fake_faulty": ("fake_faulty", {}),
    "coherence_silence": ("coherence_silence", {}),
    "commitment_mismatch-retarget":
        ("commitment_mismatch", {"retarget": True}),
    "fake_faulty-silent_voting": ("fake_faulty", {"silent_voting": True}),
    "coherence_silence-victims": ("coherence_silence", {"victims": [2, 3]}),
}


def _coalition(group):
    strategy, options = STRATEGIES[group]
    return CoalitionConfig(members=(1, 4), strategy=strategy, options=options)


def _configs(coalition=None):
    for n in SIZES:
        if coalition is not None and n < 5:
            continue
        colors = tuple(u % 3 + 1 for u in range(n))
        faults = frozenset(u for u in range(1, n + 1) if u % 4 == 2)
        for faulty in dict.fromkeys((frozenset(), faults)):
            for seed in SEEDS:
                yield SimConfig(n=n, gamma=1.5, colors=colors, num_colors=3,
                                faulty=faulty, coalition=coalition,
                                master_seed=seed)


def _trace_lines(coalition=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for config in _configs(coalition):
            yield trace_json_line(run_trial(config))


def _kernel_lines(config):
    for result in run_honest_trials(config, range(300)):
        yield repr(result)


KERNEL_CASES = {
    "kernel-n16": SimConfig(n=16, gamma=1.5, colors=(1, 2) * 8),
    "kernel-n40-faulty": SimConfig(
        n=40, gamma=1.0, colors=tuple(u % 3 + 1 for u in range(40)),
        num_colors=3, faulty=frozenset({2, 9, 33})),
    "kernel-n64-calibrated": SimConfig(
        n=64, gamma=2.0, colors=(1,) * 32 + (2,) * 32,
        calibration=Calibration(beta1=0.5, beta2=2.5)),
}

#: attack-n64's strategies, each at ATTACK_SEEDS with and without
#: recording
ATTACK_STRATEGIES = ("k_underbid", "commitment_mismatch", "fake_faulty",
                     "coherence_silence")
ATTACK_SEEDS = range(20)
ATTACK_GROUPS = {f"n64-{strategy}{suffix}": (strategy, record)
                 for strategy in ATTACK_STRATEGIES
                 for suffix, record in (("", True), ("-unrecorded", False))}


def _attack_lines(strategy, record):
    config = SimConfig(n=64, gamma=4.0, colors=expand_colors("32x1,32x2", 64),
                       coalition=CoalitionConfig(members=(1, 2, 33, 34),
                                                 strategy=strategy))
    for seed in ATTACK_SEEDS:
        yield trace_json_line(run_trial(replace(config, master_seed=seed),
                                        record=record))


#: find-min rarely converges at this gamma, so coherence fails agents; the
#: coalition silences its pushes to the victims, and every fifth agent
#: from 3 on is faulty
SILENCED = SimConfig(
    n=24, gamma=0.8, colors=tuple(u % 2 + 1 for u in range(24)),
    faulty=frozenset(range(3, 25, 5)),
    coalition=CoalitionConfig(members=(1, 6), strategy="coherence_silence",
                              options={"victims": [2, 4, 5, 7]}))
SILENCED_GROUPS = {"silenced-n24": True, "silenced-n24-unrecorded": False}


def _silenced_traces(record):
    for seed in range(16):
        yield run_trial(replace(SILENCED, master_seed=seed), record=record)


def _n256_lines():
    config = SimConfig(n=256, gamma=4.0, colors=expand_colors(None, 256))
    for seed in range(3):
        yield trace_json_line(run_trial(replace(config, master_seed=seed)))


DIGESTS = {
    "plain":
        "9d02a5fe0e8421795cf85c18e6f64c683f8c66cec6ae95ce2a80e3d47c3b38c8",
    "honest":
        "1f1f274f79f5f1858f16cb2c4dd05105ba05ed66d2762da872d5045fc614fdc8",
    "k_underbid":
        "f94317689674eea78917a12864064f240ae3e5897f18a517dc23b7fb61c6b7d0",
    "commitment_mismatch":
        "f9e879bed4bc6ae7b281aac692ac648c4e19be03e41a091b313ab108c6245ca4",
    "fake_faulty":
        "d4a995ea9755f3a631a92737c34b3bd1272008e08f5c17d440303f4e4025fe43",
    "coherence_silence":
        "81cd4f469c1db382c3251393804b1d3be49a84055c4eecedbaef6b758efac655",
    "commitment_mismatch-retarget":
        "e93911705fe9ad0d89b0c0cca3145a6464b17950fe36e5c12981400b185bc658",
    "fake_faulty-silent_voting":
        "bf10603ea298217c8b012d6cbec0d8f027cac984f5d53a522fe6b6aa1f1f626a",
    "coherence_silence-victims":
        "c310d7fd128555de4db160db4f8d47373f9bb552df955b8ac362653c2dac2dff",
    "kernel-n16":
        "96cb925ad5b9441b4bfb5d3ad4eecfd055871030fed6abc8e19afb153ec6b8e4",
    "kernel-n40-faulty":
        "2e76096a20f3570e5b5ec7a8041c7e3d9b0d18ff638c8c7ed86ee4b3777025ae",
    "kernel-n64-calibrated":
        "76845ef60601b9850dc250074e0beed0606a4ee0354e5b61318494ef30d9cd83",
    "n64-k_underbid":
        "13721e3947c5e90c5256e58443abd88012fecfd116d5f65e005c2ae6bcb0334e",
    "n64-k_underbid-unrecorded":
        "f4a0144501827af36142d8b13861c487f479529b0fc5598ee3e8c78adcfba854",
    "n64-commitment_mismatch":
        "2853bb1ef99ac9937f7af605f95e33919e74c5a28f586f1621f9090e984d9719",
    "n64-commitment_mismatch-unrecorded":
        "1477a32f935a69bf0d10f7d646d520893d2ed572c8d06cec4e58940630a16bfa",
    "n64-fake_faulty":
        "a966ba1e160d16f4b7d3615f7d948c886f8bd6dfbd8e1d57b258fbef2822795c",
    "n64-fake_faulty-unrecorded":
        "330a427fdd314a424c260cf986382db00bfeade28784c76b8c9beaff3cd42c50",
    "n64-coherence_silence":
        "3344a695b38feb1f0b2f809836c59d944f67770c9e8b0b3feeb7f9bf6aad34dc",
    "n64-coherence_silence-unrecorded":
        "8487ac523b67f6ec2bf41ecc10b434c834989ad3243424dbc4aa93ebf15363ac",
    "silenced-n24":
        "9393d27b3bbd0ca36ad4a848c7d53577150de4083f56166d897611f23dda3318",
    "silenced-n24-unrecorded":
        "904b8d879741ec95d1de509c49fd4f930c8f4375576684f9c13d99aed746824e",
    "n256":
        "2c09be14cfcf25826d3406821cd0ba962ea0a715046cd619200e1ad6f7d77e07",
}


def group_lines(group):
    if group == "plain":
        return _trace_lines()
    if group in STRATEGIES:
        return _trace_lines(_coalition(group))
    if group in ATTACK_GROUPS:
        return _attack_lines(*ATTACK_GROUPS[group])
    if group == "n256":
        return _n256_lines()
    if group in SILENCED_GROUPS:
        return map(trace_json_line,
                   _silenced_traces(SILENCED_GROUPS[group]))
    return _kernel_lines(KERNEL_CASES[group])


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_golden_digest(group):
    assert digest(group_lines(group)) == DIGESTS[group]


def test_silenced_group_has_a_failed_agent_go_quiet():
    # a failed agent pushes no more: at least one honest agent of the group
    # fails, and a push it drew for a later round would have failed a live
    # receiver that held another certificate and had not failed yet
    q = validate_config(SILENCED).phase_rounds
    quieted = 0
    for trace in _silenced_traces(record=False):
        _, targets = draw_agents(trace.config.master_seed, trace.params)
        for u, failed in trace.failures.items():
            if u in SILENCED.coalition.members:
                continue
            for rnd in range(failed + 1, q + 1):
                v = int(targets[u, 3 * q + rnd - 1])
                quieted += (v != u and v not in SILENCED.faulty
                            and trace.failures.get(v, q + 1) > rnd
                            and trace.cert_min[v] != trace.cert_min[u])
    assert quieted > 0


@pytest.mark.parametrize("group", ["plain", *STRATEGIES])
def test_unrecorded_trials_match_recorded(group):
    # the digests above run with recording on; without it, a trial counts
    # its messages and bits without logging them, and must count the same
    coalition = None if group == "plain" else _coalition(group)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for config in _configs(coalition):
            recorded = trace_to_dict(run_trial(config))
            recorded["messages"] = recorded["votes"] = None
            assert trace_to_dict(run_trial(config, record=False)) == recorded


# Each line runs with ``--out`` appended; n <= 64 and at most 40 trials,
# except the n=256 trace, keep the whole set to seconds.
CLI_DIGESTS = {
    "run --n 8 --gamma 2 --seed 1":
        "314ed95411aabf37802d3ef4f5d73e4a7bd9c5ffb08d01992bc280cd3336549c",
    "run --n 16 --gamma 1.5 --faulty 2,5 --coalition 3 "
    "--strategy coherence_silence --seed 4":
        "707a82d3d8efd2975421ecbbcbe78d10f6d0ab49fff638a1e7c3ec47c2549a24",
    "run --n 256 --gamma 2 --seed 3":
        "c614d1d00866efa7055dc2b5797bc5acd3719223bd1f4605d20ce8891d3787b6",
    "run --n 32 --gamma 2 --colors 16x1,16x2 --seed 4294967299":
        "aba2181b3c6abafc3815e85a993e10a79bfe8839e5a6160b69ed90a642c242c3",
    "run --n 16 --gamma 1.5 --faulty random:3 --seed 9 --format csv":
        "4e06d1f27deb8ba20f2e3754d99f2acbbbf4ad42adf133011359a56eba5d0930",
    "fairness --n 32 --colors 16x1,16x2 --gamma 2 --faulty 3,7,20 "
    "--trials 40":
        "9a3b9ef81a4111bce5873d88ad3e1236b8b50d5e511e693c6dc32427a2aaf8d6",
    "fairness --n 16 --gamma 2 --beta1 0.5 --beta2 2.5 --trials 40":
        "662ca39b08401b39034e66f7d5a111ccbbf3b752779b4878433e7d5f26a1f635",
    "fairness --n 16 --gamma 2 --coalition 1,5 --strategy fake_faulty "
    "--trials 30":
        "0eca5e0e53c7d9f52be85f52ffcc64bef163ab8a90029a39fa5a823f2cfd2aa4",
    "fairness --n 16 --colors 8x1,8x2 --trials 40 --parallel 2":
        "94b519b9ed5101ad67419152c042f17f655a93f8477cf39a33b17e22cad2090b",
    # no trial decides: each colour row reads "z": null
    "fairness --n 3 --trials 1 --gamma 0.5":
        "d84d7eb5620a57c0fea251f31407031451d18fbe236c9eec9317424426547374",
    "fairness --n 16 --gamma 2 --trials 20 --format csv":
        "49e13d2bc0ff65a2a664475d13b8707810efe3d51547ed3188c43c4c1b674292",
    "attack --n 16 --gamma 2 --coalition 5 --strategy k_underbid "
    "--trials 10":
        "695c88c337ff03eeae0cac87ef14720bb530b4505f126a4e18acfb417e4fcba3",
    "attack --n 16 --gamma 2 --coalition 5 --strategy commitment_mismatch "
    "--option equivocate=true --trials 10":
        "407a1b6c2dc7f4944cbc984e4be8d0c4f52db311b0b3deec2fe75952bfa809f1",
    "attack --n 16 --gamma 2 --coalition 5 --strategy fake_faulty "
    "--trials 10":
        "ab57d351f87850c31006d824d3c6ffe114a4cd46eea5db6943475158185bdef3",
    # keeps no pair: "verdict_no_gain": null, verdict indeterminate, and
    # each member row's means and CI half-width null
    "attack --n 16 --gamma 2 --coalition 2,5 --strategy coherence_silence "
    "--option victims=[1,3,4] --trials 10":
        "067fcd7646b2c1b893223925816d5a5576abb1eaa6821f24863e81edb613e86c",
    "claims --n 16 --gamma 2 --coalition 1,5 --trials 30":
        "cc0c65c83fe20942abf7974905056528a356c1e10807758e5f564e9a5e26267d",
    # no eligible trace: "passed": null, verdict indeterminate
    "claims --n 32 --gamma 3 --colors 16x1,16x2 --coalition 1,17 "
    "--strategy k_underbid --trials 20":
        "ab1bba7627a7ebb59557dc5bba060b056e853317f2f7d0f58c79a383fe6ac89d",
    "scaling --sizes 8,16,32 --trials 3":
        "467e883e78119cffcf2c4f585354c6eecc4806e90e4fe46c98dbf3720a105abf",
}


def cli_digest(line: str, out, capsys) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(shlex.split(line) + ["--out", str(out)])
    captured = capsys.readouterr()
    h = hashlib.sha256()
    for part in (str(code), captured.out, captured.err):
        h.update(part.encode())
        h.update(b"\0")
    h.update(out.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("line", sorted(CLI_DIGESTS))
def test_cli_digest(line, tmp_path, capsys):
    assert cli_digest(line, tmp_path / "out", capsys) == CLI_DIGESTS[line]
