"""Golden corpus: SHA-256 digests of engine output that a refactor must
leave unchanged.

Each group hashes one stream of output, so a failure names what moved:
``plain`` is the ``trace_json_line`` of coalition-free trials over a grid
of n and seeds in three colours, with and without crashed agents; each
strategy group is the same grid (n >= 5) with agents 1 and 4 in the
coalition; each ``kernel-*`` group is ``run_honest_trials`` over 300
seeds. Every flag goes both ways in the ``plain`` group, aborts and
undetected splits included.

A change that is meant to move output re-freezes the digests in the same
change and says why: ROADMAP item 1 (synchronous find-min rounds) is the
next one that will.
"""

import hashlib
import warnings

import pytest

from fairgossip.engine import (
    Calibration,
    CoalitionConfig,
    SimConfig,
    run_honest_trials,
    run_trial,
    trace_json_line,
)

SIZES = (1, 2, 3, 5, 8, 17, 40, 64, 100)
SEEDS = (0, 1, 7, 2**32 + 3, 2**64 + 5)
STRATEGIES = {
    "honest": {},
    "k_underbid": {},
    "commitment_mismatch": {"equivocate": True},
    "fake_faulty": {},
    "coherence_silence": {},
}


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


def _kernel_lines(config, calibration=Calibration()):
    for result in run_honest_trials(config, range(300), calibration):
        yield repr(result)


KERNEL_CASES = {
    "kernel-n16": (SimConfig(n=16, gamma=1.5, colors=(1, 2) * 8),),
    "kernel-n40-faulty": (SimConfig(
        n=40, gamma=1.0, colors=tuple(u % 3 + 1 for u in range(40)),
        num_colors=3, faulty=frozenset({2, 9, 33})),),
    "kernel-n64-calibrated": (
        SimConfig(n=64, gamma=2.0, colors=(1,) * 32 + (2,) * 32),
        Calibration(beta1=0.5, beta2=2.5)),
}

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
    "kernel-n16":
        "96cb925ad5b9441b4bfb5d3ad4eecfd055871030fed6abc8e19afb153ec6b8e4",
    "kernel-n40-faulty":
        "2e76096a20f3570e5b5ec7a8041c7e3d9b0d18ff638c8c7ed86ee4b3777025ae",
    "kernel-n64-calibrated":
        "76845ef60601b9850dc250074e0beed0606a4ee0354e5b61318494ef30d9cd83",
}


def group_lines(group):
    if group == "plain":
        return _trace_lines()
    if group in STRATEGIES:
        return _trace_lines(CoalitionConfig(
            members=(1, 4), strategy=group, options=STRATEGIES[group]))
    return _kernel_lines(*KERNEL_CASES[group])


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_golden_digest(group):
    assert digest(group_lines(group)) == DIGESTS[group]
