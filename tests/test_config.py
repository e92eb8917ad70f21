"""Config-document parsing: shorthand expansion, fault/coalition/calibration
resolution, defaults, and override precedence."""

import pytest

from fairgossip.config import (
    ExperimentConfig,
    expand_colors,
    parse_config,
    resolve_calibration,
    resolve_coalition,
    resolve_faulty,
)
from fairgossip.engine import Calibration, CoalitionConfig
from fairgossip.protocol import ConfigError, derive_params


# --- colors -----------------------------------------------------------------

def test_color_shorthand():
    assert expand_colors("4x1,4x2", 8) == (1, 1, 1, 1, 2, 2, 2, 2)
    assert expand_colors("2x3,1", 3) == (3, 3, 1)       # bare = one agent
    assert expand_colors([2, 1, 2], 3) == (2, 1, 2)
    assert expand_colors(None, 4) == (1, 2, 1, 2)       # default alternates


@pytest.mark.parametrize("bad", ["4x", "x2", "ax1", "-1x2", [1, "2"]])
def test_color_shorthand_rejects(bad):
    with pytest.raises(ConfigError):
        expand_colors(bad, 8)


# --- faults -----------------------------------------------------------------

def test_faulty_explicit_forms():
    assert resolve_faulty([3, 7], 8, (1,) * 8, 0, 0.25) == frozenset({3, 7})
    assert resolve_faulty("1,2,3", 8, (1,) * 8, 0, 0.25) == frozenset({1, 2, 3})
    assert resolve_faulty(None, 8, (1,) * 8, 0, 0.25) == frozenset()


def test_faulty_random_forms_frozen():
    ones = (1,) * 8
    assert sorted(resolve_faulty({"random": 2}, 8, ones, 0, 0.25)) == [7, 8]
    assert sorted(resolve_faulty({"random": 2}, 8, ones, 1, 0.25)) == [3, 8]
    assert sorted(resolve_faulty("random", 16, (1,) * 16, 3, 0.25)) \
        == [4, 7, 12, 14]                                # floor(.25 * 16) = 4
    assert sorted(resolve_faulty("random:4", 16, (1,) * 16, 7, 0.25)) \
        == [7, 11, 12, 15]
    assert resolve_faulty({"random": 0}, 8, ones, 0, 0.25) == frozenset()


def test_faulty_color_form():
    colors = (1, 1, 1, 1, 2, 2, 2, 2)
    assert resolve_faulty("color:1:3", 8, colors, 0, 0.25) \
        == frozenset({1, 2, 3})
    assert resolve_faulty({"color": 2, "count": 4}, 8, colors, 0, 0.25) \
        == frozenset({5, 6, 7, 8})
    with pytest.raises(ConfigError):
        resolve_faulty("color:1:5", 8, colors, 0, 0.25)  # only 4 supporters


@pytest.mark.parametrize("bad", ["frobnicate", {"bogus": 1}, 17,
                                 {"random": 99}, [1, "2"]])
def test_faulty_rejects(bad):
    with pytest.raises(ConfigError):
        resolve_faulty(bad, 8, (1,) * 8, 0, 0.25)


# --- coalition / calibration -------------------------------------------------

def test_coalition_resolution():
    assert resolve_coalition(None) is None
    got = resolve_coalition({"members": [1, 2], "strategy": "fake_faulty",
                             "options": {"silent_voting": True}})
    assert got == CoalitionConfig(members=(1, 2), strategy="fake_faulty",
                                  options={"silent_voting": True})
    assert resolve_coalition({"members": [5]}).strategy == "honest"


@pytest.mark.parametrize("bad", [
    {"members": []},
    {"members": [1], "strategy": "nope"},
    {"members": [1], "extra": 2},
    {"members": [1], "options": 7},
    "5",
])
def test_coalition_rejects(bad):
    with pytest.raises(ConfigError):
        resolve_coalition(bad)


def test_calibration_resolution():
    assert resolve_calibration(None) == Calibration()
    assert resolve_calibration({"beta2": 5.0}) == Calibration(beta2=5.0)
    with pytest.raises(ConfigError):
        resolve_calibration({"beta3": 1.0})


# --- parse_config -------------------------------------------------------------

def test_minimal_document_gets_defaults():
    sim, exp = parse_config({"n": 8, "colors": "4x1,4x2"})
    assert sim.n == 8 and sim.colors == (1, 1, 1, 1, 2, 2, 2, 2)
    assert sim.gamma == 4.0 and sim.chi == 1.0
    assert sim.num_colors == 2 and sim.faulty == frozenset()
    assert exp == ExperimentConfig()
    assert derive_params(sim.n, sim.gamma).phase_rounds == 9


def test_round_count_echoes_from_derivation():
    sim, _ = parse_config({"n": 64, "gamma": 4})
    assert derive_params(sim.n, sim.gamma).phase_rounds == 17


def test_faulty_coalition_overlap_rejected():
    with pytest.raises(ConfigError):
        parse_config({"n": 8, "faulty": [1], "coalition": {"members": [1]}})


def test_overrides_win_and_none_is_ignored():
    doc = {"n": 8, "gamma": 2.0, "trials": 50}
    sim, exp = parse_config(doc, {"gamma": 3.0, "n": None, "seed": 9})
    assert sim.gamma == 3.0 and sim.n == 8
    assert sim.master_seed == 9 and exp.seed == 9
    assert exp.trials == 50


def test_random_faults_resolve_at_experiment_seed():
    sim, _ = parse_config({"n": 8, "faulty": {"random": 2}, "seed": 1})
    assert sorted(sim.faulty) == [3, 8]


def test_num_colors_follows_palette():
    sim, _ = parse_config({"n": 3, "colors": [3, 1, 2]})
    assert sim.num_colors == 3


def test_calibration_from_document():
    _, exp = parse_config({"n": 8, "calibration": {"beta1": 0.5}})
    assert exp.calibration == Calibration(beta1=0.5)


@pytest.mark.parametrize("doc", [
    {},                                     # n required
    {"n": 0},
    {"n": 8, "bogus_field": 3},
    {"n": 8, "trials": 0},
    {"n": 8, "colors": "4x1"},              # count mismatch
    {"n": 8, "colors": "4x1", "faulty": "color:1:1"},
    {"n": 8, "gamma": "abc"},
    {"n": 8, "gamma": float("inf")},
    {"n": 8, "trials": 2.5},                # no silent truncation
    {"n": 8, "seed": -1},
    {"n": 8, "alpha": 1.5},
    {"n": 8, "max_fail_rate": -1},
    {"n": 8, "sigma_mult": 0},
    {"n": 8, "sizes": [8, 0]},
    {"n": 8, "sizes": [8, "x"]},
    {"n": 8, "coalition": {"members": [1, "x"]}},
    {"n": 8, "coalition": {"members": [1], "options": {"junk": 1}}},
    {"n": 8, "coalition": {"members": [1], "strategy": "coherence_silence",
                           "options": {"victims": "abc"}}},
    {"n": 8, "calibration": {"beta1": float("nan")}},
])
def test_parse_config_rejects(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)
