"""Config-document parsing: shorthand expansion, fault/coalition/calibration
resolution, defaults, and override precedence."""

import dataclasses
import tracemalloc

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


def test_color_shorthand_rejects_a_count_before_expanding_it():
    # the counts are added up first: a mismatch costs no list of that size
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="need 8 colors, got 20000000"):
            parse_config({"n": 8, "colors": "20000000x1"})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    given = Calibration(beta1=0.5, beta2=3.0)
    assert resolve_calibration(given) is given


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
    sim, _ = parse_config({"n": 8, "calibration": {"beta1": 0.5}})
    assert sim.calibration == Calibration(beta1=0.5)


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
    # a YAML boolean is no agent id, colour, count or number
    {"n": True},
    {"n": 4, "colors": [True, True, 2, 2]},
    {"n": 8, "faulty": [True]},
    {"n": 8, "trials": True},
    {"n": 8, "seed": True},
    {"n": 8, "gamma": True},
    {"n": 8, "sizes": [True, 8]},
    {"n": 8, "colors": "8x1", "num_colors": True},
    {"n": 8, "coalition": {"members": [True]}},
    {"n": 8, "faulty": {"random": True}},
    # an on/off option takes a YAML boolean, not a string that reads as one
    {"n": 8, "coalition": {"members": [1], "strategy": "commitment_mismatch",
                           "options": {"equivocate": "false"}}},
    {"n": 8, "colors": 3},
    {"n": 8, "sizes": 5},
    {"n": 8, "sizes": []},
    {"n": 8, "calibration": {"beta1": 5, "beta2": 1}},   # an empty band
    {"n": 8, "calibration": {"beta2": -1}},
    # a strategy is named by a string, never a list or a map
    {"n": 8, "coalition": {"members": [1], "strategy": []}},
    {"n": 8, "coalition": {"members": [1], "strategy": {}}},
    # a negative colour count is out of range, not a slice from the end
    {"n": 8, "faulty": "color:1:-1"},
    {"n": 8, "faulty": {"color": 1, "count": -1}},
    # more rounds than can be counted, or than one seed's draws can hold
    {"n": 8, "gamma": 1e308},
    {"n": 4, "gamma": 1e20},
    # unknown keys of mixed types, as YAML reads `1:` and `zz:`
    {"n": 8, 1: 2, "zz": 3},
    {"n": 8, "coalition": {"members": [1], 1: "a", "b": "c"}},
    {"n": 8, "coalition": {"members": [1], "strategy": "coherence_silence",
                           "options": {3: 4, "zz": 1}}},
    # options that are no map, however empty
    {"n": 8, "coalition": {"members": [1], "options": 0}},
    {"n": 8, "coalition": {"members": [1], "options": []}},
])
def test_parse_config_rejects(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize("doc", [
    {"n": 8, 1: 2, "zz": 3},
    {"n": 8, "coalition": {"members": [1], 1: "a", "zz": "c"}},
    {"n": 8, "coalition": {"members": [1], "strategy": "coherence_silence",
                           "options": {1: 4, "zz": 1}}},
])
def test_unknown_keys_of_mixed_types_are_named(doc):
    with pytest.raises(ConfigError, match=r"\[1, 'zz'\]"):
        parse_config(doc)


def test_alpha_is_read_only_to_resolve_random_faults():
    assert "alpha" not in {f.name for f in dataclasses.fields(
        ExperimentConfig)}
    sim, _ = parse_config({"n": 8, "faulty": "random", "alpha": 0.5})
    assert len(sim.faulty) == 4
    with pytest.raises(ConfigError, match="alpha"):
        parse_config({"n": 8, "alpha": -0.5})
