"""Configuration documents and flag overrides.

The file format is a single key-value document (YAML, which subsumes JSON)
whose keys mirror SimConfig field names plus experiment-level settings;
command-line flags override file values field by field. Validation errors
name the offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .adversary import STRATEGIES, AdversaryContext, make_strategy
from .engine import (
    DEFAULT_CALIBRATION,
    Calibration,
    CoalitionConfig,
    SimConfig,
    validate_config,
)
from .protocol import (
    FAULT_STREAM_TAG,
    MAX_AGENTS,
    STRATEGY_STREAM_TAG,
    ConfigError,
    derive_stream,
)

_SIM_KEYS = {"n", "gamma", "chi", "num_colors", "colors", "faulty",
             "coalition", "seed"}
_EXP_KEYS = {"trials", "sigma_mult", "max_fail_rate", "alpha", "sizes",
             "calibration"}


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Experiment-level knobs shared by every subcommand."""

    trials: int = 1000
    seed: int = 0
    sigma_mult: float = 4.0
    max_fail_rate: float = 0.01
    alpha: float = 0.25              # fault fraction for `faulty: random`
    sizes: tuple[int, ...] = (16, 64, 256)
    calibration: Calibration = DEFAULT_CALIBRATION


def _coerce(name: str, value: Any, kind: type) -> Any:
    """``kind(value)`` for a user-supplied field, or a ConfigError naming
    it. A float must be finite; an int may not drop a fractional part."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"{name}: expected {kind.__name__}, got {value!r}") from None
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{name}: need a finite number, got {value!r}")
    if kind is int and isinstance(value, float) and out != value:
        raise ConfigError(f"{name}: need an integer, got {value!r}")
    return out


def expand_colors(spec: Any, n: int) -> tuple[int, ...]:
    """Accept an explicit list or the "16x1,16x2" shorthand.

    Shorthand items are count-by-color pairs expanded positionally by
    agent id; a bare color stands for a single agent.
    """
    if spec is None:
        return tuple((i % 2) + 1 for i in range(n))
    if isinstance(spec, (list, tuple)):
        if not all(isinstance(c, int) for c in spec):
            raise ConfigError("colors: list entries must be integers")
        return tuple(spec)
    if not isinstance(spec, str):
        raise ConfigError(f"colors: expected list or shorthand, got {spec!r}")
    out: list[int] = []
    for item in spec.split(","):
        item = item.strip()
        count, sep, color = item.rpartition("x")
        try:
            k = int(count) if sep else 1
            c = int(color)
        except ValueError:
            raise ConfigError(f"colors: bad shorthand item {item!r}") from None
        if k < 0:
            raise ConfigError(f"colors: negative count in {item!r}")
        out.extend([c] * k)
    return tuple(out)


def resolve_faulty(spec: Any, n: int, colors: tuple[int, ...],
                   seed: int, alpha: float) -> frozenset[int]:
    """Resolve a fault specification to a concrete agent set.

    Forms: explicit id list; ``random`` (an alpha fraction of agents) or
    ``random:K``, drawn once from the fault stream of `seed`; or
    ``color:C:K`` (the K lowest-id supporters of color C).
    """
    if spec is None:
        return frozenset()
    if isinstance(spec, (list, tuple, set, frozenset)):
        if not all(isinstance(u, int) for u in spec):
            raise ConfigError("faulty: ids must be integers")
        return frozenset(spec)
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.split(":")]
        if parts[0] == "random" and len(parts) <= 2:
            spec = ({"random": _coerce("faulty", parts[1], int)}
                    if len(parts) == 2 else "random")
        elif parts[0] == "color" and len(parts) == 3:
            spec = {"color": _coerce("faulty", parts[1], int),
                    "count": _coerce("faulty", parts[2], int)}
        elif all(p.lstrip("-").isdigit() for p in spec.split(",")):
            return frozenset(int(p) for p in spec.split(","))
        if spec == "random":
            spec = {"random": math.floor(alpha * n)}
    if isinstance(spec, Mapping):
        if set(spec) == {"random"}:
            k = _coerce("faulty", spec["random"], int)
            if not 0 <= k <= n:
                raise ConfigError(f"faulty: random count {k} out of range")
            rng = derive_stream(seed, FAULT_STREAM_TAG)
            return frozenset(
                int(u) + 1 for u in rng.choice(n, size=k, replace=False))
        if set(spec) == {"color", "count"}:
            c = _coerce("faulty", spec["color"], int)
            k = _coerce("faulty", spec["count"], int)
            picked = [u for u, color in enumerate(colors, 1) if color == c][:k]
            if len(picked) < k:
                raise ConfigError(
                    f"faulty: only {len(picked)} supporters of color {c}")
            return frozenset(picked)
    raise ConfigError(f"faulty: unrecognized specification {spec!r}")


def resolve_coalition(spec: Any) -> Optional[CoalitionConfig]:
    if spec is None:
        return None
    if not isinstance(spec, Mapping):
        raise ConfigError(f"coalition: expected a map, got {spec!r}")
    unknown = set(spec) - {"members", "strategy", "options"}
    if unknown:
        raise ConfigError(f"coalition: unknown keys {sorted(unknown)}")
    members = spec.get("members")
    if not members or not isinstance(members, (list, tuple)):
        raise ConfigError("coalition.members: need a list of agent ids")
    members = tuple(_coerce("coalition.members", u, int) for u in members)
    strategy = spec.get("strategy", "honest")
    if strategy not in STRATEGIES:
        raise ConfigError(f"coalition.strategy: unknown strategy {strategy!r}")
    options = spec.get("options") or {}
    if not isinstance(options, Mapping):
        raise ConfigError("coalition.options: expected a map")
    return CoalitionConfig(members=members, strategy=strategy,
                           options=dict(options))


def resolve_calibration(spec: Any) -> Calibration:
    if spec is None:
        return DEFAULT_CALIBRATION
    if isinstance(spec, Calibration):
        return spec
    if not isinstance(spec, Mapping) or set(spec) - {"beta1", "beta2"}:
        raise ConfigError(f"calibration: expected beta1/beta2, got {spec!r}")
    return Calibration(
        beta1=_coerce("calibration.beta1",
                      spec.get("beta1", DEFAULT_CALIBRATION.beta1), float),
        beta2=_coerce("calibration.beta2",
                      spec.get("beta2", DEFAULT_CALIBRATION.beta2), float))


def parse_config(doc: Optional[Mapping] = None,
                 overrides: Optional[Mapping] = None,
                 ) -> tuple[SimConfig, ExperimentConfig]:
    """Merge a config document with flag overrides and resolve both levels.

    Overrides win key by key; None overrides are ignored. All defaults are
    applied here (gamma 4, chi 1, sigma_mult 4, alpha 0.25).
    """
    merged: dict[str, Any] = dict(doc or {})
    for k, v in (overrides or {}).items():
        if v is not None:
            merged[k] = v
    unknown = set(merged) - _SIM_KEYS - _EXP_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "n" not in merged:
        raise ConfigError("n: required")
    n = merged["n"]
    if not isinstance(n, int) or n < 1:
        raise ConfigError(f"n: need a positive integer, got {n!r}")
    if n > MAX_AGENTS:
        # before any n-length colour or fault tuple is built
        raise ConfigError(f"n: need at most {MAX_AGENTS} so that the "
                          f"modulus n**3 can be drawn, got {n}")

    def read(key: str, default: Any, kind: type) -> Any:
        return _coerce(key, merged.get(key, default), kind)

    sizes = merged.get("sizes", (16, 64, 256))
    if not isinstance(sizes, (list, tuple)):
        raise ConfigError(f"sizes: expected a list, got {sizes!r}")
    exp = ExperimentConfig(
        trials=read("trials", 1000, int),
        seed=read("seed", 0, int),
        sigma_mult=read("sigma_mult", 4.0, float),
        max_fail_rate=read("max_fail_rate", 0.01, float),
        alpha=read("alpha", 0.25, float),
        sizes=tuple(_coerce("sizes", v, int) for v in sizes),
        calibration=resolve_calibration(merged.get("calibration")))
    if exp.trials < 1:
        raise ConfigError(f"trials: need at least 1, got {exp.trials}")
    if exp.seed < 0:
        raise ConfigError(f"seed: need a non-negative integer, got {exp.seed}")
    if not 0 <= exp.alpha <= 1:
        raise ConfigError(f"alpha: need a fraction in [0, 1], got {exp.alpha}")
    if not 0 <= exp.max_fail_rate <= 1:
        raise ConfigError(f"max_fail_rate: need a fraction in [0, 1], "
                          f"got {exp.max_fail_rate}")
    if exp.sigma_mult <= 0:
        raise ConfigError(f"sigma_mult: need a positive number, "
                          f"got {exp.sigma_mult}")
    if any(size < 1 for size in exp.sizes):
        raise ConfigError(f"sizes: need positive agent counts, "
                          f"got {list(exp.sizes)}")

    colors = expand_colors(merged.get("colors"), n)
    num_colors = read("num_colors", max(2, max(colors, default=2)), int)
    sim = SimConfig(
        n=n,
        gamma=read("gamma", 4.0, float),
        colors=colors,
        chi=read("chi", 1.0, float),
        num_colors=num_colors,
        faulty=resolve_faulty(merged.get("faulty"), n, colors, exp.seed,
                              exp.alpha),
        coalition=resolve_coalition(merged.get("coalition")),
        master_seed=exp.seed)
    params = validate_config(sim)
    if sim.coalition is not None:
        # a strategy checks its options when built: fail before any trial
        make_strategy(sim.coalition.strategy, AdversaryContext(
            params=params, members=sim.coalition.members,
            options=dict(sim.coalition.options),
            rng=derive_stream(exp.seed, STRATEGY_STREAM_TAG)))
    return sim, exp
