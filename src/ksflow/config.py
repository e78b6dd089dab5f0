"""Flat key = value run configuration with section headers.

No nesting: every line is `key = value` under a `[section]` header, blank
lines and #-comments allowed.  Unknown sections or keys and a key given twice
in one section are errors, so a config file can never silently misspell or
override a knob.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import get_type_hints

import numpy as np

from .grids import FieldError, RadialGrid
from .diagnostics import MONITORS
from .solver import SolverConfig, SolverError

DEFAULT_MONITORS = tuple(MONITORS)


def _names(text: str) -> tuple:
    """A comma-separated list of names, blanks dropped."""
    return tuple(name.strip() for name in text.split(",") if name.strip())


#: section -> key -> parser.  Parsing and the report echo both follow this
#: table, in this order.  The [solver] keys are the SolverConfig fields; the
#: other keys are RunConfig attributes, renamed where _ATTRIBUTE says so.
_SCHEMA = {
    "run": {"scenario": str, "seed": int, "out": str},
    "solver": get_type_hints(SolverConfig),
    "initial": {"kind": str, "sigma": float, "mass": float, "amplitude": float},
    "monitors": {"enabled": _names},
}
_ATTRIBUTE = {"kind": "initial_kind", "enabled": "monitors"}


def _format(value) -> str:
    """The echo form of a config value (floats by repr, so they parse back exactly)."""
    if isinstance(value, tuple):
        return ", ".join(value)
    return repr(value) if isinstance(value, float) else str(value)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    scenario: str = "run"
    # recorded in the report only: the radial solver draws no random numbers
    seed: int = 0
    out: str = "out"
    solver: SolverConfig = field(default_factory=SolverConfig)
    initial_kind: str = "gaussian"
    sigma: float = 1.0
    mass: float | None = 1.0
    amplitude: float | None = None
    monitors: tuple = DEFAULT_MONITORS

    def echo_lines(self) -> list:
        """The config as it will be reproduced verbatim in the run report.

        The initial data echo one of amplitude (when set) and mass.
        """
        lines = []
        for section, keys in _SCHEMA.items():
            owner = self.solver if section == "solver" else self
            lines += ["", f"[{section}]"]
            for key in keys:
                value = getattr(owner, _ATTRIBUTE.get(key, key))
                if value is None or (key == "mass" and self.amplitude is not None):
                    continue
                lines.append(f"{key} = {_format(value)}")
        return lines[1:]


#: the rule for the sigma of Gaussian initial data, as the errors state it;
#: sigma^2 and (2 pi sigma^2)^(-3/2) are the factors `gaussian_field` computes
SIGMA_RULE = "finite and > 0 with sigma^2 and (2 pi sigma^2)^(-3/2) finite normal floats"


def sigma_ok(sigma: float) -> bool:
    """Whether sigma obeys SIGMA_RULE ([initial] sigma, compare-blowup --sigma)."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        return False
    try:
        factors = (sigma**2, (2.0 * math.pi * sigma**2) ** -1.5)
    except (OverflowError, ZeroDivisionError):
        return False
    return all(sys.float_info.min <= x < math.inf for x in factors)


def gaussian_vanishes(grid: RadialGrid, sigma: float, mass: float | None = None,
                      amplitude: float | None = None) -> bool:
    """Whether Gaussian data of positive mass or amplitude (the one not None)
    round to zero in every cell of grid, as `gaussian_field` computes them.

    The first cell holds the largest value, so only it is evaluated.  sigma
    must obey SIGMA_RULE ([initial] data, compare-blowup --sigma).
    """
    peak = amplitude if amplitude is not None else mass * (2.0 * np.pi * sigma**2) ** -1.5
    with np.errstate(over="ignore"):  # (r/sigma)^2 = inf: exp gives the 0 it means
        first = peak * np.exp(-0.5 * (grid.centers[:1] / sigma) ** 2)
    return peak > 0.0 and first[0] == 0.0


def _check_initial(cfg: RunConfig) -> None:
    """sigma by SIGMA_RULE; mass >= 0 and amplitude >= 0, both finite (None:
    not given); Gaussian data of positive size not all zeros on the grid."""
    if not sigma_ok(cfg.sigma):
        raise ConfigError(f"[initial] sigma must be {SIGMA_RULE}, got {cfg.sigma!r}")
    for key in ("mass", "amplitude"):
        value = getattr(cfg, key)
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"[initial] {key} must be finite and >= 0, got {value!r}")
    if cfg.initial_kind == "gaussian" and gaussian_vanishes(
            cfg.solver.grid(), cfg.sigma, cfg.mass, cfg.amplitude):
        size = "mass" if cfg.amplitude is None else "amplitude"
        raise ConfigError(f"[initial] sigma = {cfg.sigma!r} with {size} = "
                          f"{getattr(cfg, size)!r} rounds to zero in every cell "
                          f"of the grid")


def parse_config_text(text: str) -> RunConfig:
    section = None
    values: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in lines:
            raise ConfigError(f"line {lineno}: key {key!r} in [{section}] repeats "
                              f"line {lines[(section, key)]}")
        lines[(section, key)] = lineno
        caster = _SCHEMA[section][key]
        try:
            values[(section, key)] = caster(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc

    if ("initial", "amplitude") in values and ("initial", "mass") in values:
        raise ConfigError("give either mass or amplitude for the initial data, not both")
    solver_kwargs = {}
    run_kwargs = {}
    for (section, key), value in values.items():
        target = solver_kwargs if section == "solver" else run_kwargs
        target[_ATTRIBUTE.get(key, key)] = value
    if "amplitude" in run_kwargs:
        run_kwargs["mass"] = None
    try:
        solver = SolverConfig(**solver_kwargs)
        solver.grid()  # the grid is validated here, not at the first step
    except (SolverError, FieldError) as exc:
        raise ConfigError(str(exc)) from exc
    cfg = RunConfig(solver=solver, **run_kwargs)
    # the output files are named <scenario>.ckpt and so on, in the out directory
    if cfg.scenario in ("", ".", "..") or {"/", os.sep, os.altsep} & set(cfg.scenario):
        raise ConfigError(f"[run] scenario must be a plain file-name stem, "
                          f"got {cfg.scenario!r}")
    if cfg.initial_kind not in ("gaussian", "zero"):
        raise ConfigError(f"unknown initial kind {cfg.initial_kind!r}")
    _check_initial(cfg)
    unknown = set(cfg.monitors) - set(DEFAULT_MONITORS)
    if unknown:
        raise ConfigError(f"unknown monitors: {sorted(unknown)}")
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config_text(fh.read())
