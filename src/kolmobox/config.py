"""Line-oriented "key = value" run configuration.

'#' starts a comment, unknown keys are errors, and the file must be UTF-8.
Perturbation modes are a comma-separated list of colon-separated tuples
field:axis:wavenumber:amplitude (``perturb_modes = omega:0:2:0.05, k:1:1:0.1``).
Each key's type is its `RunConfig` annotation.  Each default is written once:
`StepConfig` owns those of the stepping keys, `ModelParams` those of the
closure and regularization keys, and `RunConfig` the rest.

Every check raises `ValidationError` naming the key, and each has one owner.
`Grid`, `ModelParams` and `StepConfig` check their own fields (named like the
config keys) when parsing builds them; `_validate` checks the rest: every real
must be finite (except dt_max), plus the sampling, initial-data, forcing and
seed keys, and that no key the rest of the config leaves unread (`_ONLY_WITH`)
differs from its default.  The initial omega and k, which must be positive
everywhere, and a snapshot's grid, which must equal Grid(dim, n, side), are
checked when the state is built; the comparison envelope is the tightest one
of that state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple, get_type_hints

import numpy as np

from . import snapshot as snap
from .errors import ParseError, ValidationError
from .fields import Grid, leray_project
from .model import ComparisonEnvelope, ModelParams, State
from .timestepper import StepConfig

__all__ = ["PerturbMode", "RunConfig", "parse_config", "load_config", "build_problem"]


@dataclass(frozen=True)
class PerturbMode:
    target: str  # "omega", "k" or "u1".."u3"
    axis: int
    wavenumber: int
    amplitude: float


@dataclass(frozen=True)
class RunConfig:
    # discretization
    dim: int = 2
    n: int = 32
    side: float = 1.0
    t_end: float = 1.0
    sample_every: float = 0.0  # 0 means t_end / 50
    # stepping
    scheme: str = StepConfig.scheme
    cfl_safety: float = StepConfig.cfl_safety
    dt_max: float = StepConfig.dt_max
    guard: bool = StepConfig.guard
    # closure coefficients and regularization
    nu0: float = ModelParams.nu0
    nu1: float = ModelParams.nu1
    nu2: float = ModelParams.nu2
    alpha1: float = ModelParams.alpha1
    alpha2: float = ModelParams.alpha2
    eps: float = ModelParams.eps
    r: float = ModelParams.r
    regularized: bool = ModelParams.regularized
    # initial data
    ic: str = "homogeneous"  # homogeneous | perturbed | snapshot
    ic_omega0: float = 1.0
    ic_k0: float = 1.0
    perturb_modes: Tuple[PerturbMode, ...] = ()
    perturb_random_modes: int = 0
    perturb_random_amplitude: float = 0.0
    snapshot_path: str = ""
    # forcing
    forcing: str = "none"  # none | single_mode
    forcing_axis: int = 0
    forcing_wavenumber: int = 1
    forcing_amplitude: float = 0.0
    forcing_component: int = 0
    # misc
    seed: int = 0
    out_dir: str = "out"

    @property
    def sample_interval(self) -> float:
        """`sample_every`, or t_end / 50 (at least 1e-12) when it is 0."""
        return self.sample_every if self.sample_every > 0 else max(self.t_end / 50.0, 1e-12)


# keys that some configs leave unread: key -> (whether a config reads it, when it does)
_PERTURBED = (lambda c: c.ic == "perturbed", "ic = perturbed")
_BUILT_IC = (lambda c: c.ic != "snapshot", "ic = homogeneous or perturbed")
_SINGLE_MODE = (lambda c: c.forcing == "single_mode", "forcing = single_mode")
_ONLY_WITH = dict(
    perturb_modes=_PERTURBED, perturb_random_modes=_PERTURBED, perturb_random_amplitude=_PERTURBED,
    snapshot_path=(lambda c: c.ic == "snapshot", "ic = snapshot"),
    ic_omega0=_BUILT_IC, ic_k0=_BUILT_IC,
    forcing_axis=_SINGLE_MODE, forcing_wavenumber=_SINGLE_MODE, forcing_amplitude=_SINGLE_MODE,
    forcing_component=_SINGLE_MODE,
    r=(lambda c: c.regularized, "regularized = true"),
)
# what a perturbation mode may target: the first 2 + dim, drawn in this order by random modes
_TARGETS = ("omega", "k", "u1", "u2", "u3")
_BOOL = {"true": True, "false": False, "on": True, "off": False, "1": True, "0": False}


def _parse_bool(text: str) -> bool:
    if text.lower() not in _BOOL:
        raise ValueError(f"expected a boolean, got {text!r}")
    return _BOOL[text.lower()]


def _parse_modes(text: str) -> Tuple[PerturbMode, ...]:
    modes = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 4:
            raise ValueError(f"expected field:axis:wavenumber:amplitude, got {item!r}")
        try:
            modes.append(
                PerturbMode(parts[0].strip(), int(parts[1]), int(parts[2]), float(parts[3]))
            )
        except ValueError:
            raise ValueError(f"bad numbers in {item!r}") from None
    return tuple(modes)


# the schema: each key's type, from RunConfig's annotations, and one parser per type
_KINDS = get_type_hints(RunConfig)
_PARSERS = {
    int: int,
    float: float,
    str: str,
    bool: _parse_bool,
    Tuple[PerturbMode, ...]: _parse_modes,
}
# the reals that must be finite: every float key but dt_max, whose default is inf
_FINITE = [k for k, kind in _KINDS.items() if kind is float and k != "dt_max"]


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text; unknown keys and bad values fail fast."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError(lineno, f"expected 'key = value', got {body!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KINDS:
            raise ParseError(lineno, f"unknown key {key!r}")
        if key in raw:
            raise ParseError(lineno, f"duplicate key {key!r}")
        kind = _KINDS[key]
        try:
            raw[key] = _PARSERS[kind](value)
        except ValueError as exc:
            why = f"could not parse {value!r}" if kind in (int, float) else exc
            raise ParseError(lineno, f"{key}: {why}") from None

    cfg = RunConfig(**raw)
    _validate(cfg)
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, "not valid UTF-8") from None
    return parse_config(text)


def _from_cfg(cls, cfg: RunConfig):
    """`cls` built from the config keys named like its fields; its constructor checks them."""
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


def _require(cond: bool, fieldname: str, constraint: str):
    if not cond:
        raise ValidationError(fieldname, constraint)


def _require_resolvable(m: int, n: int, fieldname: str):
    _require(1 <= m < n // 2, fieldname, f"wavenumber {m} not resolvable on n = {n}")


def _validate(cfg: RunConfig):
    """Check what no constructor owns, after Grid, ModelParams and StepConfig check theirs."""
    for cls in (Grid, ModelParams, StepConfig):
        _from_cfg(cls, cfg)
    for name in _FINITE:
        _require(math.isfinite(getattr(cfg, name)), name, "must be finite")
    _require(cfg.t_end >= 0, "t_end", "must be nonnegative")
    _require(cfg.sample_every >= 0, "sample_every", "must be nonnegative")
    if cfg.scheme == "rothe_picard":
        _require(cfg.regularized, "scheme", "rothe_picard requires regularized = true")
    _require(cfg.ic in ("homogeneous", "perturbed", "snapshot"), "ic", "unknown initial data kind")
    if cfg.ic == "snapshot":
        _require(bool(cfg.snapshot_path), "snapshot_path", "required for ic = snapshot")
    else:
        _require(cfg.ic_omega0 > 0, "ic_omega0", "must be positive")
        _require(cfg.ic_k0 > 0, "ic_k0", "must be positive")
    for m in cfg.perturb_modes:
        _require(
            m.target in _TARGETS[: 2 + cfg.dim], "perturb_modes", f"unknown target {m.target!r}"
        )
        _require(0 <= m.axis < cfg.dim, "perturb_modes", f"axis {m.axis} out of range")
        _require_resolvable(m.wavenumber, cfg.n, "perturb_modes")
        _require(math.isfinite(m.amplitude), "perturb_modes", "amplitudes must be finite")
    _require(cfg.perturb_random_modes >= 0, "perturb_random_modes", "must be nonnegative")
    _require(cfg.forcing in ("none", "single_mode"), "forcing", "unknown forcing kind")
    if cfg.forcing == "single_mode":
        _require(0 <= cfg.forcing_axis < cfg.dim, "forcing_axis", "out of range")
        _require(0 <= cfg.forcing_component < cfg.dim, "forcing_component", "out of range")
        _require_resolvable(cfg.forcing_wavenumber, cfg.n, "forcing_wavenumber")
    _require(cfg.seed >= 0, "seed", "must be a nonnegative integer")
    for key, (reads, when) in _ONLY_WITH.items():
        unread = not reads(cfg) and getattr(cfg, key) != getattr(RunConfig, key)
        _require(not unread, key, f"is read only when {when}")


# ---------------------------------------------------------------------------
# constructing the simulation objects


def _mode_array(grid: Grid, axis: int, wavenumber: int, amplitude: float, phase: float = 0.0):
    x = grid.coords()[axis]
    return amplitude * np.sin(2.0 * np.pi * wavenumber * x / grid.side + phase)


def _build_state(cfg: RunConfig, grid: Grid) -> State:
    if cfg.ic == "snapshot":
        state = snap.state_from_snapshot(cfg.snapshot_path)
        if state.grid != grid:
            raise ValidationError(
                "snapshot_path", f"snapshot grid {state.grid} differs from the config grid {grid}"
            )
        return state

    u = np.zeros((cfg.dim,) + grid.shape)
    om = np.full(grid.shape, cfg.ic_omega0)
    kk = np.full(grid.shape, cfg.ic_k0)

    if cfg.ic == "perturbed":
        modes = [(m, 0.0) for m in cfg.perturb_modes]
        if cfg.perturb_random_modes > 0:
            rng = np.random.default_rng(cfg.seed)
            for _ in range(cfg.perturb_random_modes):
                m = PerturbMode(
                    target=str(rng.choice(_TARGETS[: 2 + cfg.dim])),
                    axis=int(rng.integers(0, cfg.dim)),
                    wavenumber=int(rng.integers(1, max(2, cfg.n // 4))),
                    amplitude=cfg.perturb_random_amplitude * float(rng.uniform(-1.0, 1.0)),
                )
                modes.append((m, float(rng.uniform(0.0, 2.0 * np.pi))))
        for m, phase in modes:
            bump = _mode_array(grid, m.axis, m.wavenumber, m.amplitude, phase)
            if m.target == "omega":
                om = om + bump
            elif m.target == "k":
                kk = kk + bump
            else:
                u[int(m.target[1:]) - 1] += bump

    u, _ = leray_project(grid, u)
    return State(t=0.0, grid=grid, u=u, omega=om, k=kk)


def _build_env(state: State) -> ComparisonEnvelope:
    """The tightest envelope of the initial state: its least and largest omega, its least k."""
    om_min, k_min = float(state.omega.min()), float(state.k.min())
    if not om_min > 0:
        raise ValidationError("ic", "initial omega must be positive everywhere")
    if not k_min > 0:
        raise ValidationError("ic", "initial k must be positive everywhere")
    return ComparisonEnvelope(omega_star=om_min, omega_sup=float(state.omega.max()), k_star=k_min)


def _build_forcing(cfg: RunConfig, grid: Grid) -> Optional[np.ndarray]:
    if cfg.forcing == "none":
        return None
    forcing = np.zeros((grid.dim,) + grid.shape)
    forcing[cfg.forcing_component] = _mode_array(
        grid, cfg.forcing_axis, cfg.forcing_wavenumber, cfg.forcing_amplitude
    )
    return forcing


@dataclass(frozen=True)
class Problem:
    """One run, as the solver takes it: advance `state` to `t_end` under `forcing`,
    `params`, the comparison envelope `env` and the step control `step`, sampling
    every `sample_every` (the config's `sample_every`, or t_end / 50 when it is 0)."""

    state: State
    env: ComparisonEnvelope
    params: ModelParams
    step: StepConfig
    forcing: Optional[np.ndarray]
    t_end: float
    sample_every: float


def build_problem(cfg: RunConfig) -> Problem:
    grid = _from_cfg(Grid, cfg)
    state = _build_state(cfg, grid)
    return Problem(
        state=state,
        env=_build_env(state),
        params=_from_cfg(ModelParams, cfg),
        step=_from_cfg(StepConfig, cfg),
        forcing=_build_forcing(cfg, grid),
        t_end=cfg.t_end,
        sample_every=cfg.sample_interval,
    )
