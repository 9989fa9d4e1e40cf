"""Line-oriented "key = value" run configuration.

'#' starts a comment, lists are comma-separated, unknown keys are errors.
Perturbation modes are colon-separated tuples field:axis:wavenumber:amplitude
(e.g. ``perturb_modes = omega:0:2:0.05, k:1:1:0.1``).  Each key's type is its
`RunConfig` annotation.

Every check raises `ValidationError` naming the key, and each has one owner.
`Grid`, `ModelParams` and `StepConfig` check their own fields; their fields
are named like the config keys, and parsing builds all three, so their checks
run at parse time.  `_validate` checks the rest at parse time: every real must
be finite (except dt_max), plus the sampling, envelope, initial-data, forcing
and seed keys.  The pointwise initial-data constraints (omega0 within
[omega_star, omega_sup], k0 >= k_star) and the snapshot grid, which must equal
Grid(dim, n, side), are checked when the state is built.
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
    scheme: str = "explicit_rk2"
    cfl_safety: float = 0.4
    dt_max: float = math.inf
    picard_max_iters: int = 200
    picard_tol: float = 1e-10
    guard: bool = True
    # closure coefficients and regularization
    nu0: float = 1.0
    nu1: float = 1.0
    nu2: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 1.0
    eps: float = 0.0
    r: float = 3.2
    regularized: bool = False
    # envelope bounds (non-positive means: derive from the initial data)
    omega_star: float = 0.0
    omega_sup: float = 0.0
    k_star: float = 0.0
    # initial data
    ic: str = "homogeneous"  # homogeneous | perturbed | snapshot
    ic_u: Tuple[float, ...] = ()
    ic_omega0: float = 1.0
    ic_k0: float = 1.0
    perturb_modes: Tuple[PerturbMode, ...] = ()
    perturb_random_modes: int = 0
    perturb_random_amplitude: float = 0.0
    snapshot_path: str = ""
    # forcing
    forcing: str = "none"  # none | constant | single_mode
    forcing_vector: Tuple[float, ...] = ()
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


_BOOL = {"true": True, "false": False, "on": True, "off": False, "1": True, "0": False}


def _parse_bool(text: str) -> bool:
    if text.lower() not in _BOOL:
        raise ValueError(f"expected a boolean, got {text!r}")
    return _BOOL[text.lower()]


def _parse_float_list(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated reals, got {text!r}") from None


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
    Tuple[float, ...]: _parse_float_list,
    Tuple[PerturbMode, ...]: _parse_modes,
}
# the reals that must be finite: every float or float-list key but dt_max, whose default is inf
_FINITE = [k for k, kind in _KINDS.items() if kind in (float, Tuple[float, ...]) and k != "dt_max"]


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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _from_cfg(cls, cfg: RunConfig):
    """`cls` built from the config keys named like its fields; its constructor checks them."""
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


def _require(cond: bool, fieldname: str, constraint: str):
    if not cond:
        raise ValidationError(fieldname, constraint)


def _validate(cfg: RunConfig):
    """Check what no constructor owns, after Grid, ModelParams and StepConfig check theirs."""
    for cls in (Grid, ModelParams, StepConfig):
        _from_cfg(cls, cfg)
    for name in _FINITE:
        _require(np.isfinite(getattr(cfg, name)).all(), name, "must be finite")
    _require(cfg.t_end >= 0, "t_end", "must be nonnegative")
    _require(cfg.sample_every >= 0, "sample_every", "must be nonnegative")
    if cfg.scheme == "rothe_picard":
        _require(cfg.regularized, "scheme", "rothe_picard requires regularized = true")
    for name in ("omega_star", "omega_sup", "k_star"):
        _require(getattr(cfg, name) >= 0, name, "must be nonnegative (0 = derive from IC)")
    if cfg.omega_star > 0 or cfg.omega_sup > 0:
        _require(
            cfg.omega_star > 0 and cfg.omega_sup >= cfg.omega_star,
            "omega_star",
            "need 0 < omega_star <= omega_sup when either is given",
        )
    _require(cfg.ic in ("homogeneous", "perturbed", "snapshot"), "ic", "unknown initial data kind")
    if cfg.ic == "snapshot":
        _require(bool(cfg.snapshot_path), "snapshot_path", "required for ic = snapshot")
    else:
        _require(cfg.ic_omega0 > 0, "ic_omega0", "must be positive")
        _require(cfg.ic_k0 > 0, "ic_k0", "must be positive")
        _require(
            len(cfg.ic_u) in (0, cfg.dim), "ic_u", f"must have {cfg.dim} entries (or be omitted)"
        )
    for m in cfg.perturb_modes:
        _require(
            m.target in ("omega", "k") or m.target in tuple(f"u{i+1}" for i in range(cfg.dim)),
            "perturb_modes",
            f"unknown target {m.target!r}",
        )
        _require(0 <= m.axis < cfg.dim, "perturb_modes", f"axis {m.axis} out of range")
        _require(
            1 <= m.wavenumber < cfg.n // 2,
            "perturb_modes",
            f"wavenumber {m.wavenumber} not resolvable on n = {cfg.n}",
        )
        _require(math.isfinite(m.amplitude), "perturb_modes", "amplitudes must be finite")
    _require(cfg.perturb_random_modes >= 0, "perturb_random_modes", "must be nonnegative")
    _require(cfg.forcing in ("none", "constant", "single_mode"), "forcing", "unknown forcing kind")
    if cfg.forcing == "constant":
        _require(
            len(cfg.forcing_vector) == cfg.dim, "forcing_vector", f"must have {cfg.dim} entries"
        )
    if cfg.forcing == "single_mode":
        _require(0 <= cfg.forcing_axis < cfg.dim, "forcing_axis", "out of range")
        _require(0 <= cfg.forcing_component < cfg.dim, "forcing_component", "out of range")
        _require(
            1 <= cfg.forcing_wavenumber < cfg.n // 2,
            "forcing_wavenumber",
            f"wavenumber {cfg.forcing_wavenumber} not resolvable on n = {cfg.n}",
        )
    _require(cfg.seed >= 0, "seed", "must be a nonnegative integer")


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

    u_const = cfg.ic_u if cfg.ic_u else (0.0,) * cfg.dim
    u_arrays = [np.full(grid.shape, v) for v in u_const]
    om = np.full(grid.shape, cfg.ic_omega0)
    kk = np.full(grid.shape, cfg.ic_k0)

    if cfg.ic == "perturbed":
        modes = [(m, 0.0) for m in cfg.perturb_modes]
        if cfg.perturb_random_modes > 0:
            rng = np.random.default_rng(cfg.seed)
            targets = ["omega", "k"] + [f"u{i+1}" for i in range(cfg.dim)]
            for _ in range(cfg.perturb_random_modes):
                m = PerturbMode(
                    target=str(rng.choice(targets)),
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
                i = int(m.target[1:]) - 1
                u_arrays[i] = u_arrays[i] + bump

    u, p = leray_project(grid, np.stack(u_arrays))
    return State(t=0.0, grid=grid, u=u, omega=om, k=kk, p=p)


def _build_env(cfg: RunConfig, state: State) -> ComparisonEnvelope:
    om_min, om_max = float(state.omega.min()), float(state.omega.max())
    k_min = float(state.k.min())
    omega_star = cfg.omega_star if cfg.omega_star > 0 else om_min
    omega_sup = cfg.omega_sup if cfg.omega_sup > 0 else om_max
    k_star = cfg.k_star if cfg.k_star > 0 else k_min
    if not om_min > 0:
        raise ValidationError("ic", "initial omega must be positive everywhere")
    if not k_min > 0:
        raise ValidationError("ic", "initial k must be positive everywhere")
    tol = 1e-12 * max(1.0, om_max)
    if om_min < omega_star - tol or om_max > omega_sup + tol:
        raise ValidationError(
            "ic", "initial omega must satisfy omega_star <= omega <= omega_sup pointwise"
        )
    if k_min < k_star - tol:
        raise ValidationError("ic", "initial k must satisfy k >= k_star pointwise")
    return ComparisonEnvelope(omega_star=omega_star, omega_sup=omega_sup, k_star=k_star)


def _build_forcing(cfg: RunConfig, grid: Grid) -> Optional[np.ndarray]:
    if cfg.forcing == "none":
        return None
    if cfg.forcing == "constant":
        return np.stack([np.full(grid.shape, v) for v in cfg.forcing_vector])
    forcing = np.zeros((grid.dim,) + grid.shape)
    forcing[cfg.forcing_component] = _mode_array(
        grid, cfg.forcing_axis, cfg.forcing_wavenumber, cfg.forcing_amplitude
    )
    return forcing


@dataclass(frozen=True)
class Problem:
    """Everything a command needs to run one simulation."""

    cfg: RunConfig
    grid: Grid
    state: State
    env: ComparisonEnvelope
    params: ModelParams
    step: StepConfig
    forcing: Optional[np.ndarray]


def build_problem(cfg: RunConfig) -> Problem:
    grid = _from_cfg(Grid, cfg)
    state = _build_state(cfg, grid)
    return Problem(
        cfg=cfg,
        grid=grid,
        state=state,
        env=_build_env(cfg, state),
        params=_from_cfg(ModelParams, cfg),
        step=_from_cfg(StepConfig, cfg),
        forcing=_build_forcing(cfg, grid),
    )
