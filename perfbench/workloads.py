"""The benchmark's workloads: a kolmobox CLI command and the config it runs.

The seed reaches the program only through the generated config: the three
non-homogeneous workloads get `seed = <seed>` plus a few small random
perturbation modes on top of their fixed modes, and `decay_1d` stays exactly
homogeneous so its closed-form reference holds.  Run lengths (`t_end`) are
set so that one command takes a few seconds on a 2-core box, which lets one
benchmark run time several commands.
"""

import math
from dataclasses import dataclass

TWO_PI = repr(2.0 * math.pi)
ALPHA2 = repr(10.0 / 7.0)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    settings: tuple  # (key, value) config lines, in file order
    random_modes: int = 0
    random_amplitude: float = 0.0

    def setting(self, key):
        return dict(self.settings)[key]

    @property
    def t_end(self) -> float:
        return float(self.setting("t_end"))

    @property
    def sample_every(self) -> float:
        return float(self.setting("sample_every"))

    @property
    def samples(self) -> int:
        """Records in series.ndjson: t = 0, then every sample_every up to t_end."""
        return 1 + round(self.t_end / self.sample_every)

    def config_text(self, seed: int) -> str:
        lines = [f"{k} = {v}" for k, v in self.settings]
        if self.random_modes:
            lines += [
                f"seed = {seed}",
                f"perturb_random_modes = {self.random_modes}",
                f"perturb_random_amplitude = {self.random_amplitude!r}",
            ]
        return "\n".join(lines) + "\n"


REGULARIZED_2D = (
    ("dim", "2"),
    ("side", TWO_PI),
    ("regularized", "true"),
    ("eps", "1e-3"),
    ("r", "3.2"),
    ("alpha2", ALPHA2),
    ("guard", "false"),
    ("ic", "perturbed"),
    ("perturb_modes", "u1:1:1:2.0, u2:0:2:2.0, omega:0:1:0.1, k:1:1:0.5"),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "decay_1d",
            "decay",
            "4-point arrays, so per-call overhead is the whole cost; closed-form reference",
            (
                ("dim", "1"),
                ("n", "4"),
                ("alpha1", "1.0"),
                ("alpha2", ALPHA2),
                ("dt_max", "0.01"),
                ("t_end", "20.0"),
                ("sample_every", "0.5"),
            ),
        ),
        Workload(
            "envelope_2d_reg",
            "run",
            "arithmetic on 16k-point arrays (rhs, r-Laplacian, projection) plus a snapshot per sample",
            REGULARIZED_2D
            + (("n", "128"), ("t_end", "0.02"), ("sample_every", "0.0025")),
            random_modes=3,
            random_amplitude=0.01,
        ),
        Workload(
            "rothe_2d_reg",
            "run",
            "the only workload that runs step_rothe, operator_apply and the Picard loop",
            REGULARIZED_2D
            + (
                ("n", "64"),
                ("scheme", "rothe_picard"),
                ("t_end", "0.02"),
                ("sample_every", "0.004"),
            ),
            random_modes=3,
            random_amplitude=0.01,
        ),
        Workload(
            "forced_3d_pair",
            "bounds",
            "3D stencils and FFTs, unregularized forced branch, and the CLI's concurrent refinement pair",
            (
                ("dim", "3"),
                ("n", "16"),
                ("side", TWO_PI),
                ("forcing", "single_mode"),
                ("forcing_axis", "1"),
                ("forcing_wavenumber", "1"),
                ("forcing_amplitude", "0.5"),
                ("forcing_component", "0"),
                ("ic", "perturbed"),
                ("perturb_modes", "u1:1:1:0.5, u2:2:1:0.5, u3:0:1:0.5, omega:0:1:0.1, k:2:1:0.2"),
                ("dt_max", "0.01"),
                ("t_end", "0.15"),
                ("sample_every", "0.025"),
            ),
            random_modes=3,
            random_amplitude=0.01,
        ),
    )
}


def decay_reference(t: float, alpha2: float):
    """Closed-form homogeneous (omega, k) at t for omega0 = k0 = alpha1 = 1."""
    s = 1.0 + t
    return 1.0 / s, 1.0 / s**alpha2
