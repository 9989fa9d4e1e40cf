"""Config parsing, validation, and problem construction."""

import numpy as np
import pytest

from kolmobox import config as C
from kolmobox.errors import ParseError, ValidationError

MINIMAL = """
# minimal homogeneous run
dim = 1
n = 8
t_end = 1.0
"""


class TestParse:
    def test_minimal_with_defaults(self):
        cfg = C.parse_config(MINIMAL)
        assert cfg.dim == 1 and cfg.n == 8 and cfg.t_end == 1.0
        assert cfg.side == 1.0
        assert cfg.scheme == "explicit_rk2"
        assert cfg.ic == "homogeneous"
        assert cfg.nu0 == 1.0 and cfg.alpha1 == 1.0
        assert cfg.guard is True
        assert cfg.out_dir == "out"

    def test_comments_and_blank_lines(self):
        cfg = C.parse_config("dim = 2 # trailing comment\n\n# full line\nn = 16\nt_end = 1\n")
        assert cfg.dim == 2 and cfg.n == 16

    def test_unknown_key(self):
        with pytest.raises(ParseError) as exc:
            C.parse_config("dim = 1\nnn = 8\n")
        assert exc.value.line == 2

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            C.parse_config("dim = 1\ndim = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            C.parse_config("dim 1\n")

    def test_bad_number(self):
        with pytest.raises(ParseError):
            C.parse_config("n = eight\n")

    def test_negative_alpha2_rejected(self):
        with pytest.raises(ValidationError) as exc:
            C.parse_config(MINIMAL + "alpha2 = -1\n")
        assert exc.value.field == "alpha2"
        assert "positive" in exc.value.constraint

    def test_mode_list(self):
        cfg = C.parse_config(
            "dim = 2\nn = 16\nt_end = 1\nic = perturbed\n"
            "perturb_modes = omega:0:2:0.05, k:1:1:0.1\n"
        )
        assert len(cfg.perturb_modes) == 2
        m = cfg.perturb_modes[0]
        assert (m.target, m.axis, m.wavenumber, m.amplitude) == ("omega", 0, 2, 0.05)

    def test_bad_mode_spec(self):
        with pytest.raises(ParseError):
            C.parse_config("dim = 2\nn = 16\nt_end = 1\nperturb_modes = omega:0:2\n")

    def test_unresolvable_wavenumber(self):
        with pytest.raises(ValidationError):
            C.parse_config(
                "dim = 1\nn = 8\nt_end = 1\nic = perturbed\nperturb_modes = omega:0:4:0.1\n"
            )

    @pytest.mark.parametrize("wavenumber", [4, 5, 8])
    def test_unresolvable_forcing_wavenumber(self, wavenumber):
        with pytest.raises(ValidationError, match="forcing_wavenumber"):
            C.parse_config(
                MINIMAL + f"forcing = single_mode\nforcing_wavenumber = {wavenumber}\n"
            )

    def test_rothe_requires_regularized(self):
        with pytest.raises(ValidationError):
            C.parse_config(MINIMAL + "scheme = rothe_picard\n")


class TestBuildProblem:
    def test_homogeneous_env_derived(self):
        cfg = C.parse_config(MINIMAL + "ic_omega0 = 2.0\nic_k0 = 0.5\n")
        p = C.build_problem(cfg)
        assert p.env.omega_star == pytest.approx(2.0)
        assert p.env.omega_sup == pytest.approx(2.0)
        assert p.env.k_star == pytest.approx(0.5)
        assert p.state.omega.flat[0] == 2.0

    def test_perturbed_state_and_env(self):
        cfg = C.parse_config(
            "dim = 2\nn = 16\nt_end = 1\nic = perturbed\n"
            "perturb_modes = omega:0:2:0.1, u1:1:1:0.3\n"
        )
        p = C.build_problem(cfg)
        assert p.env.omega_star == pytest.approx(0.9, rel=1e-6)
        assert p.env.omega_sup == pytest.approx(1.1, rel=1e-6)
        # initial velocity is projected
        import kolmobox.fields as F

        assert np.abs(F.divergence(p.grid, p.state.u)).max() <= 1e-12

    def test_omega_pushed_below_star_rejected(self):
        text = (
            "dim = 1\nn = 16\nt_end = 1\nic = perturbed\n"
            "omega_star = 1.0\nomega_sup = 1.1\n"
            "perturb_modes = omega:0:1:0.5\n"
        )
        with pytest.raises(ValidationError) as exc:
            C.build_problem(C.parse_config(text))
        assert exc.value.field == "ic"
        assert "omega_star" in exc.value.constraint

    def test_k_below_star_rejected(self):
        text = (
            "dim = 1\nn = 16\nt_end = 1\nic = perturbed\n"
            "k_star = 1.0\n"
            "perturb_modes = k:0:1:0.5\n"
        )
        with pytest.raises(ValidationError):
            C.build_problem(C.parse_config(text))

    def test_nonpositive_omega_rejected(self):
        text = "dim = 1\nn = 16\nt_end = 1\nic = perturbed\nperturb_modes = omega:0:1:2.0\n"
        with pytest.raises(ValidationError):
            C.build_problem(C.parse_config(text))

    def test_random_perturbation_deterministic(self):
        text = (
            "dim = 2\nn = 16\nt_end = 1\nic = perturbed\nseed = 42\n"
            "perturb_random_modes = 5\nperturb_random_amplitude = 0.01\n"
        )
        p1 = C.build_problem(C.parse_config(text))
        p2 = C.build_problem(C.parse_config(text))
        assert np.array_equal(p1.state.omega, p2.state.omega)
        assert not np.all(p1.state.omega == 1.0)

    def test_forcing_builders(self):
        cfg = C.parse_config(MINIMAL + "forcing = constant\nforcing_vector = 0.5\n")
        p = C.build_problem(cfg)
        assert p.forcing is not None
        assert np.all(p.forcing[0] == 0.5)

        cfg2 = C.parse_config(
            "dim = 2\nn = 16\nt_end = 1\nforcing = single_mode\n"
            "forcing_axis = 1\nforcing_wavenumber = 2\nforcing_amplitude = 0.1\n"
            "forcing_component = 0\n"
        )
        p2 = C.build_problem(cfg2)
        assert np.abs(p2.forcing[1]).max() == 0.0
        assert np.abs(p2.forcing[0]).max() > 0.0

    def test_snapshot_ic_round_trip(self, tmp_path):
        from kolmobox import snapshot as snap

        cfg = C.parse_config(MINIMAL + "ic_omega0 = 1.25\n")
        p = C.build_problem(cfg)
        path = tmp_path / "ic.kbox"
        snap.write_snapshot(path, p.state)
        cfg2 = C.parse_config(f"dim = 1\nn = 8\nt_end = 1\nic = snapshot\nsnapshot_path = {path}\n")
        p2 = C.build_problem(cfg2)
        np.testing.assert_array_equal(p2.state.omega, p.state.omega)
