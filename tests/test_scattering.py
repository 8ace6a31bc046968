"""External-potential scattering: reduced amplitudes, spin sums, Mott ratio."""

import numpy as np
import pytest

from paradirac import cli, scattering
from paradirac.algebra import ELECTRON_MASS, FINE_STRUCTURE, four_vector
from paradirac.errors import ForwardSingular, SubspaceViolation
from paradirac.sampling import random_spin_coefficients
from paradirac.scattering import (
    ReducedAmplitude,
    coulomb_ft,
    coulomb_potential,
    mott_dcs,
    mott_ratio,
    rutherford_dcs,
    s1_amplitude,
    spin_averaged_amp2,
    spin_trace,
    zero_potential,
)


def _elastic(p_mag, kappa, mass=1.0):
    e = float(np.hypot(mass, p_mag))
    p_i = four_vector(e, 0.0, 0.0, p_mag)
    p_f = four_vector(e, p_mag * np.sin(kappa), 0.0, p_mag * np.cos(kappa))
    return p_i, p_f


class TestCoulombTransform:
    def test_only_time_component(self):
        val = coulomb_ft(four_vector(0.0, 0.3, -0.4, 1.2), Z=2.0)
        assert np.abs(val[1:]).max() == 0.0
        assert val[0] != 0.0

    def test_forward_singular(self):
        with pytest.raises(ForwardSingular):
            coulomb_ft(four_vector(0.0, 0.0, 0.0, 0.0), Z=1.0)

    def test_screening_regularizes_forward(self):
        val = coulomb_ft(four_vector(0.0, 0.0, 0.0, 0.0), Z=1.0, mu=0.1)
        assert np.isfinite(val[0])

    def test_screening_mass_is_keyword_only(self):
        dp = four_vector(0.0, 0.5, 0.0, 0.0)
        with pytest.raises(TypeError):
            coulomb_ft(dp, 1.0, 0.1)
        with pytest.raises(TypeError):
            coulomb_potential(1.0, 0.1)

    def test_z_linearity(self):
        dp = four_vector(0.0, 0.5, 0.0, 0.0)
        assert np.allclose(coulomb_ft(dp, Z=3.0), 3.0 * coulomb_ft(dp, Z=1.0))

    def test_negative_charge_allowed(self):
        dp = four_vector(0.0, 0.5, 0.0, 0.0)
        val = coulomb_potential(-2.0, mu=0.7).fourier(dp)
        assert np.array_equal(val, -2.0 * coulomb_ft(dp, 1.0, mu=0.7))

    def test_potential_hermiticity(self):
        pot = coulomb_potential(Z=1.0)
        assert pot.static
        dp = four_vector(0.0, 0.4, -0.2, 0.9)
        # a real potential: A~(-Dp) = conj(A~(Dp))
        assert np.abs(pot.fourier(-dp) - np.conj(pot.fourier(dp))).max() <= 1e-14


_NAN, _INF = float("nan"), float("inf")
_DP = four_vector(0.0, 0.3, -0.2, 0.5)


@pytest.mark.parametrize("fn, args, kwargs", [
    *[pytest.param(coulomb_ft, (_DP, z), {}, id=f"coulomb_ft-Z={z}") for z in (_NAN, _INF, -_INF)],
    *[pytest.param(coulomb_ft, (_DP, 1.0), {"mu": mu}, id=f"coulomb_ft-mu={mu}") for mu in (_NAN, _INF)],
    *[pytest.param(coulomb_potential, (z,), {}, id=f"coulomb_potential-Z={z}") for z in (_NAN, _INF)],
    *[pytest.param(coulomb_potential, (1.0,), {"mu": mu}, id=f"coulomb_potential-mu={mu}")
      for mu in (_NAN, _INF, -0.5)],
    *[pytest.param(fn, (p_mag, 1.0, 1.0), {}, id=f"{fn.__name__}-p={p_mag}")
      for fn in (mott_dcs, rutherford_dcs, mott_ratio) for p_mag in (_NAN, _INF, -2.0, 0.0)],
    *[pytest.param(fn, (0.5, 1.0, z), {}, id=f"{fn.__name__}-Z={z}")
      for fn in (mott_dcs, rutherford_dcs, mott_ratio) for z in (_NAN, _INF, -_INF)],
])
def test_nonfinite_or_nonpositive_input_refused(fn, args, kwargs):
    # each raises ValueError before any arithmetic, not a NaN, an inf or a
    # numpy warning
    with pytest.raises(ValueError, match="must be"):
        fn(*args, **kwargs)


class TestReducedAmplitude:
    def test_negative_energy_rejected(self, rng):
        p_i, p_f = _elastic(0.8, 0.6)
        a = random_spin_coefficients(rng)
        with pytest.raises(SubspaceViolation):
            s1_amplitude(-p_i, a, p_f, a, coulomb_potential(1.0))

    def test_mass_mismatch_flagged_zero(self, rng):
        p_i = four_vector(np.hypot(1.0, 0.5), 0.0, 0.0, 0.5)
        p_f = four_vector(np.hypot(1.4, 0.5), 0.0, 0.5, 0.0)
        a = random_spin_coefficients(rng)
        amp = s1_amplitude(p_i, a, p_f, a, coulomb_potential(1.0))
        assert amp.value == 0.0j
        assert "mass_shell_mismatch" in amp.flags

    def test_off_energy_shell_flagged_zero(self, rng):
        # equal mass, different p0: static potential cannot supply energy
        p_i = four_vector(np.hypot(1.0, 0.5), 0.0, 0.0, 0.5)
        p_f = four_vector(np.hypot(1.0, 1.1), 0.0, 1.1, 0.0)
        a = random_spin_coefficients(rng)
        amp = s1_amplitude(p_i, a, p_f, a, coulomb_potential(1.0))
        assert amp.value == 0.0j
        assert "off_energy_shell" in amp.flags

    def test_factors_recorded(self, rng):
        p_i, p_f = _elastic(0.8, 0.9)
        a = random_spin_coefficients(rng)
        amp = s1_amplitude(p_i, a, p_f, a, coulomb_potential(1.0))
        assert isinstance(amp, ReducedAmplitude)
        factor_names = [name for name, _ in amp.stripped_factors]
        assert "i*e/L^3" in factor_names
        assert "delta(Dm)" in factor_names
        assert "2pi*delta(Dp0)" in factor_names

    def test_zero_potential_gives_zero(self, rng):
        p_i, p_f = _elastic(0.8, 0.9)
        a = random_spin_coefficients(rng)
        assert s1_amplitude(p_i, a, p_f, a, zero_potential()).value == 0.0j


class TestSpinSum:
    @pytest.mark.parametrize("kappa", [0.3, 1.0, 2.2, np.pi])
    def test_enumeration_equals_trace(self, kappa):
        p_i, p_f = _elastic(1.3, kappa, mass=0.7)
        result = spin_averaged_amp2(p_i, p_f, coulomb_potential(2.0))
        assert result.by_enumeration > 0.0
        assert abs(result.by_enumeration - result.by_trace) <= 1e-12 * result.by_trace

    def test_inelastic_zeros(self):
        p_i = four_vector(np.hypot(1.0, 0.5), 0.0, 0.0, 0.5)
        p_f = four_vector(np.hypot(1.4, 0.5), 0.0, 0.5, 0.0)
        result = spin_averaged_amp2(p_i, p_f, coulomb_potential(1.0))
        assert result == (0.0, 0.0)


class TestMott:
    def test_ratio_closed_form(self):
        # the computed ratio reduces to 1 - beta^2 sin^2(kappa/2)
        for p_mag in (0.1, ELECTRON_MASS, 2.0):
            energy = np.hypot(ELECTRON_MASS, p_mag)
            beta2 = (p_mag / energy) ** 2
            for kappa in (0.4, 1.3, 2.7):
                expect = 1.0 - beta2 * np.sin(kappa / 2.0) ** 2
                assert abs(mott_ratio(p_mag, kappa) - expect) <= 1e-10

    def test_z_scaling(self):
        kappa = 1.1
        d1 = mott_dcs(0.7, kappa, Z=1.0)
        d2 = mott_dcs(0.7, kappa, Z=2.0)
        assert abs(d2 - 4.0 * d1) <= 1e-12 * d2
        assert abs(mott_ratio(0.7, kappa, Z=2.0) - mott_ratio(0.7, kappa, Z=1.0)) <= 1e-12

    def test_nonrelativistic_limit_is_rutherford(self):
        p_mag = 1e-3 * ELECTRON_MASS
        for kappa in (0.5, 1.5, 3.0):
            assert abs(mott_ratio(p_mag, kappa) - 1.0) <= 2e-6

    def test_forward_angle_rejected(self):
        with pytest.raises(ForwardSingular):
            mott_dcs(0.5, 0.0, Z=1.0)
        with pytest.raises(ForwardSingular):
            rutherford_dcs(0.5, -0.1, Z=1.0)

    def test_rutherford_closed_form(self):
        p_mag, kappa = 0.9, 1.7
        energy = np.hypot(ELECTRON_MASS, p_mag)
        expect = (2.0 * FINE_STRUCTURE * energy) ** 2 / (
            4.0 * p_mag**4 * np.sin(kappa / 2.0) ** 4
        )
        assert abs(rutherford_dcs(p_mag, kappa, Z=2.0) - expect) <= 1e-12 * expect

    def test_dcs_backward_angle_allowed(self):
        assert mott_dcs(0.5, np.pi, Z=1.0) > 0.0


class TestBatchedAngles:
    """One batched trace per table equals the angle-by-angle calls."""

    angles = np.radians(np.linspace(0.7, 180.0, 50))

    def test_table_equals_single_angles(self):
        # The trace rounds each row as the single call does.  Rutherford's
        # sin^4 does not: numpy's array power can differ from the scalar pow
        # in the last bit, so it and the ratio get a few ulps.
        for p_mag, z in ((0.3, 1.0), (ELECTRON_MASS, 2.0), (40.0, 79.0)):
            for fn, rtol in ((mott_dcs, 0.0), (rutherford_dcs, 4e-16), (mott_ratio, 4e-16)):
                batch = fn(p_mag, self.angles, z)
                rows = np.array([fn(p_mag, float(kappa), z) for kappa in self.angles])
                assert batch.shape == self.angles.shape
                assert np.all(np.abs(batch - rows) <= rtol * np.abs(rows)), fn.__name__

    def test_trace_batch_equals_rows(self):
        mass = 0.7
        p_i, _ = _elastic(1.3, 0.0, mass=mass)
        p_f = np.array([_elastic(1.3, kappa, mass=mass)[1] for kappa in self.angles])
        pot = coulomb_potential(2.0)
        batch = spin_trace(p_i, p_f, pot, mass)
        rows = [spin_averaged_amp2(p_i, q, pot, mass).by_trace for q in p_f]
        assert np.array_equal(batch, rows)

    def test_any_bad_angle_rejected(self):
        for bad in (0.0, -0.2, np.pi + 1e-9, np.nan):
            kappa = np.array([0.5, bad, 1.5])
            with pytest.raises(ForwardSingular):
                mott_dcs(0.5, kappa, Z=1.0)
            with pytest.raises(ForwardSingular):
                rutherford_dcs(0.5, kappa, Z=1.0)

    def test_carried_mass_keeps_ultrarelativistic_tables(self):
        # At |p|/m = 1e4 the mass recovered from the rounded p_i and p_f
        # differs beyond the shell tolerance, which zeroed most rows; the
        # carried mass keeps every dcs positive and the ratio on its closed
        # form.  The bound is absolute because spin_trace's error is: it
        # cancels terms of order (E/m)^2 to an eps-level absolute error, which
        # is no longer small against the ratio as it falls to 1e-8 at 180
        # degrees.  Acceptance criterion 4 holds the enumeration to a
        # relative bound.
        m = ELECTRON_MASS
        p_mag = 1e4 * m
        kappa = np.radians(np.linspace(0.5, 180.0, 200))
        dcs = mott_dcs(p_mag, kappa, 1.0)
        assert np.all(dcs > 0.0)
        analytic = (m * m + (p_mag * np.cos(kappa / 2.0)) ** 2) / (m * m + p_mag * p_mag)
        assert np.abs(mott_ratio(p_mag, kappa) - analytic).max() <= 1e-12

    def test_tables_do_not_take_the_trace(self, monkeypatch, capsys):
        # spin_trace stays the second route: mott_dcs and the mott command
        # run without it
        def refuse(*args, **kwargs):
            raise AssertionError("spin_trace called")

        monkeypatch.setattr(scattering, "spin_trace", refuse)
        assert np.all(mott_dcs(0.7, self.angles, 1.0) > 0.0)
        assert cli.main(["mott", "--angles", "30,90,180"]) == 0
        assert capsys.readouterr().out.count("\n") == 4

    def test_carried_mass_in_spin_sum(self):
        # spin_averaged_amp2 with the mass given skips mass_of, whose
        # cancellation calls p lightlike at |p|/m = 1e8
        m = 1.0
        p_i, p_f = _elastic(1e8, 1.2, mass=m)
        result = spin_averaged_amp2(p_i, p_f, coulomb_potential(1.0), mass=m)
        assert result.by_trace > 0.0
        assert abs(result.by_enumeration - result.by_trace) <= 1e-6 * result.by_trace
