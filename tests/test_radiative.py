"""Radiative endpoints: anomaly contraction, Uehling shifts, F2(0), currents."""

import itertools

import numpy as np
import pytest
from scipy import integrate

from paradirac import radiative, states
from paradirac.algebra import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    FINE_STRUCTURE,
)
from paradirac.errors import (
    MassMismatch,
    NonfiniteResult,
    NonpositiveRadius,
    UnsupportedState,
)
from paradirac.radiative import (
    FieldConfiguration,
    anomaly_record,
    anomaly_rhs,
    axial_divergence_tree,
    bohr_radius,
    epsilon_tensor,
    f2_record,
    hydrogen_radial,
    shift_record,
    uehling_potential,
    uehling_potential_hyperbolic,
    uehling_ratio,
    uehling_shift,
    uehling_shift_fixed_grid,
    vector_divergence_check,
)
from paradirac.sampling import random_state
from paradirac.states import Subspace

RECORD_KEYS = {"quantity", "value", "units", "est_error", "quadrature_panels"}


class TestEpsilonTensor:
    def test_reference_entry_and_parity(self):
        eps = epsilon_tensor()
        assert eps[0, 1, 2, 3] == 1.0
        assert eps[1, 0, 2, 3] == -1.0
        assert eps[0, 1, 3, 2] == -1.0

    def test_support_is_permutations(self):
        eps = epsilon_tensor()
        assert np.count_nonzero(eps) == 24
        assert np.abs(np.abs(eps[eps != 0.0]) - 1.0).max() == 0.0

    def test_total_antisymmetry(self):
        eps = epsilon_tensor()
        assert np.abs(eps + np.swapaxes(eps, 0, 1)).max() == 0.0
        assert np.abs(eps + np.swapaxes(eps, 2, 3)).max() == 0.0
        assert np.abs(eps + np.swapaxes(eps, 1, 2)).max() == 0.0

    def test_fresh_writable_copy_of_a_determinant_build(self):
        eye = np.eye(4)
        built = np.zeros((4, 4, 4, 4))
        for index in itertools.product(range(4), repeat=4):
            built[index] = np.linalg.det(eye[list(index)])
        eps = epsilon_tensor()
        assert eps.flags.writeable and eps.flags.owndata
        assert np.array_equal(eps, built)
        assert epsilon_tensor() is not eps

    def test_writes_reach_neither_a_second_call_nor_the_anomaly(self):
        field = FieldConfiguration.from_fields([0.3, -1.2, 0.7], [1.1, 0.4, -0.5])
        before = float(anomaly_rhs(field))
        eps = epsilon_tensor()
        eps[...] = 7.0
        assert epsilon_tensor()[0, 1, 2, 3] == 1.0
        assert np.count_nonzero(epsilon_tensor()) == 24
        assert float(anomaly_rhs(field)) == before

    def test_no_determinant_after_import(self, monkeypatch):
        calls = []
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda m: calls.append(m) or det(m))
        epsilon_tensor()
        assert calls == []


class TestFieldConfiguration:
    def test_from_fields_roundtrip(self, rng):
        e, b = rng.normal(size=3), rng.normal(size=3)
        field = FieldConfiguration.from_fields(e, b)
        # F^{0j} = E^j, F^{jk} = eps^{jkl} B^l, antisymmetric
        want = np.array([[0.0, e[0], e[1], e[2]],
                         [-e[0], 0.0, b[2], -b[1]],
                         [-e[1], -b[2], 0.0, b[0]],
                         [-e[2], b[1], -b[0], 0.0]])
        assert np.array_equal(field.tensor, want)

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            FieldConfiguration(np.eye(4))

    def test_batched_fields(self, rng):
        e = rng.normal(size=(6, 3))
        b = rng.normal(size=(6, 3))
        field = FieldConfiguration.from_fields(e, b)
        assert field.tensor.shape == (6, 4, 4)
        vals = anomaly_rhs(field)
        assert vals.shape == (6,)


class TestAnomaly:
    def test_orthogonal_fields_vanish(self):
        field = FieldConfiguration.from_fields([0.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        assert anomaly_rhs(field) == 0.0

    def test_zero_field_vanishes(self):
        field = FieldConfiguration.from_fields(np.zeros(3), np.zeros(3))
        assert anomaly_rhs(field) == 0.0

    def test_closed_form_e_dot_b(self, rng):
        e, b = rng.normal(size=3), rng.normal(size=3)
        field = FieldConfiguration.from_fields(e, b)
        expect = ELEMENTARY_CHARGE**2 * float(np.dot(e, b)) / (2.0 * np.pi**2)
        assert abs(float(anomaly_rhs(field)) - expect) <= 1e-14 * max(1.0, abs(expect))

    def test_matches_permutation_oracle_exactly(self, rng):
        e, b = rng.normal(size=3), rng.normal(size=3)
        field = FieldConfiguration.from_fields(e, b)
        low = field.lowered()
        eps = epsilon_tensor()
        oracle = 0.0
        for mu, nu, rho, sig in itertools.permutations(range(4)):
            oracle += eps[mu, nu, rho, sig] * low[mu, nu] * low[rho, sig]
        oracle *= -(ELEMENTARY_CHARGE**2) / (4.0 * np.pi) ** 2
        assert float(anomaly_rhs(field)) == oracle

    def test_quadratic_scaling(self, rng):
        e, b = rng.normal(size=3), rng.normal(size=3)
        f1 = FieldConfiguration.from_fields(e, b)
        f3 = FieldConfiguration.from_fields(3.0 * e, 3.0 * b)
        assert abs(float(anomaly_rhs(f3)) - 9.0 * float(anomaly_rhs(f1))) <= 1e-12 * max(
            1.0, abs(float(anomaly_rhs(f3)))
        )


class TestUehling:
    def test_two_realizations_agree(self):
        for mr in (0.01, 0.1, 0.5, 2.0, 10.0, 20.0):
            r = mr / ELECTRON_MASS
            u1 = uehling_potential(r, Z=1.0)
            u2 = uehling_potential_hyperbolic(r, Z=1.0)
            assert abs(u1 - u2) <= 1e-6 * abs(u1)

    @pytest.mark.parametrize("form", [uehling_potential, uehling_potential_hyperbolic])
    def test_fixed_rules_match_adaptive_quadrature(self, form):
        # scipy's adaptive quad on the semi-infinite t integral is a third route,
        # outside the package; both fixed rules agree with it to roundoff
        # (worst seen ~2e-15), so 1e-13 leaves room for platform differences.
        for mr in np.geomspace(1e-4, 40.0, 25):
            r = mr / ELECTRON_MASS
            val, _ = integrate.quad(
                lambda t: np.exp(-2.0 * mr * t) * (1.0 + 0.5 / t**2) * np.sqrt(t * t - 1.0) / t**2,
                1.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200,
            )
            expect = -(FINE_STRUCTURE / r) * 2.0 * FINE_STRUCTURE / (3.0 * np.pi) * val
            assert abs(form(r, Z=1.0) - expect) <= 1e-13 * abs(expect)

    def test_potential_is_attractive_correction(self):
        r = 1.0 / ELECTRON_MASS
        assert uehling_potential(r, Z=1.0) < 0.0

    def test_ratio_monotone_decreasing(self):
        radii = np.array([0.05, 0.2, 1.0, 5.0, 15.0]) / ELECTRON_MASS
        vals = [uehling_ratio(r) for r in radii]
        assert all(a > b > 0.0 for a, b in zip(vals[:-1], vals[1:]))

    def test_nonpositive_radius(self):
        with pytest.raises(NonpositiveRadius):
            uehling_potential(0.0, Z=1.0)
        with pytest.raises(NonpositiveRadius):
            uehling_potential_hyperbolic(-1.0, Z=1.0)

    def test_radial_functions_normalized(self):
        for n, l in ((1, 0), (2, 0), (2, 1)):
            radial = hydrogen_radial(n, l, Z=1.0)
            upper = 60.0 * bohr_radius(1.0)
            val, _ = integrate.quad(
                lambda r: radial(r) ** 2 * r**2, 0.0, upper, limit=200
            )
            assert abs(val - 1.0) <= 1e-8

    def test_unsupported_state(self):
        with pytest.raises(UnsupportedState):
            hydrogen_radial(3, 2, Z=1.0)

    def test_overflow_is_nonfinite_result(self):
        with pytest.raises(NonfiniteResult):
            hydrogen_radial(1, 0, Z=1e300)
        with pytest.raises(NonfiniteResult):
            uehling_shift(1, 0, Z=1e300)

    @pytest.mark.parametrize("Z", [0.0, -1.0, -300.0, float("nan"), float("inf")])
    def test_nuclear_charge_must_be_positive_and_finite(self, Z):
        for call in (lambda: bohr_radius(Z), lambda: hydrogen_radial(1, 0, Z),
                     lambda: uehling_shift(1, 0, Z), lambda: uehling_shift_fixed_grid(2, 1, Z),
                     lambda: shift_record(2, 0, Z)):
            with pytest.raises(ValueError, match="nuclear charge Z must be positive and finite"):
                call()

    @pytest.mark.parametrize("form", [uehling_ratio, uehling_potential_hyperbolic])
    def test_subnormal_radius_is_nonfinite_result(self, form):
        # 40 / (2 m r) overflows at a subnormal r, and the panel count with it
        args = () if form is uehling_ratio else (1.0,)
        assert np.isfinite(form(1e-300, *args))
        with pytest.raises(NonfiniteResult):
            form(1e-310, *args)


class TestLegendreRule:
    @pytest.mark.parametrize("nodes", [12, 24])
    def test_matches_numpy_leggauss(self, nodes):
        # the package builds the rule from the Jacobi matrix; numpy's
        # leggauss, from the companion matrix, is the outside check
        x, w = radiative._legendre(nodes)
        x_ref, w_ref = np.polynomial.legendre.leggauss(nodes)
        assert np.abs(x - x_ref).max() <= 1e-15
        assert np.abs(w / w_ref - 1.0).max() <= 1e-12
        assert abs(w.sum() - 2.0) <= 1e-15  # a few ulps of 2

    def test_integrates_polynomials_exactly(self):
        x, w = radiative._legendre(12)
        for degree in range(0, 24, 2):
            assert abs(w @ x**degree - 2.0 / (degree + 1)) <= 1e-15
        assert abs(w @ x**23) <= 1e-15


@pytest.fixture(scope="module")
def shift_2s():
    return uehling_shift(2, 0, Z=1.0)


class TestUehlingShift:
    def test_2s_magnitude_and_sign(self, shift_2s):
        assert shift_2s.mhz < 0.0
        assert 10.0 < abs(shift_2s.mhz) < 100.0

    def test_2s_against_fixed_grid_oracle(self, shift_2s):
        oracle_mev = uehling_shift_fixed_grid(2, 0, Z=1.0)
        assert abs(shift_2s.mev - oracle_mev) <= 0.01 * abs(oracle_mev)

    def test_2p_much_smaller_than_2s(self, shift_2s):
        shift_2p = uehling_shift(2, 1, Z=1.0)
        assert abs(shift_2p.mhz) < 1e-2 * abs(shift_2s.mhz)

    def test_1s_larger_than_2s(self, shift_2s):
        shift_1s = uehling_shift(1, 0, Z=1.0)
        assert shift_1s.mhz < shift_2s.mhz < 0.0

    @pytest.mark.parametrize("Z", [1.0, 10.0, 80.0])
    @pytest.mark.parametrize("n,l", [(1, 0), (2, 0), (2, 1)])
    def test_against_fixed_grid_oracle(self, n, l, Z):
        # The oracle converges like segments^-2 (U(r) is logarithmic at r -> 0),
        # so its 24 -> 48 change bounds its own error at 48 segments.
        shift = uehling_shift(n, l, Z).mev
        coarse = uehling_shift_fixed_grid(n, l, Z, segments=24)
        oracle = uehling_shift_fixed_grid(n, l, Z, segments=48)
        assert abs(shift - oracle) <= abs(oracle - coarse)
        assert abs(shift - oracle) <= 1e-4 * abs(oracle)

    @pytest.mark.parametrize("segments", [0, -3])
    def test_fixed_grid_refuses_fewer_than_one_segment(self, segments):
        # with no panel the oracle would sum to 0.0, a value that looks valid
        with pytest.raises(ValueError, match="^segments must be at least 1"):
            uehling_shift_fixed_grid(2, 0, 1.0, segments=segments)

    def test_2p_unchanged_when_nodes_double(self, monkeypatch):
        # 2P at Z = 1 is the smallest shift in scope (~3e-19 MeV); its value
        # must not rest on an absolute error floor.
        shift = uehling_shift(2, 1, Z=1.0)
        monkeypatch.setattr(radiative, "_NODES", 2 * radiative._NODES)
        doubled = uehling_shift(2, 1, Z=1.0)
        assert doubled.panels == 2 * shift.panels
        assert abs(doubled.mev - shift.mev) <= 1e-13 * abs(shift.mev)
        assert shift.est_error_mev <= 1e-13 * abs(shift.mev)

    def test_z_scaling_faster_than_z4(self):
        # finite-wavefunction effects push the growth slightly above Z^4
        s1 = uehling_shift(1, 0, Z=1.0).mhz
        s2 = uehling_shift(1, 0, Z=2.0).mhz
        assert 15.0 < s2 / s1 < 18.0


class TestAnomalousMoment:
    def test_schwinger_value(self):
        value = f2_record()["value"]
        assert abs(value - FINE_STRUCTURE / (2.0 * np.pi)) <= 1e-12 * value

    def test_linear_in_alpha(self):
        assert abs(f2_record(alpha=2.0 * FINE_STRUCTURE)["value"]
                   - 2.0 * f2_record()["value"]) <= 1e-12


class TestCurrentIdentities:
    def test_vector_divergence_vanishes(self, rng):
        state = random_state(rng, n_modes=8, mass=1.0)
        points = rng.normal(size=(10, 4))
        assert vector_divergence_check(state, points) <= 1e-12

    def test_axial_identity_backward_subspace(self, rng):
        state = random_state(rng, n_modes=8, mass=1.0, subspace=Subspace.S_MINUS)
        points = rng.normal(size=(10, 4))
        lhs, rhs = axial_divergence_tree(state, 1.0, points)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_axial_sign_reversal_forward_subspace(self, rng):
        state = random_state(rng, n_modes=8, mass=1.0, subspace=Subspace.S_PLUS)
        points = rng.normal(size=(10, 4))
        lhs, rhs = axial_divergence_tree(state, 1.0, points)
        assert np.abs(lhs + rhs).max() <= 1e-12

    def test_mass_mismatch_raises(self, rng):
        state = random_state(rng, n_modes=4, mass=1.0)
        with pytest.raises(MassMismatch):
            axial_divergence_tree(state, 1.5, rng.normal(size=(4, 4)))

    def test_divergences_form_only_the_blocks_they_read(self, rng, monkeypatch):
        # a count of window channel blocks, not a timing: the vector check reads
        # the four with i p_mu on the bra rows, the axial identity those and
        # the plain one
        blocks = []
        window_outer = states._window_outer

        def counted(group, nu, bra, ket, *rest):
            blocks.append(bra.shape[1] * ket.shape[1])
            return window_outer(group, nu, bra, ket, *rest)

        monkeypatch.setattr(states, "_window_outer", counted)
        state = random_state(rng, n_modes=6, mass=1.0, subspace=Subspace.S_MINUS)
        points = rng.normal(size=(3, 4))
        vector_divergence_check(state, points)
        axial_divergence_tree(state, 1.0, points)
        assert blocks == [4, 5]


class TestRecords:
    def test_f2_record_shape(self):
        record = f2_record()
        assert set(record) == RECORD_KEYS
        assert record["quantity"] == "a_e"
        assert record["units"] == "dimensionless"
        assert abs(record["value"] - FINE_STRUCTURE / (2.0 * np.pi)) <= 1e-10
        assert record["quadrature_panels"] >= 1

    def test_shift_record_shape(self):
        record = shift_record(2, 1, 1.0)
        assert set(record) == RECORD_KEYS
        assert record["units"] == "MHz"
        assert record["value"] < 0.0

    def test_anomaly_record_shape(self):
        record = anomaly_record([0.0, 0.0, 2.0], [0.0, 0.0, 1.0])
        assert set(record) == RECORD_KEYS
        assert record["units"] == "MeV^4"
        assert record["value"] > 0.0
