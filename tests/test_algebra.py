"""Clifford table, metric conventions, and the adjoint machinery."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from paradirac.algebra import (
    ATOL_ALGEBRA,
    GAMMA0,
    GAMMA1,
    GAMMA2,
    GAMMA3,
    GAMMA5,
    I4,
    METRIC,
    SIGMA,
    bar,
    dirac_adjoint,
    energy_sign,
    four_vector,
    gamma,
    lower_index,
    mass_of,
    minkowski_dot,
    pauli_dot,
    slash,
    _max_residual,
)
from paradirac.errors import MasslessState, NonfiniteResult, SuperluminalMomentum, ZeroEnergy
from paradirac.states import Mode

component = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
four_components = st.tuples(component, component, component, component)


class TestCliffordTable:
    @pytest.mark.parametrize("mu,nu", list(itertools.product(range(4), repeat=2)))
    def test_anticommutator(self, mu, nu):
        anti = gamma(mu) @ gamma(nu) + gamma(nu) @ gamma(mu)
        assert np.abs(anti + 2.0 * METRIC[mu, nu] * I4).max() <= 1e-14

    def test_metric_signature(self):
        assert np.array_equal(np.diag(METRIC), [-1.0, 1.0, 1.0, 1.0])

    def test_gamma5_construction(self):
        assert np.abs(GAMMA5 - 1j * GAMMA0 @ GAMMA1 @ GAMMA2 @ GAMMA3).max() == 0.0

    @pytest.mark.parametrize("mu", range(4))
    def test_gamma5_anticommutes(self, mu):
        assert np.abs(GAMMA5 @ gamma(mu) + gamma(mu) @ GAMMA5).max() == 0.0

    def test_gamma5_square_and_hermiticity(self):
        assert np.abs(GAMMA5 @ GAMMA5 - I4).max() == 0.0
        assert np.abs(GAMMA5 - GAMMA5.conj().T).max() == 0.0

    @pytest.mark.parametrize("mu,nu", list(itertools.product(range(4), repeat=2)))
    def test_trace_pair(self, mu, nu):
        assert abs(np.trace(gamma(mu) @ gamma(nu)) + 4.0 * METRIC[mu, nu]) <= 1e-14

    def test_gamma_accessor(self):
        for mu, mat in enumerate((GAMMA0, GAMMA1, GAMMA2, GAMMA3)):
            assert gamma(mu) is mat
        # gamma5 is GAMMA5 alone
        for index in (4, 5, "five", "5"):
            with pytest.raises(ValueError):
                gamma(index)

    def test_constants_read_only(self):
        with pytest.raises(ValueError):
            GAMMA0[0, 0] = 2.0

    def test_pauli_product_rule(self):
        u = np.array([0.3, -1.1, 0.7])
        v = np.array([-0.2, 0.5, 1.4])
        lhs = pauli_dot(u) @ pauli_dot(v)
        rhs = np.dot(u, v) * np.eye(2) + 1j * pauli_dot(np.cross(u, v))
        assert np.abs(lhs - rhs).max() <= 1e-14


class TestSlash:
    @given(four_components)
    def test_square_for_any_real_momentum(self, comps):
        p = four_vector(*comps)
        resid = np.abs(slash(p) @ slash(p) + minkowski_dot(p, p) * I4).max()
        assert resid <= 1e-12 * max(1.0, float(np.dot(p, p)))

    @given(four_components, four_components, component)
    def test_linearity(self, ca, cb, lam):
        a, b = four_vector(*ca), four_vector(*cb)
        resid = np.abs(slash(a + lam * b) - slash(a) - lam * slash(b)).max()
        assert resid <= 1e-12 * max(1.0, np.abs(a).max() + abs(lam) * np.abs(b).max())

    def test_component_signs(self):
        p = four_vector(2.0, 3.0, 5.0, 7.0)
        expect = -2.0 * GAMMA0 + 3.0 * GAMMA1 + 5.0 * GAMMA2 + 7.0 * GAMMA3
        assert np.abs(slash(p) - expect).max() == 0.0

    def test_self_adjoint_for_real_momentum(self, rng):
        for _ in range(10):
            p = rng.normal(size=4)
            assert np.abs(dirac_adjoint(slash(p)) - slash(p)).max() <= 1e-14

    def test_complex_components_accepted(self):
        a = np.array([0.0, 1.0 + 2.0j, 0.0, -1.0j])
        assert np.iscomplexobj(slash(a))


class TestAdjoints:
    def test_dirac_adjoint_involution(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.abs(dirac_adjoint(dirac_adjoint(m)) - m).max() <= 1e-14

    def test_dirac_adjoint_antihomomorphism(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = dirac_adjoint(a @ b)
        rhs = dirac_adjoint(b) @ dirac_adjoint(a)
        assert np.abs(lhs - rhs).max() <= 1e-13

    def test_bar_of_column_and_block(self, rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.abs(bar(psi) - psi.conj() @ GAMMA0).max() == 0.0
        block = rng.normal(size=(4, 2))
        assert bar(block).shape == (2, 4)

    @pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 2), (4, 4), (3, 4, 2), (2, 5, 4, 3)])
    def test_bar_equals_the_dense_product(self, rng, shape):
        """bar's sign flip gives the bytes, dtype, shape and C layout of the
        dense psi^dagger @ GAMMA0 on signed zeros, subnormals and large
        entries, for complex and real input."""
        parts = np.array([0.0, -0.0, 5e-324, -5e-324, 1.5, -2.25, 1.7e308, -1.7e308])
        psi = rng.choice(parts, shape + (2,)).view(complex)[..., 0]
        for value in (psi, psi.real.copy(), psi.tolist()):
            dense = np.asarray(value).conj()
            dense = (dense.swapaxes(-1, -2) if dense.ndim > 1 else dense) @ GAMMA0
            got = bar(value)
            assert (got.dtype, got.shape, got.flags.c_contiguous) == (dense.dtype, dense.shape, True)
            assert got.tobytes() == dense.tobytes()

    def test_bar_refuses_other_than_four_components(self):
        for psi in (np.ones(3), np.ones((3, 2)), np.ones((2, 5, 2))):
            with pytest.raises(ValueError):
                bar(psi)

    @given(four_components, four_components)
    def test_lower_index_matches_dot(self, ca, cb):
        a, b = four_vector(*ca), four_vector(*cb)
        resid = abs(float(minkowski_dot(a, b)) - float(a @ lower_index(b)))
        assert resid <= 1e-12 * max(1.0, float(np.abs(a @ lower_index(b))))

    def test_lower_index_involution(self):
        p = four_vector(1.0, 2.0, 3.0, 4.0)
        assert np.array_equal(lower_index(lower_index(p)), p)


class TestKinematicHelpers:
    def test_mass_of_on_shell(self):
        p = four_vector(np.hypot(1.3, 2.0), 0.0, 2.0, 0.0)
        assert abs(mass_of(p) - 1.3) <= 1e-12

    def test_mass_of_negative_energy_branch(self):
        p = four_vector(-np.hypot(0.7, 1.0), 1.0, 0.0, 0.0)
        assert abs(mass_of(p) - 0.7) <= 1e-12

    def test_mass_of_lightlike_is_zero(self):
        assert mass_of(four_vector(2.0, 0.0, 0.0, 2.0)) == 0.0

    def test_mass_of_rejects_spacelike(self):
        with pytest.raises(SuperluminalMomentum):
            mass_of(four_vector(1.0, 0.0, 0.0, 3.0))

    def test_mass_of_rejects_zero_energy(self):
        with pytest.raises(ZeroEnergy):
            mass_of(four_vector(0.0, 1.0, 0.0, 0.0))

    def test_energy_sign(self):
        assert energy_sign(four_vector(3.0, 0, 0, 0)) == 1.0
        assert energy_sign(four_vector(-0.2, 0, 0, 0)) == -1.0
        with pytest.raises(ZeroEnergy):
            energy_sign(four_vector(0.0, 1.0, 0, 0))

    def test_pauli_dot_batch_equals_rows(self, rng):
        v = rng.normal(size=(50, 3))
        assert np.array_equal(pauli_dot(v), [pauli_dot(row) for row in v])

    def test_sigma_algebra(self):
        for i in range(3):
            assert np.abs(SIGMA[i] @ SIGMA[i] - np.eye(2)).max() == 0.0
            assert np.abs(SIGMA[i] - SIGMA[i].conj().T).max() == 0.0


class TestMaxResidual:
    """The one reduction of every residual check: max |entry|, 0.0 when
    empty, NaN when any entry is NaN."""

    def test_list_of_equal_shape_arrays(self, rng):
        parts = [rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)) for _ in range(5)]
        assert _max_residual(parts) == max(np.abs(part).max() for part in parts)
        assert _max_residual([0.5, -2.0, 1j, -0.0]) == 2.0

    def test_empty_is_zero(self):
        assert _max_residual([]) == 0.0
        assert _max_residual(np.zeros((0, 4, 4), dtype=complex)) == 0.0

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_any_nan_entry_is_nan(self, where):
        # a Python max() fold keeps 0.0 or the finite part here
        parts = [np.zeros((2, 2)) for _ in range(5)]
        parts[where] = np.array([[0.0, np.nan], [1.0, 0.0]])
        assert np.isnan(_max_residual(parts))
        assert np.isnan(_max_residual([0.0, float("nan"), 3.0]))


def _timelike_batch(rng, n=50):
    """n on-shell momenta with mixed masses, energy signs and |p|/m."""
    pvec = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-2.0, 3.0, size=(n, 1))
    mass = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    phi = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    energy = phi * np.sqrt(mass**2 + np.sum(pvec * pvec, axis=1))
    return np.column_stack([energy, pvec])


class TestBatchedKinematics:
    """A leading batch axis gives the row-by-row results and errors."""

    def test_batch_equals_rows(self, rng):
        p = _timelike_batch(rng)
        assert np.array_equal(mass_of(p), [mass_of(row) for row in p])
        assert np.array_equal(energy_sign(p), [energy_sign(row) for row in p])
        assert isinstance(mass_of(p[0]), float)
        assert isinstance(energy_sign(p[0]), float)
        assert mass_of(p.reshape(5, 10, 4)).shape == (5, 10)

    def test_stacked_adjoints_equal_rows(self, rng):
        m = rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
        assert np.array_equal(dirac_adjoint(m), [dirac_adjoint(row) for row in m])
        blocks = m[:, :, :2]
        assert np.array_equal(bar(blocks), [bar(row) for row in blocks])

    @pytest.mark.parametrize("bad,error", [
        (four_vector(1.0, 0.0, 0.0, 3.0), SuperluminalMomentum),
        (four_vector(0.0, 1.0, 0.0, 0.0), ZeroEnergy),
    ])
    def test_one_bad_row_raises_its_scalar_error(self, rng, bad, error):
        p = _timelike_batch(rng)
        p[17] = bad
        with pytest.raises(error) as scalar:
            mass_of(bad)
        with pytest.raises(error) as batched:
            mass_of(p)
        assert str(batched.value) == str(scalar.value)

    def test_zero_energy_row_has_no_sign(self, rng):
        p = _timelike_batch(rng)
        p[3, 0] = 0.0
        with pytest.raises(ZeroEnergy):
            energy_sign(p)

    def test_lightlike_row_is_massless(self, rng):
        p = _timelike_batch(rng)
        p[9] = four_vector(2.0, 0.0, 0.0, 2.0)
        masses = mass_of(p)
        assert masses[9] == 0.0 and np.all(np.delete(masses, 9) > 0.0)


SIGNS = st.sampled_from((1.0, -1.0))
# a spatial component: a signed zero or a direction cosine
DIRECTION = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1.0, 1.0))


@st.composite
def timelike_rows(draw):
    """(p0, x, y, z) of mass 1e-3..1e3 and |p|/m from 1e-6 to 1e8, either
    energy sign; zero spatial components keep their sign."""
    mass = 10.0 ** draw(st.floats(-3.0, 3.0))
    ratio = 10.0 ** draw(st.floats(-6.0, 8.0))
    direction = [draw(DIRECTION) for _ in range(3)]
    norm = math.sqrt(sum(c * c for c in direction)) or 1.0
    spatial = [ratio * mass * c / norm for c in direction]
    return [draw(SIGNS) * math.sqrt(mass * mass + sum(c * c for c in spatial)), *spatial]


@st.composite
def lightlike_rows(draw):
    """Exactly lightlike rows: Pythagorean quadruples scaled by a power of two,
    spatial components permuted and signed (zeros as +0.0 or -0.0)."""
    p0, *spatial = draw(st.sampled_from(((1, 0, 0, 1), (5, 3, 4, 0), (13, 5, 12, 0),
                                         (3, 1, 2, 2), (9, 1, 4, 8))))
    scale = 2.0 ** draw(st.integers(-40, 40))
    spatial = [draw(SIGNS) * scale * c for c in draw(st.permutations(spatial))]
    return [draw(SIGNS) * scale * p0, *spatial]


def _invalid(row):
    """p0 = +-0.0, or p.p above twice mass_of's spacelike tolerance."""
    p0, *spatial = row
    squares = sum(c * c for c in spatial)
    return p0 == 0.0 or squares - p0 * p0 > 2.0 * ATOL_ALGEBRA * max(1.0, squares + p0 * p0)


# spacelike rows and rows with p0 = +0.0 or -0.0
INVALID_ROWS = st.tuples(
    st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1.0, 1.0)),
    *[st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1e3, 1e3))] * 3,
).filter(_invalid)


def _outcome(f, *args):
    """f(*args) as exact bits, or the class and message of the error it raises."""
    try:
        return [value.hex() for value in f(*args)]
    except (ZeroEnergy, SuperluminalMomentum, MasslessState, NonfiniteResult) as error:
        return type(error), str(error)


def _numpy_route(*row):
    p = np.array(row)
    return mass_of(p), energy_sign(p)


def _mode_route(*row):
    """The mass and energy sign a Mode reads from its checked row."""
    mode = Mode(row, 1, [1.0, 0.0])
    return mode.mass, mode.phi


def _expected(*row):
    """_numpy_route's outcome, with the mass a Mode refuses: MasslessState for
    mass_of's 0.0 and NonfiniteResult for a NaN or infinite mass."""
    outcome = _outcome(_numpy_route, *row)
    if isinstance(outcome, tuple):
        return outcome
    mass = float.fromhex(outcome[0])
    if mass == 0.0:
        return MasslessState, "modes require strictly timelike momenta"
    if not math.isfinite(mass):
        return NonfiniteResult, "mode mass is not finite"
    return outcome


class TestRowKinematics:
    """The Python-float kinematics of Mode's label check against mass_of and
    energy_sign, bit for bit, with the same errors."""

    @given(timelike_rows())
    # x*x + (y*y + z*z) rounds this row's p.p differently
    @example([41.69306661858319, -22.01129287007216, 11.154790043783201, -31.097131949216994])
    def test_timelike_rows_equal_mass_of(self, row):
        outcome = _outcome(_mode_route, *row)
        assert outcome == _expected(*row)
        # a batch row has the same bits
        if not isinstance(outcome, tuple):
            assert mass_of(np.array([row, row]))[1].hex() == outcome[0]

    def test_seeded_batch(self, rng):
        """Rows past hypothesis's simple values: |p|/m log-uniform over 1e-6..1e8."""
        n = 4000
        mass = 10.0 ** rng.uniform(-3.0, 3.0, n)
        direction = rng.normal(size=(n, 3))
        spatial = direction * (10.0 ** rng.uniform(-6.0, 8.0, n) * mass / np.linalg.norm(direction, axis=1))[:, None]
        spatial[rng.random((n, 3)) < 0.1] = -0.0
        p0 = rng.choice([1.0, -1.0], n) * np.sqrt(mass**2 + (spatial**2).sum(axis=1))
        p = np.column_stack((p0, spatial))
        rows = [_outcome(_mode_route, *row) for row in p.tolist()]
        assert rows == [[m.hex(), s.hex()] if m else (MasslessState, "modes require strictly timelike momenta")
                        for m, s in zip(mass_of(p).tolist(), energy_sign(p).tolist())]

    @given(lightlike_rows())
    def test_lightlike_rows_are_massless(self, row):
        assert mass_of(np.array(row)).hex() == (0.0).hex()
        assert _outcome(_mode_route, *row) == _expected(*row)
        with pytest.raises(MasslessState):
            Mode(row, 1, [1.0, 0.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("row", [[1e155, 5e154, 0.0, 0.0], [-1e200, 0.0, -1e200, 1e200]])
    def test_overflowing_rows_give_nan_mass(self, row):
        """Squares that overflow make p.p = inf - inf: mass_of gives a NaN
        mass, and a Mode refuses it as not finite, not as massless."""
        assert math.isnan(mass_of(np.array(row)))
        assert _outcome(_mode_route, *row) == _expected(*row)
        with pytest.raises(NonfiniteResult, match="^mode mass is not finite$"):
            Mode(row, 1, [1.0, 0.0])

    @given(INVALID_ROWS)
    def test_invalid_rows_raise_the_same_error(self, row):
        outcome = _outcome(_mode_route, *row)
        assert isinstance(outcome, tuple) and outcome == _outcome(mass_of, np.array(row))[:2]
        with pytest.raises(outcome[0]) as error:
            Mode(row, 1, [1.0, 0.0])
        assert str(error.value) == outcome[1]

    @given(timelike_rows(), st.sampled_from((1, -1)), st.tuples(*[st.floats(-2.0, 2.0)] * 4))
    def test_mode_kinematics_and_key(self, row, branch, spin):
        p = np.array(row)
        # at |p|/m = 1e8 a rounded row can fall on the light cone
        assume(mass_of(p) > 0.0)
        a = np.array([complex(spin[0], spin[1]), complex(spin[2], spin[3])])
        mode = Mode(p, branch, a)
        assert mode.mass.hex() == mass_of(p).hex()
        assert mode.phi.hex() == energy_sign(p).hex()
        assert ((mode.p + 0.0).tobytes(), (mode.a + 0.0).tobytes()) == ((p + 0.0).tobytes(), (a + 0.0).tobytes())
