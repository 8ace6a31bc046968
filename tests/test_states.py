"""Spectral states: mode bookkeeping, symmetries, currents."""

import math
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from brute_force import (
    COEFFS,
    LABEL_MOMENTA,
    LABEL_SPINS,
    LABELS,
    all_pairs_inner,
    assert_same_bits,
    assert_same_terms,
    build_terms,
    frequencies_match,
    label_bits,
    label_mode,
    pair_loop_current,
    sampled_momentum,
    scan_merge,
    signed_zeros,
    symmetry_loop,
)
from paradirac import propagate, sampling, states
from paradirac.algebra import GAMMA0, GAMMA2, GAMMA5, TWO_PI, energy_sign, four_vector, gamma, mass_of
from paradirac.errors import BoxMismatch, MasslessState, NonfiniteResult, SuperluminalMomentum, ZeroEnergy
from paradirac.propagate import elastic_shell, free_evolve, moller_first_order
from paradirac.radiative import axial_divergence_tree, vector_divergence_check
from paradirac.sampling import (
    random_mode,
    random_spin_coefficients,
    random_state,
    random_timelike_momentum,
)
from paradirac.scattering import coulomb_potential
from paradirac.states import (
    Mode,
    SpectralState,
    Subspace,
    bilinear_concatenated,
    charge_conjugate,
    classify_subspace,
    concatenated_current,
    concatenated_pairs,
    current_divergence_fd,
    free_equation_residual,
    inner_product,
    parity,
    plane_wave_value,
    single_mode_state,
    time_reverse,
    tpc,
)
from paradirac.twobody import TwoParticleState, s2_first_order, two_currents

GAMMA1 = gamma(1)
GAMMA3 = gamma(3)


def _events(rng, count=5):
    return [(rng.normal(size=4), rng.normal()) for _ in range(count)]


def _values(state, events):
    return np.array([state.value(x, tau) for x, tau in events])


class TestMode:
    def test_frequency_and_energy(self, rng):
        for branch in (1, -1):
            for phi in (1, -1):
                mode = random_mode(rng, mass=1.4, branch=branch, phi=phi)
                assert abs(mode.frequency - branch * phi * 1.4) <= 1e-12
                assert mode.phi == phi

    def test_subspace_cells(self, rng):
        for branch, phi, want in (
            (1, 1, Subspace.S_PLUS),
            (-1, -1, Subspace.S_PLUS),
            (1, -1, Subspace.S_MINUS),
            (-1, 1, Subspace.S_MINUS),
        ):
            mode = random_mode(rng, branch=branch, phi=phi)
            assert classify_subspace(mode) is want

    def test_validation(self):
        with pytest.raises(ValueError):
            Mode(p=four_vector(1.5, 0, 0, 0), branch=2, a=np.array([1.0, 0.0]))
        with pytest.raises(MasslessState):
            Mode(p=four_vector(2.0, 0, 0, 2.0), branch=1, a=np.array([1.0, 0.0]))
        with pytest.raises(SuperluminalMomentum):
            Mode(p=four_vector(1.0, 0, 0, 9.0), branch=1, a=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            Mode(p=four_vector(np.nan, 0, 0, 0), branch=1, a=np.array([1.0, 0.0]))


# the forms a caller may pass p or a in; each keeps the values and the signs
# of zeros, or (narrow, real) changes them for the oracle and the Mode alike
INPUT_FORMS = {
    "array": lambda v: v,
    "list": lambda v: v.tolist(),
    "tuple": lambda v: tuple(v.tolist()),
    "strided": lambda v: np.repeat(v, 3)[::3],
    "narrow": lambda v: v.astype(np.complex64 if np.iscomplexobj(v) else np.float32),
    "real": lambda v: v.real.copy(),
}
INT_MOMENTA = (np.array([2, 1, 0, 0]), np.array([-3, 0, 2, -1]), np.array([1, 0, 0, 0]))
INT_SPINS = (np.array([1, 0]), np.array([0, -2]))
MODE_INPUTS = st.one_of(
    LABELS.map(lambda label: (signed_zeros(LABEL_MOMENTA[label[0]], label[3]), label[1],
                              signed_zeros(LABEL_SPINS[label[2]], label[3]))),
    st.tuples(st.sampled_from(INT_MOMENTA), st.sampled_from((1, -1)), st.sampled_from(INT_SPINS)),
)


def eager_mode_fields(p, branch, a):
    """The row, the bytes of p and a, folded_label, mass.hex() and phi by the eager
    route: copy p and a to float and complex arrays, then read them."""
    p, a = np.array(p, dtype=float), np.array(a, dtype=complex)
    mass, phi = float(mass_of(p)), float(energy_sign(p))
    return (p.tolist() + a.view(float).tolist() + [branch, mass], p.tobytes(), a.tobytes(),
            (branch, (p + 0.0).tobytes(), (a + 0.0).tobytes()), mass.hex(), phi)


def folded_label(mode):
    """The branch and the bytes of p + 0.0 and a + 0.0: -0.0 reads as 0.0."""
    return mode.branch, (mode.p + 0.0).tobytes(), (mode.a + 0.0).tobytes()


def mode_fields(mode):
    return np.frombuffer(mode._row).tolist(), mode.p.tobytes(), mode.a.tobytes(), folded_label(mode), mode.mass.hex(), mode.phi


class TestModeContract:
    """A Mode holds its checked row; p and a are read-only snapshots built on
    first read, bit-equal to eager copies of the inputs."""

    @given(MODE_INPUTS, st.sampled_from(sorted(INPUT_FORMS)), st.sampled_from(sorted(INPUT_FORMS)))
    def test_fields_match_the_eager_copies(self, label, p_form, a_form):
        p, branch, a = label
        p, a = INPUT_FORMS[p_form](p), INPUT_FORMS[a_form](a)
        want = eager_mode_fields(p, branch, a)
        mode = Mode(p, branch, a)
        assert mode_fields(mode) == want
        assert mode.branch == branch and type(mode.branch) is int
        assert (mode.p.dtype, mode.a.dtype, mode.p.shape, mode.a.shape) == (float, complex, (4,), (2,))

    @given(MODE_INPUTS)
    def test_later_changes_to_the_inputs_change_nothing(self, label):
        p, branch, a = label
        p, a = p.astype(float), a.astype(complex)
        want = eager_mode_fields(p, branch, a)
        mode = Mode(p, branch, a)
        p[:] = 7.0
        a[:] = 9.0j
        assert mode_fields(mode) == want

    def test_p_and_a_are_read_only_and_built_once(self):
        mode = label_mode((0, 1, 2, True))
        assert mode.p is mode.p and mode.a is mode.a
        for value in (mode.p, mode.a):
            assert not value.flags.writeable
            with pytest.raises(ValueError):
                value[0] = 0.0

    @pytest.mark.parametrize("field", ["p", "a", "branch", "mass", "phi"])
    def test_fields_cannot_be_set_or_deleted(self, field):
        for read_first in (False, True):
            mode = label_mode((1, -1, 3, False))
            if read_first:
                getattr(mode, field)
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
                setattr(mode, field, 1)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
                delattr(mode, field)
            assert mode_fields(mode) == mode_fields(label_mode((1, -1, 3, False)))

    def test_repr(self):
        assert repr(label_mode((1, -1, 3, True))) == (
            "Mode(p=array([-1.11803399, -0.        ,  0.5       , -0.        ]), branch=-1, "
            "a=array([ 1. +1.j, -0.5-0.j]))")

    def test_equality_and_hash_are_identity(self):
        mode, twin = label_mode((0, 1, 2, False)), label_mode((0, 1, 2, False))
        assert mode == mode and mode != twin
        assert hash(mode) == hash(mode) and len({mode, twin}) == 2

    @pytest.mark.parametrize("p, branch, a, error, message", [
        ([1.5, 0.0, 0.0], 1, [1.0, 0.0], ValueError, "momentum must be a four-vector"),
        ([[1.5, 0.0, 0.0, 0.0]], 1, [1.0, 0.0], ValueError, "momentum must be a four-vector"),
        ([1.5, 0.0, 0.0, 0.0], 1, [1.0, 0.0, 0.0], ValueError, "spin coefficients must be a complex pair"),
        ([1.5, 0.0, 0.0, 0.0], 1, 1.0, ValueError, "spin coefficients must be a complex pair"),
        ([1.5, np.nan, 0.0, 0.0], 1, [1.0, 0.0], ValueError, "mode fields must be finite"),
        ([np.inf, 0.0, 0.0, 0.0], 1, [1.0, 0.0], ValueError, "mode fields must be finite"),
        ([1.5, 0.0, 0.0, 0.0], 1, [1.0, complex(0.0, np.nan)], ValueError, "mode fields must be finite"),
        ([1.5, 0.0, 0.0, 0.0], 1, [-np.inf, 0.0], ValueError, "mode fields must be finite"),
        ([1.5, 0.0, 0.0, 0.0], 0, [1.0, 0.0], ValueError, "branch must be +1 or -1"),
        ([1.5, 0.0, 0.0, 0.0], 2, [1.0, 0.0], ValueError, "branch must be +1 or -1"),
        ([1.5, 0.0, 0.0, 0.0], 1.5, [1.0, 0.0], ValueError, "branch must be +1 or -1"),
        ([1.5, 0.0, 0.0, 0.0], 1.9, [1.0, 0.0], ValueError, "branch must be +1 or -1"),
        ([1.5, 0.0, 0.0, 0.0], -1.7, [1.0, 0.0], ValueError, "branch must be +1 or -1"),
        ([0.0, 0.0, 0.0, 0.0], 1, [1.0, 0.0], ZeroEnergy, "four-momentum has p0 = 0; no rest frame branch"),
        ([-0.0, 0.5, 0.0, 0.0], 1, [1.0, 0.0], ZeroEnergy, "four-momentum has p0 = 0; no rest frame branch"),
        ([1.0, 0.0, 0.0, 9.0], 1, [1.0, 0.0], SuperluminalMomentum, "p.p = 80 > 0; momentum is spacelike"),
        ([2.0, 0.0, 0.0, 2.0], 1, [1.0, 0.0], MasslessState, "modes require strictly timelike momenta"),
        ([-5.0, 3.0, 4.0, 0.0], -1, [1.0, 0.0], MasslessState, "modes require strictly timelike momenta"),
        # branches that int() cannot take
        ([1.5, 0.0, 0.0, 0.0], np.inf, [1.0, 0.0], ValueError, "branch must be +1 or -1"),
        ([1.5, 0.0, 0.0, 0.0], -np.inf, [1.0, 0.0], ValueError, "branch must be +1 or -1"),
        ([1.5, 0.0, 0.0, 0.0], np.nan, [1.0, 0.0], ValueError, "branch must be +1 or -1"),
        # finite momenta whose squares overflow: p.p = -inf (mass inf) and inf - inf (mass NaN)
        ([1e200, 0.0, 0.0, 0.0], 1, [1.0, 0.0], NonfiniteResult, "mode mass is not finite"),
        ([1e155, 5e154, 0.0, 0.0], 1, [1.0, 0.0], NonfiniteResult, "mode mass is not finite"),
    ])
    def test_invalid_inputs(self, p, branch, a, error, message):
        with pytest.raises(ValueError) as info:
            Mode(p, branch, a)
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("a", [
        [complex(1.7e308, 1.7e308), complex(1.7e308, -1.7e308)],  # the fields sum to +inf
        [complex(-1.7e308, -0.0), complex(-1.7e308, 1e308)],  # to -inf
    ])
    def test_fields_whose_sum_overflows_are_accepted(self, a):
        """A finite sum of the 8 fields implies finite fields, not the
        converse: finite fields whose sum overflows pass the per-field test
        and give the eager route's row.  (Finite terms cannot sum to NaN.)"""
        p, a = np.array([1.5, 0.3, -0.0, 0.1]), np.array(a)
        assert math.isinf(sum([*p.tolist(), *a.view(float).tolist()]))
        for branch in (1, -1):
            assert mode_fields(Mode(p, branch, a)) == eager_mode_fields(p, branch, a)

    @pytest.mark.parametrize("background", ["plain", "huge"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", range(8))
    def test_any_nonfinite_field_is_refused(self, field, value, background):
        """NaN or +-inf in any one field of (p, a as re/im pairs), beside
        small fields or beside spin fields of -1.7e308 whose sum is -inf."""
        fields = np.array([1.5, 0.3, 0.2, 0.1] + ([0.6, 0.2, -0.3, 0.7] if background == "plain" else [-1.7e308] * 4))
        fields[field] = value
        with pytest.raises(ValueError) as info:
            Mode(fields[:4], 1, fields[4:].view(complex))
        assert type(info.value) is ValueError and str(info.value) == "mode fields must be finite"

    def test_checks_run_in_order(self):
        """Shape, then finiteness, then branch, then kinematics: each label
        also fails every check after the one it raises."""
        nan = np.nan
        cases = [
            ([nan, 2.0, 0.0], 0, [nan, 0.0, 0.0], ValueError, "momentum must be a four-vector"),
            ([0.0, 2.0, 0.0, nan], 0, [nan, 0.0, 0.0], ValueError, "spin coefficients must be a complex pair"),
            ([0.0, 2.0, 0.0, nan], 0, [nan, 0.0], ValueError, "mode fields must be finite"),
            ([0.0, 2.0, 1e200, 0.0], 0, [1.0, 0.0], ValueError, "branch must be +1 or -1"),
            ([0.0, 2.0, 1e200, 0.0], 1, [1.0, 0.0], ZeroEnergy, "four-momentum has p0 = 0; no rest frame branch"),
            ([1.0, 2.0, 0.0, 0.0], 1, [1.0, 0.0], SuperluminalMomentum, "p.p = 3 > 0; momentum is spacelike"),
            ([2.0, 2.0, 0.0, 0.0], 1, [1.0, 0.0], MasslessState, "modes require strictly timelike momenta"),
            ([1e200, 0.0, 0.0, 0.0], 1, [1.0, 0.0], NonfiniteResult, "mode mass is not finite"),
        ]
        for p, branch, a, error, message in cases:
            with pytest.raises(ValueError) as info:
                Mode(p, branch, a)
            assert type(info.value) is error and str(info.value) == message


class TestPlaneWave:
    def test_satisfies_free_equation(self, rng):
        worst = 0.0
        for _ in range(6):
            mode = random_mode(rng)
            worst = max(worst, free_equation_residual(mode, rng.normal(size=4), 0.3))
        assert worst <= 1e-6

    def test_box_normalization_scale(self, rng):
        mode = random_mode(rng)
        x = rng.normal(size=4)
        v1 = plane_wave_value(mode, x, 0.2)
        v2 = SpectralState(((1.0, mode),), 2.0 * TWO_PI).value(x, 0.2)
        assert np.abs(v1 - 4.0 * v2).max() <= 1e-12 * np.abs(v1).max()


class TestSpectralState:
    def test_merges_duplicate_modes(self, rng):
        mode = random_mode(rng)
        state = SpectralState(terms=((0.3, mode), (0.45, mode)))
        assert len(state.terms) == 1
        assert abs(state.terms[0][0] - 0.75) <= 1e-15

    def test_drops_zero_coefficients(self, rng):
        mode, other = random_mode(rng), random_mode(rng)
        state = SpectralState(terms=((0.5, mode), (-0.5, mode), (1.0, other)))
        assert len(state.terms) == 1

    def test_value_is_sum_of_modes(self, rng):
        modes = [random_mode(rng) for _ in range(3)]
        coeffs = [0.2, -0.7j, 1.1]
        state = SpectralState(terms=tuple(zip(coeffs, modes)))
        x, tau = rng.normal(size=4), 0.6
        direct = sum(c * plane_wave_value(m, x, tau) for c, m in zip(coeffs, modes))
        assert np.abs(state.value(x, tau) - direct).max() <= 1e-14


class TestInnerProduct:
    def test_orthonormal_modes(self, rng):
        p = random_timelike_momentum(rng)
        a = random_spin_coefficients(rng)
        for branch in (1, -1):
            mode = Mode(p=p, branch=branch, a=a)
            ip = inner_product(single_mode_state(mode), single_mode_state(mode))
            assert abs(ip - branch) <= 1e-12

    def test_mixed_branches_orthogonal(self, rng):
        p = random_timelike_momentum(rng)
        a = random_spin_coefficients(rng)
        up = single_mode_state(Mode(p=p, branch=1, a=a))
        dn = single_mode_state(Mode(p=p, branch=-1, a=a))
        assert inner_product(up, dn) == 0.0

    def test_conjugate_symmetry(self, rng):
        sa, sb = random_state(rng, 4), random_state(rng, 4)
        assert abs(inner_product(sa, sb) - np.conj(inner_product(sb, sa))) <= 1e-12

    def test_box_mismatch_raises(self, rng):
        sa = random_state(rng, 2)
        sb = SpectralState(random_state(rng, 2).terms, 3.0)
        with pytest.raises(BoxMismatch):
            inner_product(sa, sb)


class TestDiscreteSymmetries:
    def test_charge_conjugation_pointwise(self, rng):
        state = random_state(rng, 4)
        cc = charge_conjugate(state)
        for x, tau in _events(rng):
            lhs = cc.value(x, tau)
            rhs = 1j * GAMMA2 @ np.conj(state.value(x, -tau))
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_parity_pointwise(self, rng):
        state = random_state(rng, 4)
        ps = parity(state)
        for x, tau in _events(rng):
            flipped = x.copy()
            flipped[1:] = -flipped[1:]
            rhs = GAMMA0 @ state.value(flipped, tau)
            assert np.abs(ps.value(x, tau) - rhs).max() <= 1e-12

    def test_time_reversal_pointwise(self, rng):
        state = random_state(rng, 4)
        ts = time_reverse(state)
        for x, tau in _events(rng):
            flipped = x.copy()
            flipped[0] = -flipped[0]
            rhs = 1j * GAMMA1 @ GAMMA3 @ np.conj(state.value(flipped, -tau))
            assert np.abs(ts.value(x, tau) - rhs).max() <= 1e-12

    def test_tpc_pointwise(self, rng):
        state = random_state(rng, 4)
        tp = tpc(state)
        for x, tau in _events(rng):
            rhs = -1j * GAMMA5 @ state.value(-x, tau)
            assert np.abs(tp.value(x, tau) - rhs).max() <= 1e-12

    def test_involution_signs(self, rng):
        state = random_state(rng, 4)
        events = _events(rng)
        base = _values(state, events)
        # C and P square to +1; T and TPC square to -1
        assert np.abs(_values(charge_conjugate(charge_conjugate(state)), events) - base).max() <= 1e-12
        assert np.abs(_values(parity(parity(state)), events) - base).max() <= 1e-12
        assert np.abs(_values(time_reverse(time_reverse(state)), events) + base).max() <= 1e-12
        assert np.abs(_values(tpc(tpc(state)), events) + base).max() <= 1e-12

    def test_tpc_preserves_subspace(self, rng):
        state = random_state(rng, 6, subspace=Subspace.S_PLUS)
        assert all(classify_subspace(m) is Subspace.S_PLUS for _, m in tpc(state).terms)
        minus = random_state(rng, 6, subspace=Subspace.S_MINUS)
        assert all(classify_subspace(m) is Subspace.S_MINUS for _, m in tpc(minus).terms)

    def test_charge_conjugation_flips_labels(self, rng):
        mode = random_mode(rng, branch=1, phi=1)
        out = charge_conjugate(single_mode_state(mode)).terms[0][1]
        assert out.branch == -1
        assert np.array_equal(out.p, -mode.p)


class TestCurrents:
    def test_current_is_real_and_conserved(self, rng):
        state = random_state(rng, 6, mass=1.0, p_scale=0.5)
        points = rng.normal(size=(6, 4))
        field = concatenated_current(state, points)
        assert field.scale == "T_tau"
        assert field.values.shape == (6, 4)
        div = current_divergence_fd(state, points[:3])
        assert np.abs(div).max() <= 1e-9

    def test_bilinear_stack_shapes(self, rng):
        state = random_state(rng, 3)
        stack = np.stack([GAMMA0, GAMMA5])
        vals = bilinear_concatenated(state, stack, rng.normal(size=(7, 4)))
        assert vals.shape == (7, 2)

    def test_single_mode_current_density(self, rng):
        # one mode: J^mu = bar(w) gamma^mu w / L^4, position independent
        mode = random_mode(rng, branch=1, phi=1)
        state = single_mode_state(mode, coeff=1.0)
        points = rng.normal(size=(4, 4))
        vals = concatenated_current(state, points).values
        assert np.abs(vals - vals[0]).max() <= 1e-13

    def test_fast_packet_current_matches_pair_loop(self, rng):
        # six modes around |p| = 1e6 m: p.x is large, but the pair phases
        # (p_l - p_k).x are of order 1, and the current keeps their precision
        center = rng.normal(size=3)
        center *= 1e6 / np.linalg.norm(center)
        momenta = [center + rng.normal(size=3) for _ in range(6)]
        modes = [Mode(four_vector(np.sqrt(1.0 + p @ p), *p), 1, random_spin_coefficients(rng)) for p in momenta]
        state = SpectralState([(complex(*rng.normal(size=2)), m) for m in modes])
        points = rng.normal(size=(4, 4))
        pairs = [(np.conj(ck) * cl, mk, ml) for ck, mk in state.terms for cl, ml in state.terms
                 if frequencies_match(mk.frequency, ml.frequency)]
        assert len(pairs) > len(modes)
        want = pair_loop_current(pairs, points)
        got = concatenated_current(state, points).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_nonfinite_current_raises(self, rng):
        # the phases p.x overflow at |x| = 1e308, so every sample is NaN
        state = random_state(rng, 4, mass=1.0)
        # warnings are errors under pytest here, so no RuntimeWarning may come first
        with pytest.raises(NonfiniteResult):
            concatenated_current(state, np.full((2, 4), 1e308))


class TestFiniteCoefficients:
    """A term coefficient given or summed non-finite raises NonfiniteResult
    before any warning."""

    MODE = Mode([1.5, 0.3, -0.2, 0.1], 1, [0.6, 0.8j])

    @pytest.mark.parametrize("build", [
        pytest.param(lambda m: SpectralState([(np.nan, m)]), id="nan"),
        pytest.param(lambda m: SpectralState([(complex(0.0, -np.inf), m)]), id="inf"),
        pytest.param(lambda m: TwoParticleState([(np.inf, m, m)]), id="two-particle-inf"),
        pytest.param(lambda m: SpectralState([(1e308, m), (1e308, m)]), id="merge-overflow"),
    ])
    def test_nonfinite_raises(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonfiniteResult):
                build(self.MODE)


class TestFiniteBilinears:
    """A finite state whose samples overflow: each bilinear value raises
    NonfiniteResult before any warning, and a divergence residual reads NaN."""

    # on the mass-1 forward shell; FAST's spinor has a component sqrt(1.5)
    FAST = Mode(four_vector(2.0, np.sqrt(3.0), 0.0, 0.0), 1, [1.0, 0.0])
    SLOW = Mode(four_vector(np.sqrt(1.25), 0.0, 0.5, 0.0), 1, [0.6, 0.8j])
    STATES = [
        pytest.param(lambda: SpectralState([(1e300, TestFiniteBilinears.FAST), (1.0, TestFiniteBilinears.SLOW)]),
                     id="square-overflows"),
        pytest.param(lambda: SpectralState([(1.7e308, TestFiniteBilinears.FAST)]), id="row-overflows"),
    ]
    POINTS = np.array([[0.1, -0.2, 0.3, 0.4], [1.0, 0.5, -0.5, 0.0]])

    @pytest.mark.parametrize("value", [
        pytest.param(lambda state, points: bilinear_concatenated(state, np.eye(4), points), id="bilinear"),
        pytest.param(concatenated_current, id="current"),
        pytest.param(lambda state, points: axial_divergence_tree(state, 1.0, points), id="axial"),
    ])
    @pytest.mark.parametrize("build", STATES)
    def test_value_raises(self, value, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonfiniteResult):
                value(build(), self.POINTS)

    @pytest.mark.parametrize("build", STATES)
    def test_residual_is_nan(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(vector_divergence_check(build(), self.POINTS))

    def test_two_body_row_overflow_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonfiniteResult):
                two_currents(TwoParticleState([(1.7e308, self.FAST, self.FAST)]), self.POINTS)


class TestComputedLabels:
    """The labels the library computes (C/P/T images, Moller nodes and
    random_state's draws) are checked once, by states._label_rows; the rows of
    Modes are checked on construction and never again.  A C/P/T image moves
    each spin coefficient to a new place and sign and builds no spinor, so
    it cannot overflow; a Moller node or a draw that overflows raises
    NonfiniteResult before any warning."""

    MODE = Mode([1.5, 0.3, 0.2, 0.1], 1, [1.0, 1.0])
    P_IN = np.array([np.sqrt(2.0), 0.0, 0.0, 1.0])
    IMAGES = [parity, charge_conjugate, time_reverse, tpc]

    @pytest.mark.parametrize("image", IMAGES)
    def test_image_of_large_finite_labels(self, image):
        # a spinor of these labels overflows in a matmul; the maps build none
        big = SpectralState([(1.0, Mode(self.MODE.p, 1, [1e308, 1e308]))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = image(big)
        want = image(single_mode_state(self.MODE))
        assert np.array_equal(got.p, want.p) and np.isfinite(got.a).all()
        assert np.abs(got.a - 1e308 * want.a).max() <= 1e-12 * 1e308

    @pytest.mark.parametrize("image", IMAGES)
    def test_image_of_overflowing_spinor_is_exact(self, image):
        # block(p) @ a overflows here; the maps never build it
        state = single_mode_state(Mode([50.0, 30.0, 20.0, 10.0], 1, [1.7e308, 1.7e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = image(state)
        assert_same_bits(got.terms, symmetry_loop(state.terms, image.__name__))

    def test_overflowing_moller_node_raises(self):
        incident = Mode(self.P_IN, 1, [1.7e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonfiniteResult, match="^mode fields must be finite$"):
                moller_first_order(incident, coulomb_potential(1.0), elastic_shell(self.P_IN, [0.5], 2))

    def test_overflowing_draw_raises(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonfiniteResult, match="^mode fields must be finite$"):
                random_state(rng, 3, p_scale=1e200)

    def test_lightlike_draw_raises(self):
        # the on-shell rows of mass 1e-10 round to lightlike: mass_of gives 0.0
        with pytest.raises(MasslessState):
            random_state(np.random.default_rng(0), 3, mass=1e-10)

    @pytest.mark.parametrize("column, value, error, message", [
        (0, np.inf, NonfiniteResult, "mode fields must be finite"),
        (5, np.nan, NonfiniteResult, "mode fields must be finite"),
        (9, 0.0, MasslessState, "modes require strictly timelike momenta"),
    ])
    def test_label_rows_checks(self, column, value, error, message):
        rows = np.array([np.frombuffer(self.MODE._row)] * 3)
        rows[1, column] = value
        p, a, branch, mass = rows[:, :4], rows[:, 4:8].copy().view(complex), rows[:, 8], rows[:, 9]
        with pytest.raises(error, match=f"^{message}$"):
            states._label_rows(p, a, branch, mass)

    def test_label_rows_runs_once_per_computed_state(self, monkeypatch, rng):
        modes = [random_mode(rng) for _ in range(4)]
        incident = random_mode(rng, branch=1, phi=1)
        one = SpectralState([(1.0, mode) for mode in modes])
        two = TwoParticleState([(1.0, modes[0], modes[1]), (0.5j, modes[2], modes[3])], "fermionic")
        label_rows, calls = states._label_rows, []

        def counted(*args):
            calls.append(args)
            return label_rows(*args)

        for module in (states, propagate, sampling):
            monkeypatch.setattr(module, "_label_rows", counted)

        def count(build):
            calls.clear()
            build()
            return len(calls)

        assert count(lambda: SpectralState([(1.0, mode) for mode in modes])) == 0
        assert count(lambda: TwoParticleState([(1.0, modes[0], modes[1])])) == 0
        for image in self.IMAGES:
            assert count(lambda: image(one)) == 1
        shell = elastic_shell(incident.p, [0.5, 1.0], 4)
        assert count(lambda: moller_first_order(incident, coulomb_potential(1.0), shell)) == 1
        assert count(lambda: random_state(rng, 5)) == 1


@pytest.mark.parametrize("mass", [0.0, -1.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("draw", [
    pytest.param(lambda rng, mass: random_mode(rng, mass=mass), id="mode"),
    pytest.param(lambda rng, mass: random_state(rng, 2, mass=mass), id="state"),
    pytest.param(lambda rng, mass: random_timelike_momentum(rng, mass=mass), id="momentum"),
])
def test_sampling_refuses_a_mass_that_is_not_positive_and_finite(draw, mass):
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="^mass must be positive and finite"):
        draw(rng, mass)
    assert rng.bit_generator.state == before  # refused before any draw


@pytest.mark.parametrize("draw, match", [
    # phi scales the drawn energy, so phi = 2 would give a momentum of mass 2.31
    pytest.param(lambda rng: random_timelike_momentum(rng, phi=2), "^phi must be", id="momentum-phi-2"),
    pytest.param(lambda rng: random_timelike_momentum(rng, phi=0), "^phi must be", id="momentum-phi-0"),
    pytest.param(lambda rng: random_timelike_momentum(rng, phi=np.nan), "^phi must be", id="momentum-phi-nan"),
    pytest.param(lambda rng: random_mode(rng, phi=3), "^phi must be", id="mode-phi-3"),
    pytest.param(lambda rng: random_mode(rng, phi=-0.5), "^phi must be", id="mode-phi-half"),
    # any value but S_PLUS would draw S- modes
    pytest.param(lambda rng: random_state(rng, 2, subspace="S+"), "^subspace must be", id="state-str"),
    pytest.param(lambda rng: random_state(rng, 2, subspace=1), "^subspace must be", id="state-int"),
])
def test_sampling_refuses_a_bad_sign_or_subspace(draw, match):
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=match):
        draw(rng)
    assert rng.bit_generator.state == before  # refused before any draw


@pytest.mark.parametrize("draw, scale", [
    pytest.param(random_timelike_momentum, {"p_scale": 1e200}, id="momentum"),
    pytest.param(random_mode, {"p_scale": 1e200}, id="mode"),
    # a finite mass whose Python float square overflows
    pytest.param(random_timelike_momentum, {"mass": 1e200}, id="momentum-mass"),
    pytest.param(random_mode, {"mass": 1e200}, id="mode-mass"),
    pytest.param(random_state, {"mass": 1e200}, id="state-mass"),
])
def test_sampling_refuses_an_overflowing_momentum(draw, scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonfiniteResult, match="^mode fields must be finite$"):
            draw(np.random.default_rng(0), **scale)


def test_large_finite_momentum_draw_keeps_its_stream_and_bits():
    # |p|^2 of about 3e300 is finite, so the draw is not refused
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    p = random_timelike_momentum(got_rng, mass=2.0, phi=-1, p_scale=1e150)
    assert p.tobytes() == sampled_momentum(want_rng, 2.0, -1, 1e150).tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# every finite magnitude from the smallest subnormal to near the largest double
SWEEP_PARTS = (0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 1e150, -1e150, 1e300, -1e300, 1.7e308, -1.7e308)
SWEEP_COEFFS = st.builds(complex, st.sampled_from(SWEEP_PARTS), st.sampled_from(SWEEP_PARTS))


def _finite_or_refused(call):
    """call() under warnings as errors: None where it raises a ValueError
    subclass, else its result, whose numbers must be finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call()
        except ValueError:
            return None
    if isinstance(value, (Mode, states.TermContainer)):
        assert all(np.isfinite(getattr(value, name)).all() for name in ("coeff", "p", "a", "mass")
                   if hasattr(value, name))
    else:
        assert np.isfinite(value).all()
    return value


class TestFiniteValueSweep:
    """Finite in, finite out: on coefficients from the subnormal to the
    largest double, and on draws at a huge momentum scale, every public op
    gives a finite result or raises a ValueError subclass, with no warning."""

    POINTS = np.array([[0.1, -0.2, 0.3, 0.4], [1.0, 0.5, -0.5, 0.0]])
    PAIR = (coulomb_potential(1.0, mu=0.5),) * 2

    @given(one_raw=st.lists(st.tuples(SWEEP_COEFFS, LABELS), max_size=6),
           two_raw=st.lists(st.tuples(SWEEP_COEFFS, LABELS, LABELS), max_size=6),
           p_scale=st.sampled_from((1e150, 1e154, 1e200, 1e300, 1.7e308)))
    # an evolved coefficient whose parts overflow, and a two-body outer sum that does
    @example(one_raw=[(1.7e308 + 1.7e308j, (0, 1, 0, False))], two_raw=[], p_scale=1e150)
    @example(one_raw=[], two_raw=[(1e300j, (0, 1, 0, False), (0, 1, 2, False))], p_scale=1e150)
    def test_finite_or_refused(self, one_raw, two_raw, p_scale):
        one = _finite_or_refused(lambda: SpectralState(build_terms(one_raw)))
        two_terms = [(c, label_mode(x), label_mode(y)) for c, x, y in two_raw]
        two = _finite_or_refused(lambda: TwoParticleState(two_terms))
        forward = _finite_or_refused(lambda: TwoParticleState(
            [(c, x, y) for c, x, y in two_terms if x.branch * x.phi > 0 and y.branch * y.phi > 0]))
        for state in (one, two):
            if state is None:
                continue
            _finite_or_refused(lambda: free_evolve(state, 0.0, 0.7, 1))
            _finite_or_refused(lambda: inner_product(state, state))
        if one is not None:
            for image in (charge_conjugate, parity, time_reverse, tpc):
                _finite_or_refused(lambda: image(one))
            _finite_or_refused(lambda: concatenated_current(one, self.POINTS).values)
            _finite_or_refused(lambda: bilinear_concatenated(one, np.stack([GAMMA0, GAMMA5]), self.POINTS))
        if two is not None:
            _finite_or_refused(lambda: [current.values for current in two_currents(two, self.POINTS)])
        if forward is not None:
            _finite_or_refused(lambda: s2_first_order(forward, forward, self.PAIR).value)
        for draw in (random_timelike_momentum, random_mode,
                     lambda rng, p_scale: random_state(rng, 3, p_scale=p_scale)):
            _finite_or_refused(lambda: draw(np.random.default_rng(0), p_scale=p_scale))


# ---------------------------------------------------------------------------
# label keys: merges and overlaps against the brute-force loops of
# brute_force.py

class TestLabelKeys:
    def test_parity_negative_zero_merges_and_overlaps(self, rng):
        mode = Mode(four_vector(np.sqrt(2.0), 0.0, 0.0, 1.0), 1, random_spin_coefficients(rng))
        image = parity(single_mode_state(mode)).terms[0][1]
        assert np.signbit(image.p[1:3]).all()
        clone = Mode(np.where(image.p == 0.0, 0.0, image.p), image.branch, image.a)
        assert not np.signbit(clone.p[1:3]).any()
        assert folded_label(image) == folded_label(clone)
        merged = SpectralState(((0.5, image), (0.25, clone)))
        assert len(merged.terms) == 1 and merged.terms[0][0] == 0.75
        assert label_bits(merged.terms[0][1]) == label_bits(image)
        overlap = inner_product(single_mode_state(image), single_mode_state(clone))
        assert overlap == np.vdot(image.a, image.a) != 0.0

    def test_negative_zero_spin_merges(self):
        p = four_vector(1.0, 0.0, 0.0, 0.0)
        plus = Mode(p, -1, np.array([1.0, 0.0]))
        minus = Mode(p, -1, np.array([complex(1.0, -0.0), complex(-0.0, 0.0)]))
        assert np.signbit(minus.a.imag[0]) and np.signbit(minus.a.real[1])
        state = SpectralState(((1.0, plus), (2.0, minus)))
        assert len(state.terms) == 1 and state.terms[0][0] == 3.0

    def test_first_occurrence_order(self, rng):
        m1, m2, m3 = (random_mode(rng) for _ in range(3))
        again = Mode(m1.p.copy(), m1.branch, m1.a.copy())
        state = SpectralState(((1.0, m2), (2.0, m1), (3.0, m3), (4.0, again)))
        assert [label_bits(m) for _, m in state.terms] == [label_bits(m) for m in (m2, m1, m3)]
        assert [c for c, _ in state.terms] == [1.0, 6.0, 3.0]

    def test_opposite_coefficients_drop_out(self):
        p = four_vector(np.sqrt(2.0), 1.0, 0.0, 0.0)
        a = np.array([1.0, 0.0])
        negative = Mode(signed_zeros(p, True), 1, signed_zeros(a, True))
        state = SpectralState(((0.5, Mode(p, 1, a)), (-0.5, negative)))
        assert state.is_empty

    @given(st.lists(st.tuples(COEFFS, LABELS), max_size=12))
    def test_merge_matches_linear_scan(self, raw):
        terms = build_terms(raw)
        assert_same_terms(SpectralState(terms).terms, scan_merge(terms))

    @given(st.lists(st.tuples(COEFFS, LABELS), max_size=10),
           st.lists(st.tuples(COEFFS, LABELS), max_size=10))
    def test_inner_product_matches_all_pairs(self, raw_a, raw_b):
        sa, sb = SpectralState(build_terms(raw_a)), SpectralState(build_terms(raw_b))
        assert inner_product(sa, sb) == all_pairs_inner(sa.terms, sb.terms)

    @given(st.lists(st.tuples(COEFFS, LABELS), max_size=8))
    def test_current_matches_pair_loop(self, raw):
        state = SpectralState(build_terms(raw))
        points = np.random.default_rng(len(raw)).normal(size=(5, 4))
        want = pair_loop_current(
            [(np.conj(ck) * cl, mk, ml) for ck, mk in state.terms for cl, ml in state.terms
             if frequencies_match(mk.frequency, ml.frequency)],
            points,
        )
        got = concatenated_current(state, points).values
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert sum(1 for _ in concatenated_pairs(state)) == sum(
            frequencies_match(mk.frequency, ml.frequency) for _, mk in state.terms for _, ml in state.terms
        )


# a small label space, so that drawn terms repeat labels, with and without -0.0
FEW_LABELS = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)), st.integers(0, 1), st.booleans())
REPEATED_TERMS = st.lists(st.tuples(COEFFS, st.sampled_from((complex, np.complex128)), FEW_LABELS, FEW_LABELS),
                          max_size=12)
LOADED_ARRAYS = ("coeff", "p", "branch", "a", "mass")


class TestLoadFromModes:
    """Terms of Modes load as the label rows of their Modes: the containers'
    arrays equal those of _from_rows on the Modes' rows (Mode._row), bit
    for bit; a coefficient converts as complex() converts it, and a bad term
    raises what reading the terms one by one raises first."""

    MODE = Mode(LABEL_MOMENTA[0], 1, LABEL_SPINS[3])
    OTHER = Mode(LABEL_MOMENTA[3], -1, LABEL_SPINS[2])

    @pytest.mark.parametrize("width", [1, 2])
    @given(raw=REPEATED_TERMS)
    @example(raw=[(0.5, complex, (0, 1, 0, False), (1, 1, 1, False)),
                  (-0.5, complex, (0, 1, 0, True), (1, 1, 1, True)),
                  (1.0j, np.complex128, (1, -1, 1, True), (0, -1, 0, False)),
                  (0.25 - 2.0j, complex, (1, -1, 1, False), (0, -1, 0, True))])
    def test_arrays_equal_the_label_rows(self, width, raw):
        cls = (SpectralState, TwoParticleState)[width - 1]
        terms, rows = [], []
        for coeff, kind, *labels in raw:
            terms.append((kind(coeff), *map(label_mode, labels[:width])))
            for ip, branch, ia, negative in labels[:width]:
                rows.append(np.frombuffer(Mode(signed_zeros(LABEL_MOMENTA[ip], negative),
                                               branch, signed_zeros(LABEL_SPINS[ia], negative))._row))
        got = cls(terms)
        fields = {"exchange": "none"} if width == 2 else {}
        want = cls._from_rows([complex(coeff) for coeff, *_ in raw], rows, TWO_PI, **fields)
        for name in LOADED_ARRAYS:
            got_array, want_array = getattr(got, name), getattr(want, name)
            assert (got_array.dtype, got_array.shape) == (want_array.dtype, want_array.shape)
            assert got_array.tobytes() == want_array.tobytes()

    @pytest.mark.parametrize("coeff, want", [
        (1, 1 + 0j),
        (True, 1 + 0j),
        ("1+2j", 1 + 2j),
        (np.float32(0.1), 0.10000000149011612 + 0j),
        (np.complex64(0.1 + 0.2j), 0.10000000149011612 + 0.20000000298023224j),
        (np.array(2.5), 2.5 + 0j),
    ], ids=["int", "bool", "str", "float32", "complex64", "0-d array"])
    def test_accepted_coefficients_convert_as_complex_does(self, coeff, want):
        # alone, and between plain coefficients that alone would convert in one call
        for state, merged in ((SpectralState([(coeff, self.MODE)]), []),
                              (SpectralState([(-1.0, self.OTHER), (coeff, self.MODE),
                                              (np.complex128(2j), self.OTHER)]), [-1.0 + 2j]),
                              (TwoParticleState([(coeff, self.MODE, self.OTHER)]), [])):
            assert state.coeff.tobytes() == np.array(merged + [want]).tobytes()

    def test_a_generator_of_terms_is_read_once(self):
        terms = ((0.5, self.MODE), (2.0, self.OTHER), (0.25, self.MODE))
        state = SpectralState((coeff, mode) for coeff, mode in terms)
        assert state.coeff.tolist() == [0.75, 2.0]
        two = TwoParticleState((coeff, self.MODE, self.OTHER) for coeff in (1.0, 1j))
        assert two.coeff.tolist() == [1.0 + 1.0j]

    @pytest.mark.parametrize("coeff, message", [
        (None, "complex() first argument must be a string or a number, not 'NoneType'"),
        ([1], "complex() first argument must be a string or a number, not 'list'"),
        (np.array([1.0]), None),  # its error and message depend on the numpy version
        (object(), "complex() first argument must be a string or a number, not 'object'"),
    ], ids=["None", "list", "1-d array", "object"])
    def test_refused_coefficients_raise_as_complex_does(self, coeff, message):
        with pytest.raises(Exception) as want:
            complex(coeff)
        if message is not None:
            assert (want.type, str(want.value)) == (TypeError, message)
        for build in (lambda: SpectralState([(1.0, self.MODE), (coeff, self.OTHER)]),
                      lambda: TwoParticleState([(1.0, self.MODE, self.OTHER), (coeff, self.OTHER, self.MODE)])):
            with pytest.raises(want.type) as got:
                build()
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("cls, width", [(SpectralState, 1), (TwoParticleState, 2)])
    def test_bad_terms_raise_the_type_error(self, cls, width):
        message = "^terms must be \\(coefficient" + ", Mode" * width + "\\) tuples$"
        good = (1.0, *[self.MODE] * width)
        for bad in [(1.0, *[self.MODE] * (width - 1)), (*good, self.MODE),  # the wrong width
                    (1.0, *[self.MODE] * (width - 1), "mode"), (1.0, *[self.MODE] * (width - 1), self.MODE.p)]:
            with pytest.raises(TypeError, match=message):
                cls([good, bad])
            with pytest.raises(TypeError, match=message):
                cls([bad, good])

    def test_the_first_bad_term_raises_first(self):
        with pytest.raises(TypeError, match="not 'NoneType'$"):
            SpectralState([(1.0, self.MODE), (None, self.MODE), (2.0, 3)])
        with pytest.raises(TypeError, match="^terms must be"):
            SpectralState([(1.0, self.MODE), (2.0, 3), (None, self.MODE)])
        with pytest.raises(TypeError, match="^cannot unpack non-iterable float object$"):
            SpectralState([(1.0, self.MODE), 2.0])
        with pytest.raises(ValueError, match="^not enough values to unpack"):
            SpectralState([(1.0, self.MODE), ()])


class TestScalingGuard:
    def test_inner_product_contracts_only_matched_pairs(self, rng, monkeypatch):
        n, shared = 400, 10
        modes_a = [random_mode(rng) for _ in range(n)]
        modes_b = [random_mode(rng) for _ in range(n - shared)]
        modes_b += [Mode(m.p, m.branch, random_spin_coefficients(rng)) for m in modes_a[:shared]]
        sa = SpectralState(tuple((1.0, m) for m in modes_a))
        sb = SpectralState(tuple((1.0, m) for m in modes_b))
        rows = []
        overlaps = states.TermContainer.overlaps
        monkeypatch.setattr(states.TermContainer, "overlaps",
                            lambda self, i, *args: rows.append(len(i)) or overlaps(self, i, *args))
        inner_product(sa, sb)
        assert sum(rows) == shared

    def test_concatenated_current_lowers_only_the_rows(self, rng, monkeypatch):
        # 400 modes of one tau frequency: all 160,000 ordered pairs match, yet
        # the phases exp(i p.x) come from the 400 lowered momenta alone, so
        # the phase array holds points x rows entries; a pair path lowers
        # the 160,000 transfers, or no rows at all
        state = random_state(rng, 400, mass=1.0, subspace=Subspace.S_PLUS)
        assert sum(1 for _ in concatenated_pairs(state)) == 400 * 400
        lowered = []
        lower_index = states.lower_index
        monkeypatch.setattr(states, "lower_index", lambda p: lowered.append(np.shape(p)) or lower_index(p))
        concatenated_current(state, rng.normal(size=(8, 4)))
        assert lowered == [(400, 4)]
