"""Spectral states: mode bookkeeping, symmetries, currents, serialization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brute_force import (
    COEFFS,
    LABELS,
    all_pairs_inner,
    assert_same_terms,
    build_terms,
    frequencies_match,
    label_mode,
    pair_loop_current,
    scan_merge,
    signed_zeros,
)
from paradirac import states
from paradirac.algebra import GAMMA0, GAMMA2, GAMMA5, TWO_PI, four_vector, gamma
from paradirac.errors import BoxMismatch, MasslessState, SuperluminalMomentum
from paradirac.sampling import (
    random_mode,
    random_spin_coefficients,
    random_state,
    random_timelike_momentum,
)
from paradirac.states import (
    Mode,
    SpectralState,
    Subspace,
    bilinear_concatenated,
    charge_conjugate,
    classify_subspace,
    concatenated_current,
    concatenated_pairs,
    coordinate_velocity,
    current_divergence_fd,
    free_equation_residual,
    inner_product,
    mode_overlap,
    parity,
    plane_wave_value,
    same_mode,
    single_mode_state,
    state_from_json,
    state_to_json,
    time_reverse,
    tpc,
)

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
                assert mode.energy == abs(mode.p[0])

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

    def test_coordinate_velocity(self, rng):
        mode = random_mode(rng, mass=0.8, branch=-1, phi=1)
        assert abs(coordinate_velocity(mode) + 0.8 / mode.energy) <= 1e-12

    def test_same_mode(self, rng):
        mode = random_mode(rng)
        clone = Mode(p=mode.p.copy(), branch=mode.branch, a=mode.a.copy())
        assert same_mode(mode, clone)
        assert not same_mode(mode, Mode(p=mode.p, branch=-mode.branch, a=mode.a))


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
        v1 = plane_wave_value(mode, x, 0.2, box_edge=TWO_PI)
        v2 = plane_wave_value(mode, x, 0.2, box_edge=2.0 * TWO_PI)
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
        sb = random_state(rng, 2, box_edge=3.0)
        with pytest.raises(BoxMismatch):
            inner_product(sa, sb)

    def test_mode_overlap_kernel(self, rng):
        mode = random_mode(rng, branch=-1)
        assert abs(mode_overlap(mode, mode) + np.vdot(mode.a, mode.a)) <= 1e-12
        other = random_mode(rng, branch=-1)
        assert mode_overlap(mode, other) == 0.0j


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
        div = current_divergence_fd(state, points[:3], step=2e-3)
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


class TestSerialization:
    def test_roundtrip_values(self, rng):
        state = random_state(rng, 5)
        clone = state_from_json(state_to_json(state))
        assert clone.box_edge == state.box_edge
        for x, tau in _events(rng):
            assert np.abs(clone.value(x, tau) - state.value(x, tau)).max() <= 1e-12

    def test_roundtrip_term_count(self, rng):
        state = random_state(rng, 5)
        assert len(state_from_json(state_to_json(state)).terms) == len(state.terms)

    def test_wire_text(self):
        # recorded before the mode-record codec was shared with twobody
        state = SpectralState(((0.5 - 1.0j, label_mode((0, 1, 2, False))),
                               (1.0j, label_mode((1, -1, 3, True)))), box_edge=2.0)
        assert state_to_json(state) == (
            '[{"p": [1.4142135623730951, 1.0, 0.0, 0.0], "branch": 1, '
            '"a": [[0.3, -0.6], [0.8, 0.4]], "L": 2.0}, '
            '{"p": [-1.118033988749895, -0.0, 0.5, -0.0], "branch": -1, '
            '"a": [[-1.0, 1.0], [0.0, -0.5]], "L": 2.0}]')


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
        assert image.label_key == clone.label_key
        merged = SpectralState(((0.5, image), (0.25, clone)))
        assert len(merged.terms) == 1 and merged.terms[0][0] == 0.75
        assert merged.terms[0][1] is image
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
        assert [id(m) for _, m in state.terms] == [id(m2), id(m1), id(m3)]
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


class TestScalingGuard:
    def test_inner_product_contracts_only_matched_pairs(self, rng, monkeypatch):
        n, shared = 400, 10
        modes_a = [random_mode(rng) for _ in range(n)]
        modes_b = [random_mode(rng) for _ in range(n - shared)]
        modes_b += [Mode(m.p, m.branch, random_spin_coefficients(rng)) for m in modes_a[:shared]]
        sa = SpectralState(tuple((1.0, m) for m in modes_a))
        sb = SpectralState(tuple((1.0, m) for m in modes_b))
        calls = []
        overlap = states.mode_overlap
        monkeypatch.setattr(states, "mode_overlap", lambda ma, mb: calls.append(1) or overlap(ma, mb))
        inner_product(sa, sb)
        assert len(calls) == shared
