"""Two-particle states: exchange, evolution, S_fi, the Born-step operator."""

import cmath

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from brute_force import (
    COEFFS,
    LABEL_SPINS,
    LABELS,
    all_pairs_two_inner,
    assert_same_terms,
    bits,
    born_sandwich,
    born_step_loop,
    exchange_loop,
    frequencies_match,
    label_bits,
    label_mode,
    marginal_pair_loop,
    overlap,
    pair_loop_current,
    scan_merge,
    signed_zeros,
    two_value_loop,
)
from paradirac import states, twobody
from paradirac.algebra import ELEMENTARY_CHARGE, TWO_PI, four_vector
from paradirac.errors import (
    BoxMismatch,
    GridIncompatible,
    NoDominantEigenvalue,
    NonfiniteResult,
    OnLightCone,
    OnMassShell,
    SubspaceViolation,
)
from paradirac.propagate import elastic_shell, free_evolve
from paradirac.sampling import random_mode, random_spin_coefficients, random_timelike_momentum
from paradirac.scattering import coulomb_potential, s1_amplitude, zero_potential
from paradirac.radiative import axial_divergence_tree, vector_divergence_check
from paradirac.states import (
    Mode,
    SpectralState,
    TermContainer,
    _central_differences,
    _overlap_pairs,
    _window_outer,
    bilinear_concatenated,
    concatenated_current,
    concatenated_pairs,
    current_divergence_fd,
    inner_product,
    parity,
    single_mode_state,
)
from paradirac.twobody import (
    TwoParticleState,
    antisymmetrize,
    bs_born_step,
    bs_dominant_eigenpair,
    exchange_residual,
    mutual_scattering_amplitude,
    permute_labels,
    potential_from_transition,
    s2_first_order,
    symmetrize,
    two_conjugation_check,
    two_currents,
    two_evolve,
    two_inner_product,
)


def _mode(rng, **kw):
    kw.setdefault("branch", 1)
    kw.setdefault("phi", 1)
    return random_mode(rng, **kw)


class TestExchange:
    def test_pauli_exclusion_is_empty_state(self, rng):
        mode = _mode(rng)
        assert len(antisymmetrize(mode, mode).coeff) == 0

    def test_fermionic_antisymmetry_pointwise(self, rng):
        state = antisymmetrize(_mode(rng), _mode(rng))
        assert exchange_residual(state) <= 1e-15

    def test_bosonic_symmetry_pointwise(self, rng):
        state = symmetrize(_mode(rng), _mode(rng))
        assert exchange_residual(state) <= 1e-15

    def test_nan_values_make_the_residual_nan(self, rng):
        # in a box of edge 1e-80 the values overflow, and their differences
        # are NaN at all four events: the residual is NaN, not the pass value 0.0
        mx, my = _mode(rng), _mode(rng)
        state = TwoParticleState(((1, mx, my), (-1, my, mx)), "fermionic", 1e-80)
        with np.errstate(all="ignore"):
            assert np.isnan(exchange_residual(state))

    @pytest.mark.parametrize("exchange", ["fermionic", "bosonic", "none"])
    def test_residual_equals_the_per_event_loop_bit_for_bit(self, rng, exchange):
        # random terms, whose residual is of order one, and (anti)symmetrized
        # ones, whose residual is roundoff, of 1-6 terms in boxes of edge 1 to 10
        for n in range(1, 7):
            for trial in range(21):
                modes = [random_mode(rng, mass=rng.uniform(0.5, 3.0), p_scale=rng.uniform(0.3, 3.0))
                         for _ in range(2 * n)]
                coeffs = (rng.normal(size=n) + 1j * rng.normal(size=n)).tolist()
                terms = list(zip(coeffs, modes[::2], modes[1::2]))
                if trial == 20:
                    sign = 1.0 if exchange == "bosonic" else -1.0
                    terms = terms[:(n + 1) // 2]
                    terms += [(sign * c, y, x) for c, x, y in terms]
                state = TwoParticleState(terms, exchange, rng.uniform(1.0, 10.0))
                assert exchange_residual(state).hex() == exchange_loop(state).hex()

    def test_value_broadcasts_as_the_per_event_loop_bit_for_bit(self, rng):
        # a (2, 3) grid of events in one call, and each event alone, against
        # the term-by-term loop
        for n in range(1, 7):
            modes = [random_mode(rng, mass=rng.uniform(0.5, 3.0), p_scale=rng.uniform(0.3, 3.0))
                     for _ in range(2 * n)]
            coeffs = (rng.normal(size=n) + 1j * rng.normal(size=n)).tolist()
            state = TwoParticleState(list(zip(coeffs, modes[::2], modes[1::2])), "none", rng.uniform(1.0, 10.0))
            x, y, tau = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3))
            grid = state.value(x, y, tau)
            assert grid.shape == (2, 3, 4, 4)
            for i, j in np.ndindex(2, 3):
                want = two_value_loop(state, x[i, j], y[i, j], tau[i, j]).tobytes()
                assert grid[i, j].tobytes() == want
                assert state.value(x[i, j], y[i, j], tau[i, j]).tobytes() == want

    def test_permute_labels_negates_fermionic(self, rng):
        m1, m2 = _mode(rng), _mode(rng)
        state = antisymmetrize(m1, m2)
        flipped = permute_labels(state)
        x, y, tau = np.zeros(4), np.ones(4) * 0.3, 0.7
        assert np.abs(flipped.value(x, y, tau) + state.value(x, y, tau)).max() <= 1e-15

    def test_term_merging(self, rng):
        m1, m2 = _mode(rng), _mode(rng)
        state = TwoParticleState(terms=((0.4, m1, m2), (0.6, m1, m2)))
        assert len(state.terms) == 1
        assert abs(state.terms[0][0] - 1.0) <= 1e-15

    def test_bad_exchange_tag(self, rng):
        with pytest.raises(ValueError):
            TwoParticleState(terms=(), exchange="anyonic")


class TestInnerProductAndEvolution:
    def test_norm_of_antisymmetrized_distinct_modes(self, rng):
        m1, m2 = _mode(rng), _mode(rng)
        state = antisymmetrize(m1, m2)
        norm = two_inner_product(state, state)
        target = np.vdot(m1.a, m1.a) * np.vdot(m2.a, m2.a)
        assert abs(norm - target) <= 1e-13

    def test_box_mismatch(self, rng):
        sa = antisymmetrize(_mode(rng), _mode(rng))
        sb = TwoParticleState(terms=((1.0, _mode(rng), _mode(rng)),), box_edge=5.0)
        with pytest.raises(BoxMismatch):
            two_inner_product(sa, sb)

    def test_two_evolve_factorizes_pointwise(self, rng):
        mx, my = _mode(rng), _mode(rng)
        prod = TwoParticleState(terms=((1.0, mx, my),))
        evolved = two_evolve(prod, 0.0, 0.8, 1)
        ex = free_evolve(single_mode_state(mx), 0.0, 0.8, 1)
        ey = free_evolve(single_mode_state(my), 0.0, 0.8, 1)
        x, y, tau = rng.normal(size=4), rng.normal(size=4), 0.2
        lhs = evolved.value(x, y, tau)
        rhs = np.outer(ex.value(x, tau), ey.value(y, tau))
        assert np.abs(lhs - rhs).max() <= 1e-15

    def test_two_evolve_drops_mixed_subspace_terms(self, rng):
        mx = _mode(rng)
        my_minus = random_mode(rng, branch=-1, phi=1)
        mixed = TwoParticleState(terms=((1.0, mx, my_minus),))
        assert len(two_evolve(mixed, 0.0, 0.5, 1).coeff) == 0

    def test_evolution_preserves_norm(self, rng):
        state = antisymmetrize(_mode(rng), _mode(rng))
        evolved = two_evolve(state, 0.0, 1.7, 1)
        before = two_inner_product(state, state)
        after = two_inner_product(evolved, evolved)
        assert abs(before - after) <= 1e-13


class TestFirstOrderAmplitude:
    def test_free_term_is_overlap(self, rng):
        state = antisymmetrize(_mode(rng), _mode(rng))
        amp = s2_first_order(state, state, (zero_potential(), zero_potential()))
        assert abs(amp.value - two_inner_product(state, state)) <= 1e-13

    def test_overflowing_sum_raises(self):
        # finite coefficients whose Born weight conj(c_f) c_i overflows
        m = Mode([2, .3, .1, 0], 1, [1, .5j])
        m2 = Mode([2, .1, .3, 0], 1, [.2, .5j])
        state_i, state_f = TwoParticleState([(1e200, m, m)]), TwoParticleState([(1e200, m2, m)])
        with pytest.raises(NonfiniteResult):
            s2_first_order(state_i, state_f, (coulomb_potential(1.0, mu=0.3),) * 2)

    def test_label_permutation_flips_sign(self, rng):
        state_i = antisymmetrize(_mode(rng), _mode(rng))
        state_f = antisymmetrize(_mode(rng), _mode(rng))
        pots = (coulomb_potential(1.0), coulomb_potential(2.0))
        plain = s2_first_order(state_i, state_f, pots).value
        flipped = s2_first_order(permute_labels(state_i), state_f, pots).value
        assert abs(plain + flipped) <= 1e-13 * max(1.0, abs(plain))

    def test_separable_amplitude_factorizes(self, rng):
        ix, spectator = _mode(rng), _mode(rng)
        fx = Mode(p=elastic_shell(ix.p, [0.7], n_azimuth=1)[0], branch=1,
                  a=random_spin_coefficients(rng))
        state_i = TwoParticleState(terms=((1.0, ix, spectator),))
        state_f = TwoParticleState(terms=((1.0, fx, spectator),))
        amp = s2_first_order(state_i, state_f, (coulomb_potential(2.0), zero_potential()))
        s1 = s1_amplitude(ix.p, ix.a, fx.p, fx.a, coulomb_potential(2.0))
        target = 1j * ELEMENTARY_CHARGE / TWO_PI**3 * s1.value * np.vdot(spectator.a, spectator.a)
        assert abs(amp.value - target) <= 1e-14 * max(1.0, abs(target))

    def test_tau_shift_invariance(self, rng):
        state_i = antisymmetrize(_mode(rng), _mode(rng))
        state_f = antisymmetrize(_mode(rng), _mode(rng))
        pots = (coulomb_potential(1.0), coulomb_potential(1.0))
        plain = s2_first_order(state_i, state_f, pots).value
        shifted = s2_first_order(
            two_evolve(state_i, 0.0, 1.3, 1),
            two_evolve(state_f, 0.0, 1.3, 1),
            pots,
        ).value
        assert abs(plain - shifted) <= 1e-13 * max(1.0, abs(plain))

    def test_born_sandwich_needs_a_partner_overlap(self, rng):
        # x joins with zero transfer, which the unscreened Coulomb transform
        # cannot take, but the y partners do not overlap, so that x
        # transition carries no weight and its sandwich is never evaluated
        ix, iy = _mode(rng), _mode(rng)
        fx = Mode(ix.p, 1, random_spin_coefficients(rng))
        fy = Mode(elastic_shell(iy.p, [0.9], n_azimuth=1)[0], 1, random_spin_coefficients(rng))
        state_i = TwoParticleState(((1.0, ix, iy),))
        state_f = TwoParticleState(((1.0, fx, fy),))
        pots = (coulomb_potential(1.0), coulomb_potential(2.0))
        value = s2_first_order(state_i, state_f, pots).value
        assert np.isfinite(value)
        assert value == all_pairs_s2(state_i, state_f, pots)

    def test_backward_subspace_rejected(self, rng):
        minus = random_mode(rng, branch=-1, phi=1)
        state = TwoParticleState(terms=((1.0, minus, _mode(rng)),))
        with pytest.raises(SubspaceViolation):
            s2_first_order(state, state, (coulomb_potential(1.0), zero_potential()))


class TestBornStep:
    def _basis(self, rng, n=5):
        return [(_mode(rng), _mode(rng)) for _ in range(n)]

    def test_shape_guard(self, rng):
        basis = self._basis(rng, 3)
        with pytest.raises(GridIncompatible):
            bs_born_step(np.ones(2), basis, np.eye(3), 1.3)
        with pytest.raises(GridIncompatible):
            bs_born_step(np.ones(3), basis, np.eye(4), 1.3)

    def test_pole_guard(self, rng):
        basis = self._basis(rng, 2)
        # every forward pair has total frequency 2m = 2.0
        with pytest.raises(OnMassShell):
            bs_born_step(np.ones(2), basis, np.eye(2), 2.0)

    def test_geometric_series_rank_one(self, rng):
        basis = self._basis(rng, 5)
        g = rng.normal(size=5) + 1j * rng.normal(size=5)
        lam = 0.41 + 0.08j
        v = lam * np.outer(g, g.conj())
        mass = 1.25
        nu_total = 2.0
        ratio = lam * np.vdot(g, g) * (-2.0 / (nu_total - mass))
        psi = rng.normal(size=5) + 1j * rng.normal(size=5)
        k1 = bs_born_step(psi, basis, v, mass)
        k2 = bs_born_step(k1, basis, v, mass)
        k3 = bs_born_step(k2, basis, v, mass)
        scale = np.abs(k1).max()
        assert np.abs(k2 - ratio * k1).max() <= 1e-12 * scale
        assert np.abs(k3 - ratio**2 * k1).max() <= 1e-12 * scale * abs(ratio)

    def test_backward_rows_are_zero(self, rng):
        basis = self._basis(rng, 3)
        basis.append((random_mode(rng, branch=-1, phi=1), _mode(rng)))
        out = bs_born_step(np.ones(4), basis, np.eye(4), 1.4)
        assert out[-1] == 0.0
        assert np.all(out[:-1] != 0.0)

    def test_matches_the_pair_loop_bit_for_bit(self, rng):
        # forward pairs of masses 0.5 to 4 on both sides of the pole, pairs
        # with a backward mode in either slot, and a backward pair whose total
        # frequency 2.0 - 0.7 sits on the pole and so must not raise
        mass = 1.3
        on_pole = (_mode(rng, mass=2.0), _mode(rng, mass=0.7, branch=-1))
        assert abs(on_pole[0].frequency + on_pole[1].frequency - mass) < 1e-12
        for _ in range(40):
            basis = [(_mode(rng, mass=rng.uniform(0.5, 4.0), branch=rng.choice([1, 1, -1])),
                      _mode(rng, mass=rng.uniform(0.5, 4.0), branch=rng.choice([1, 1, -1])))
                     for _ in range(7)] + [on_pole]
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            v = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            got = bs_born_step(psi, basis, v, mass)
            assert [bits(z) for z in got] == [bits(z) for z in born_step_loop(psi, basis, v, mass)]
        # D = -2/6.7 times the least subnormal underflows, and the zero's sign
        # is the loop's only through a scalar complex product
        basis = [(_mode(rng, mass=4.0), _mode(rng, mass=4.0))] * 2 + [on_pole]
        psi = np.array([5e-324 - 1j, -5e-324 + 1j, 1.0])
        got = bs_born_step(psi, basis, np.eye(3), mass)
        assert [bits(z) for z in got] == [bits(z) for z in born_step_loop(psi, basis, np.eye(3), mass)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["v", "coeffs"])
    def test_refuses_a_nonfinite_input(self, rng, where, bad):
        basis = self._basis(rng, 3)
        psi, v = np.ones(3, dtype=complex), np.eye(3, dtype=complex)
        (v if where == "v" else psi).flat[1] = bad
        with pytest.raises(NonfiniteResult):
            bs_born_step(psi, basis, v, 1.3)
        # after the shape guard, before the kernel's pole test: every forward pair sits on mass 2.0
        with pytest.raises(GridIncompatible):
            bs_born_step(psi[:2], basis, v, 1.3)
        with pytest.raises(NonfiniteResult):
            bs_born_step(psi, basis, v, 2.0)

    def test_dominant_eigenpair_matches_ratio(self, rng):
        basis = self._basis(rng, 4)
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        lam = 0.3 - 0.2j
        v = lam * np.outer(g, g.conj())
        ratio = lam * np.vdot(g, g) * (-2.0 / (2.0 - 1.1))
        eig, vec = bs_dominant_eigenpair(basis, v, 1.1)
        assert abs(eig - ratio) <= 1e-12 * abs(ratio)
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12


def _matches_eigvals(basis, v, mass):
    """bs_dominant_eigenpair against np.linalg.eigvals of D V, built column by
    column from the pair loop: the eigenvalue of largest magnitude within
    1e-10 relative, with a unit eigenvector, or NoDominantEigenvalue where the
    two largest magnitudes agree within 1e-10.  True when it returned."""
    operator = np.column_stack([born_step_loop(e, basis, v, mass) for e in np.eye(len(basis))])
    values = np.linalg.eigvals(operator)
    size = np.sort(np.abs(values))
    try:
        lam, vec = bs_dominant_eigenpair(basis, v, mass)
    except NoDominantEigenvalue:
        assert size[-2] >= size[-1] * (1.0 - 1e-10)
        return False
    assert abs(lam - values[np.argmax(np.abs(values))]) <= 1e-10 * size[-1]
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    assert np.linalg.norm(operator @ vec - lam * vec) <= 1e-10 * abs(lam)
    return True


class TestDominantEigenpair:
    def test_hermitian_probe(self):
        # 300 Hermitian V on 6 forward pairs of mass-1 modes at mass 1.3, so D
        # is one constant; 93 cases have a gap |l1|/|l2| below 1.1, where 20
        # power-iteration steps were off by a median 0.36 relative
        rng = np.random.default_rng(3)
        for _ in range(300):
            basis = [(_mode(rng), _mode(rng)) for _ in range(6)]
            h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            assert _matches_eigvals(basis, (h + h.conj().T) / 2, 1.3)

    def test_indefinite_kernel_raises_only_on_a_tie(self):
        # forward frequencies from 0.8 to 2.0 put D's entries on both sides of
        # the pole, and a Hermitian V then gives conjugate pairs of eigenvalues
        rng = np.random.default_rng(5)
        returned = 0
        for _ in range(100):
            basis = [(_mode(rng, mass=rng.uniform(0.4, 1.0)), _mode(rng, mass=rng.uniform(0.4, 1.0)))
                     for _ in range(6)]
            h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            returned += _matches_eigvals(basis, (h + h.conj().T) / 2, 1.3)
        assert 0 < returned < 100

    def test_exact_tie_raises(self, rng):
        # D V = [[0, d1], [d2, 0]] has eigenvalues +-sqrt(d1 d2): no dominant one
        basis = [(_mode(rng), _mode(rng)), (_mode(rng), _mode(rng, mass=2.0))]
        with pytest.raises(NoDominantEigenvalue):
            bs_dominant_eigenpair(basis, [[0.0, 1.0], [1.0, 0.0]], 1.3)

    def test_known_spectrum(self, rng):
        # on the forward block V = D^-1 Q diag(lam) Q^-1, so D V has the
        # eigenvalues lam there; a backward pair adds a zero row to D V, and
        # with it the eigenvalue 0, whatever V holds in its row and column
        mass = 1.3
        masses = (0.5, 0.6, 0.9, 1.0)
        basis = [(_mode(rng, mass=m), _mode(rng, mass=m)) for m in masses]
        basis.insert(2, (_mode(rng, branch=-1), _mode(rng)))
        forward = [0, 1, 3, 4]
        d = np.array([-2.0 / (mx.frequency + my.frequency - mass) for mx, my in (basis[k] for k in forward)])
        lam = np.array([0.3 + 0.2j, -2.5 + 1.0j, -1.1, 0.05j])
        q = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        v[np.ix_(forward, forward)] = (q * lam) @ np.linalg.inv(q) / d[:, None]
        eig, vec = bs_dominant_eigenpair(basis, v, mass)
        assert abs(eig - lam[1]) <= 1e-10 * abs(lam[1])
        assert abs(vec[2]) <= 1e-12
        assert _matches_eigvals(basis, v, mass)

    def test_all_backward_basis_gives_zero(self, rng):
        basis = [(_mode(rng, branch=-1), _mode(rng)), (_mode(rng), _mode(rng, branch=-1)),
                 (_mode(rng, phi=-1), _mode(rng, branch=-1, phi=-1))]
        v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        eig, vec = bs_dominant_eigenpair(basis, v, 1.3)
        assert eig == 0.0
        assert vec.shape == (3,) and not vec.any()

    def test_shape_guard(self, rng):
        with pytest.raises(GridIncompatible):
            bs_dominant_eigenpair([(_mode(rng), _mode(rng)) for _ in range(3)], np.eye(4), 1.3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_refuses_a_nonfinite_v(self, rng, bad):
        basis = [(_mode(rng), _mode(rng)) for _ in range(3)]
        v = np.eye(3, dtype=complex)
        v[0, 1] = bad
        with pytest.raises(NonfiniteResult):
            bs_dominant_eigenpair(basis, v, 1.3)
        with pytest.raises(NonfiniteResult):  # before the kernel's pole test
            bs_dominant_eigenpair(basis, v, 2.0)


class TestMutualScattering:
    def test_symmetry_between_particles(self, rng):
        in1 = random_mode(rng, branch=1, phi=1, p_scale=0.4)
        in2 = random_mode(rng, mass=2.0, branch=1, phi=1, p_scale=0.3)
        out1 = Mode(p=elastic_shell(in1.p, [0.9], n_azimuth=1)[0], branch=1,
                    a=random_spin_coefficients(rng))
        out2 = Mode(p=in2.p + (in1.p - out1.p), branch=1,
                    a=random_spin_coefficients(rng))
        a12 = mutual_scattering_amplitude(in1, out1, in2, out2, 0.5, 1.1)
        a21 = mutual_scattering_amplitude(in2, out2, in1, out1, 1.1, 0.5)
        assert abs(a12 - a21) <= 1e-13 * max(1.0, abs(a12))

    def test_lightlike_transfer_rejected(self, rng):
        mode = _mode(rng)
        with pytest.raises(OnLightCone):
            potential_from_transition(mode, mode, 1.0)

    def test_sourced_potential_nodes(self, rng):
        m_in = _mode(rng)
        m_out = Mode(p=elastic_shell(m_in.p, [1.0], n_azimuth=1)[0], branch=1,
                     a=random_spin_coefficients(rng))
        pot = potential_from_transition(m_in, m_out, 0.7)
        k0 = m_in.p - m_out.p
        node = pot.fourier(k0)
        assert np.abs(pot.fourier(-k0) - np.conj(node)).max() <= 1e-15
        assert np.abs(pot.fourier(k0 + four_vector(0.0, 0.5, 0, 0))).max() == 0.0
        assert not pot.static


class TestKernelAndCurrents:
    def test_two_body_conjugation_exact(self, rng):
        pairs = [
            (random_mode(rng).p, random_mode(rng).p)
            for _ in range(3)
        ]
        resid = two_conjugation_check((rng.normal(size=4), rng.normal(size=4)), 0.7, pairs)
        assert resid == 0.0

    def test_marginal_currents_product_state(self, rng):
        mx, my = _mode(rng), _mode(rng)
        state = TwoParticleState(terms=((0.8 - 0.1j, mx, my),))
        points = rng.normal(size=(5, 4))
        j1, j2 = two_currents(state, points)
        assert j1.values.shape == (5, 4)
        assert j2.values.shape == (5, 4)
        # particle-1 marginal carries the partner norm as a constant weight
        from paradirac.states import concatenated_current

        base = concatenated_current(single_mode_state(mx, coeff=abs(0.8 - 0.1j)), points)
        weight = float(np.vdot(my.a, my.a).real)
        assert np.abs(j1.values - base.values * weight).max() <= 1e-13

    def test_marginal_divergence_vanishes(self, rng):
        m1 = random_mode(rng, branch=1, phi=1, p_scale=0.5)
        m2 = random_mode(rng, branch=1, phi=1, p_scale=0.5)
        m3 = random_mode(rng, branch=1, phi=1, p_scale=0.5)
        state = antisymmetrize(m1, m2)
        state = TwoParticleState(
            terms=tuple(state.terms) + ((0.3, m3, m1),), exchange="none"
        )
        points = rng.normal(size=(3, 4))
        for particle in (0, 1):
            d = _central_differences(lambda x: two_currents(state, x)[particle].values, points, 2e-3)
            assert np.abs(sum(d[mu, :, mu] for mu in range(4))).max() <= 1e-9

    def test_nonfinite_marginal_current_raises(self, rng):
        # two x modes of one mass share a partner, so their pair survives and
        # its phase (p_l - p_k).x overflows at |x| = 1e308
        partner = _mode(rng)
        state = TwoParticleState(((1.0, _mode(rng, mass=1.0), partner), (0.5, _mode(rng, mass=1.0), partner)))
        with pytest.raises(NonfiniteResult):
            two_currents(state, np.full((2, 4), 1e308))


class TestSerialization:
    """The container fields a state carries besides its terms."""

    @pytest.mark.parametrize("build", [
        lambda mode, edge: SpectralState(((1.0, mode),), edge),
        lambda mode, edge: TwoParticleState(((1.0, mode, mode),), "none", edge),
    ], ids=["SpectralState", "TwoParticleState"])
    def test_box_edge_must_be_positive_and_finite(self, build):
        mode = Mode(np.array([np.sqrt(2.0), 1.0, 0.0, 0.0]), 1, np.array([0.3 - 0.6j, 0.8 + 0.4j]))
        for edge in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="box edge"):
                build(mode, edge)
        assert build(mode, 2.0).box_edge == 2.0


# ---------------------------------------------------------------------------
# label keys: merges, joins and marginal currents against the brute-force
# loops of brute_force.py

# positive-energy momenta on one mass-1 energy shell, so that forward u
# modes built from them conserve energy in every Born transition
SHELL_MOMENTA = tuple(
    four_vector(np.sqrt(2.0), *direction)
    for direction in ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0))
)
FORWARD_LABELS = st.tuples(
    st.integers(0, len(SHELL_MOMENTA) - 1),
    st.just(1),
    st.integers(0, len(LABEL_SPINS) - 1),
    st.booleans(),
)
TWO_TERMS = st.lists(st.tuples(COEFFS, LABELS, LABELS), max_size=10)
SHARED_COULOMB = coulomb_potential(1.0, mu=0.5)
# one transform for both particles, one each, and non-static sources whose
# transfers +-(p_0 - p_2) and +-(p_1 - p_3) join shell labels
S2_POTENTIALS = {
    "shared": (SHARED_COULOMB, SHARED_COULOMB),
    "distinct": (coulomb_potential(1.0, mu=0.5), coulomb_potential(2.0, mu=0.7)),
    "transition": tuple(potential_from_transition(label_mode((k, 1, k, False), SHELL_MOMENTA),
                                                  label_mode((k + 2, 1, 1, False), SHELL_MOMENTA), 0.7)
                        for k in (0, 1)),
}
FORWARD_TERMS = st.lists(st.tuples(COEFFS, FORWARD_LABELS, FORWARD_LABELS), max_size=8)


def two_terms(raw, momenta=None):
    kw = {} if momenta is None else {"momenta": momenta}
    return tuple((c, label_mode(x, **kw), label_mode(y, **kw)) for c, x, y in raw)


def all_pairs_s2(state_i, state_f, pots):
    """s2_first_order as the loop over every (final, initial) term pair."""
    e1 = e2 = ELEMENTARY_CHARGE
    box3 = TWO_PI**3
    value = all_pairs_two_inner(state_f.terms, state_i.terms)
    for cf, fx, fy in state_f.terms:
        for ci, ix, iy in state_i.terms:
            weight = np.conj(cf) * ci
            ov_y = overlap(fy, iy)
            if ov_y != 0.0:
                value += weight * (1j * e1 / box3) * born_sandwich(ix, fx, pots[0]) * ov_y
            ov_x = overlap(fx, ix)
            if ov_x != 0.0:
                value += weight * ov_x * (1j * e2 / box3) * born_sandwich(iy, fy, pots[1])
    return complex(value)


class TestLabelKeys:
    def test_parity_negative_zero_partners_merge(self, rng):
        mode = Mode(four_vector(np.sqrt(2.0), 0.0, 1.0, 0.0), 1, random_spin_coefficients(rng))
        image = parity(single_mode_state(mode)).terms[0][1]
        assert np.signbit(image.p[[1, 3]]).all()
        clone = Mode(np.where(image.p == 0.0, 0.0, image.p), 1, image.a)
        other = _mode(rng)
        state = TwoParticleState(((0.5, image, other), (0.25, clone, other), (1.0, other, clone)))
        assert len(state.terms) == 2
        assert state.terms[0][0] == 0.75 and label_bits(state.terms[0][1]) == label_bits(image)
        assert label_bits(state.terms[1][1]) == label_bits(other)
        single = TwoParticleState(((1.0, other, image),))
        assert two_inner_product(single, state) == np.vdot(other.a, other.a) * np.vdot(image.a, image.a)

    def test_opposite_coefficients_drop_out(self, rng):
        mx, my = _mode(rng), _mode(rng)
        flipped = Mode(signed_zeros(mx.p, True), mx.branch, signed_zeros(mx.a, True))
        state = TwoParticleState(((0.5, mx, my), (1.0, my, mx), (-0.5, flipped, my)))
        assert len(state.terms) == 1 and label_bits(state.terms[0][1]) == label_bits(my)

    @given(TWO_TERMS)
    def test_merge_matches_linear_scan(self, raw):
        terms = two_terms(raw)
        assert_same_terms(TwoParticleState(terms).terms, scan_merge(terms))

    @given(TWO_TERMS, TWO_TERMS)
    def test_two_inner_product_matches_all_pairs(self, raw_a, raw_b):
        sa, sb = TwoParticleState(two_terms(raw_a)), TwoParticleState(two_terms(raw_b))
        assert two_inner_product(sa, sb) == all_pairs_two_inner(sa.terms, sb.terms)

    @given(TWO_TERMS, TWO_TERMS)
    def test_inner_product_of_width_two_matches_all_pairs(self, raw_a, raw_b):
        sa, sb = TwoParticleState(two_terms(raw_a)), TwoParticleState(two_terms(raw_b))
        assert inner_product(sa, sb) == all_pairs_two_inner(sa.terms, sb.terms)

    @pytest.mark.parametrize("pots", S2_POTENTIALS.values(), ids=S2_POTENTIALS.keys())
    @given(FORWARD_TERMS, FORWARD_TERMS)
    # the final term meets incident terms 1 and 2 through x and term 2 also
    # through y, so the visiting order shows in the rounding of the sum
    @example(raw_i=[(2.0, (0, 1, 0, False), (0, 1, 0, False)),
                    (1.0, (1, 1, 0, False), (0, 1, 0, False)),
                    (1.0, (1, 1, 0, False), (2, 1, 1, False))],
             raw_f=[(1.0, (1, 1, 0, False), (2, 1, 2, False))])
    def test_s2_matches_all_pairs(self, pots, raw_i, raw_f):
        state_i = TwoParticleState(two_terms(raw_i, SHELL_MOMENTA))
        state_f = TwoParticleState(two_terms(raw_f, SHELL_MOMENTA))
        assert s2_first_order(state_i, state_f, pots).value == all_pairs_s2(state_i, state_f, pots)

    @given(st.lists(st.tuples(COEFFS, LABELS, LABELS), max_size=8))
    def test_two_currents_match_pair_loop(self, raw):
        state = TwoParticleState(two_terms(raw))
        points = np.random.default_rng(len(raw)).normal(size=(5, 4))
        for particle, field in zip((1, 2), two_currents(state, points)):
            want = pair_loop_current(marginal_pair_loop(state, particle), points)
            assert np.abs(field.values - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def window_pairs(group, nu):
    """The number of row pairs that _window_outer sums: each adds conj(1) 1
    at zero momentum."""
    rows = np.zeros((len(nu), 1, 4))
    rows[:, 0, 0] = 1.0
    outer = _window_outer(np.asarray(group, dtype=np.intp), np.asarray(nu), rows, rows, np.zeros((len(nu), 4)),
                          np.zeros((1, 4)), 1.0)
    return int(outer[0, 0, 0, 0, 0].real)


class TestNonTransitiveChains:
    """Masses 1 + j step, for a step near the relative frequency tolerance
    1e-12, make chains of tau frequencies whose matches are not transitive:
    the window kernel sums exactly the pairs of the frequency test, and the
    currents match the pair loops, in one- and two-particle form."""

    STEPS = (0.3e-12, 0.6e-12, 0.9e-12, 1.1e-12)

    @staticmethod
    def chain_modes(rng, step):
        """8 masses, each on both energy signs and both branches."""
        return [Mode(random_timelike_momentum(rng, mass=1.0 + j * step, phi=phi, p_scale=0.5), branch,
                     random_spin_coefficients(rng))
                for j in range(8) for phi in (1, -1) for branch in (1, -1)]

    @pytest.mark.parametrize("step", STEPS)
    def test_one_particle(self, rng, step):
        state = SpectralState([(complex(*rng.normal(size=2)), m) for m in self.chain_modes(rng, step)])
        freqs = sorted({m.frequency for _, m in state.terms})
        transitive = all(frequencies_match(a, c) for a in freqs for b in freqs for c in freqs
                         if frequencies_match(a, b) and frequencies_match(b, c))
        assert transitive == (step > 1e-12)
        pairs = [(np.conj(ck) * cl, mk, ml) for ck, mk in state.terms for cl, ml in state.terms
                 if frequencies_match(mk.frequency, ml.frequency)]
        assert window_pairs(np.zeros(len(state.coeff)), state.frequency[:, 0]) == len(pairs)
        assert sum(1 for _ in concatenated_pairs(state)) == len(pairs)
        points = rng.normal(size=(5, 4))
        want = pair_loop_current(pairs, points)
        got = concatenated_current(state, points).values
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("step", STEPS)
    def test_two_particle(self, rng, step):
        # two partners share an overlap key; the third is on the v branch
        y = _mode(rng)
        partners = (y, Mode(y.p, 1, random_spin_coefficients(rng)), _mode(rng, branch=-1))
        state = TwoParticleState([(complex(*rng.normal(size=2)), x, y)
                                  for x in self.chain_modes(rng, step) for y in partners])
        points = rng.normal(size=(5, 4))
        for particle, field in zip((1, 2), two_currents(state, points)):
            pairs = marginal_pair_loop(state, particle)
            ids: dict = {}
            group = [ids.setdefault(key, len(ids)) for key in state._column_keys(2 - particle)]
            assert window_pairs(group, state.frequency.sum(axis=1)) == len(pairs)
            want = pair_loop_current(pairs, points)
            assert np.abs(field.values - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def numpy_scalar_inner(sa, sb):
    """inner_product's sum in numpy scalar arithmetic, np.conj(c_a) c_b ov,
    over the library's own joined pairs and overlap products."""
    i, j, products = _overlap_pairs(sa, sb, range(sa.width))
    total = 0j
    with np.errstate(all="ignore"):  # the 1e200 scales overflow to inf on purpose
        for ca, cb, ov in zip(sa.coeff[i].tolist(), sb.coeff[j].tolist(), products):
            if ov:
                total += np.conj(ca) * cb * ov
    return total


SCALES = st.sampled_from((1.0, 1e200))


class TestInnerProductArithmetic:
    """inner_product sums in Python complex arithmetic: it returns a complex
    whether or not any pair joins, bit for bit numpy's scalar product, and
    raises NonfiniteResult where that product is not finite."""

    @staticmethod
    def check(sa, sb):
        want = numpy_scalar_inner(sa, sb)
        if not cmath.isfinite(want):
            with pytest.raises(NonfiniteResult):
                inner_product(sa, sb)
            return
        got = inner_product(sa, sb)
        assert type(got) is complex
        assert bits(got) == bits(want)

    @given(SCALES, st.lists(st.tuples(COEFFS, LABELS), max_size=10),
           SCALES, st.lists(st.tuples(COEFFS, LABELS), max_size=10))
    @example(scale_a=1.0, raw_a=[(0.25 - 2.0j, (0, 1, 3, False))],
             scale_b=1.0, raw_b=[(1.0j, (0, 1, 2, True))])
    @example(scale_a=1.0, raw_a=[(1.0, (0, 1, 0, False))],
             scale_b=1.0, raw_b=[(1.0, (1, 1, 0, False))])
    # the norm of a finite state whose sum overflows
    @example(scale_a=1e200, raw_a=[(1.0, (0, 1, 0, False))],
             scale_b=1e200, raw_b=[(1.0, (0, 1, 0, False))])
    def test_width_one(self, scale_a, raw_a, scale_b, raw_b):
        sa = SpectralState(tuple((c * scale_a, label_mode(x)) for c, x in raw_a))
        sb = SpectralState(tuple((c * scale_b, label_mode(x)) for c, x in raw_b))
        self.check(sa, sb)

    @given(SCALES, TWO_TERMS, SCALES, TWO_TERMS)
    @example(scale_a=1e200, raw_a=[(0.25 - 2.0j, (0, 1, 3, False), (2, -1, 2, False))],
             scale_b=1e200, raw_b=[(0.5, (0, 1, 2, True), (2, -1, 3, False))])
    def test_width_two(self, scale_a, raw_a, scale_b, raw_b):
        sa = TwoParticleState(tuple((c * scale_a, x, y) for c, x, y in two_terms(raw_a)))
        sb = TwoParticleState(tuple((c * scale_b, x, y) for c, x, y in two_terms(raw_b)))
        self.check(sa, sb)


class TestScalingGuard:
    """The overlap join of 400-term states returns only their key-matched
    term pairs, s2_first_order sorts and sums only the joined pairs
    whose deltas hold, and two_currents builds their spinors once."""

    N_TERMS = 400

    @pytest.fixture
    def joined_pairs(self, monkeypatch):
        pairs, overlap_pairs = [], states._overlap_pairs

        def counting(*args):
            joined = overlap_pairs(*args)
            pairs.append(len(joined[0]))
            return joined

        for module in (states, twobody):
            monkeypatch.setattr(module, "_overlap_pairs", counting)
        return pairs

    @staticmethod
    def relabel(rng, mode):
        """New spin coefficients on the (p, branch) of mode."""
        return Mode(mode.p, mode.branch, random_spin_coefficients(rng))

    def test_two_inner_product(self, rng, joined_pairs):
        terms_a = [(1.0, _mode(rng), _mode(rng)) for _ in range(self.N_TERMS)]
        shared = [(1.0, self.relabel(rng, x), self.relabel(rng, y)) for _, x, y in terms_a[:10]]
        terms_b = [(1.0, _mode(rng), _mode(rng)) for _ in range(self.N_TERMS - 10)] + shared
        two_inner_product(TwoParticleState(tuple(terms_a)), TwoParticleState(tuple(terms_b)))
        assert sum(joined_pairs) == 10

    def test_s2_first_order(self, rng, joined_pairs):
        initial = [(1.0, _mode(rng), _mode(rng)) for _ in range(self.N_TERMS)]
        final = [(1.0, _mode(rng), self.relabel(rng, y)) for _, _, y in initial[:10]]
        final += [(1.0, self.relabel(rng, x), _mode(rng)) for _, x, _ in initial[10:15]]
        final += [(1.0, _mode(rng), _mode(rng)) for _ in range(self.N_TERMS - 15)]
        pots = (coulomb_potential(1.0), coulomb_potential(2.0))
        s2_first_order(TwoParticleState(tuple(initial)), TwoParticleState(tuple(final)), pots)
        # 15 term pairs join on a partner; no pair joins on both columns
        assert joined_pairs == [10, 5, 0]

    def test_s2_first_order_keeps_only_live_pairs(self, rng, monkeypatch):
        # 400 x rows of one mass over 8 shared partners: 396 final rows join
        # 50 incident rows each through their partner, but of those ~20000
        # pairs only the 6 whose x is rotated on its own energy shell conserve
        # energy (particle 1), and the 4 rows whose partner is rotated join
        # their incident row through the unchanged x (particle 2)
        counted = []

        def counting_sorted(events):
            events = list(events)
            counted.extend(events)
            return sorted(events)

        monkeypatch.setattr(twobody, "sorted", counting_sorted, raising=False)
        partners = [_mode(rng, mass=1.0) for _ in range(8)]
        initial = [(1.0, _mode(rng, mass=1.0), partners[k % 8]) for k in range(self.N_TERMS)]

        def rotated(mode):
            return Mode(elastic_shell(mode.p, [0.9], n_azimuth=1)[0], 1, random_spin_coefficients(rng))

        final = [(1.0, rotated(x), y) for _, x, y in initial[:6]]
        final += [(1.0, x, rotated(y)) for _, x, y in initial[6:10]]
        final += [(1.0, _mode(rng, mass=1.0), y) for _, _, y in initial[10:]]
        pots = (coulomb_potential(1.0, mu=0.5), coulomb_potential(2.0, mu=0.7))
        amplitude = s2_first_order(TwoParticleState(tuple(initial)), TwoParticleState(tuple(final)), pots)
        assert amplitude.value != 0.0
        assert len(counted) == 6 + 4

    def test_two_currents(self, rng, monkeypatch):
        # the phases exp(i p.x) of each particle come from its 400 lowered
        # momenta alone, so the phase array holds points x rows entries; a
        # pair path lowers the transfers of its 420 (particle 1: 380 singles
        # and 10 shared partners) or 400 matched pairs, or no rows at all
        lowered = []
        lower_index = states.lower_index
        monkeypatch.setattr(states, "lower_index", lambda p: lowered.append(np.shape(p)) or lower_index(p))
        terms = [(1.0, _mode(rng), _mode(rng)) for _ in range(self.N_TERMS - 10)]
        terms += [(1.0, _mode(rng), y) for _, _, y in terms[:10]]
        two_currents(TwoParticleState(tuple(terms)), rng.normal(size=(2, 4)))
        assert lowered == [(self.N_TERMS, 4)] * 2

    def test_two_currents_build_the_spinors_once(self, rng, monkeypatch):
        calls = []
        spinors = TermContainer.spinors
        monkeypatch.setattr(TermContainer, "spinors", lambda self: calls.append(len(self.coeff)) or spinors(self))
        terms = [(1.0, _mode(rng), _mode(rng)) for _ in range(self.N_TERMS)]
        two_currents(TwoParticleState(tuple(terms)), rng.normal(size=(2, 4)))
        assert calls == [self.N_TERMS]

    def test_s2_first_order_builds_spinors_only_for_nonzero_transforms(self, rng, monkeypatch):
        # a transition potential has no energy delta, so each of the ~20000
        # same-mass pairs joined through the 8 shared partners passes the
        # frequency delta; only the pair (0, 0), whose x transfer is the
        # source's, has a nonzero transform, and only its two rows take spinor blocks
        rows = []
        block = twobody._block
        monkeypatch.setattr(twobody, "_block", lambda p, *args: rows.append(len(p)) or block(p, *args))
        partners = [_mode(rng, mass=1.0) for _ in range(8)]
        initial = [(1.0, _mode(rng, mass=1.0), partners[k % 8]) for k in range(self.N_TERMS)]
        rotated = Mode(elastic_shell(initial[0][1].p, [0.9], n_azimuth=1)[0], 1, random_spin_coefficients(rng))
        final = [(1.0, rotated, partners[0])]
        final += [(1.0, _mode(rng, mass=1.0), y) for _, _, y in initial[1:]]
        source = potential_from_transition(initial[0][1], rotated, 0.7)
        state_i, state_f = TwoParticleState(tuple(initial)), TwoParticleState(tuple(final))
        amplitude = s2_first_order(state_i, state_f, (source, source))
        assert rows == [2]
        assert amplitude.value != inner_product(state_f, state_i)


class TestWidthContract:
    """One inner product and one free evolution serve both term widths; the
    one-particle bilinears refuse two-particle terms, and the two-particle
    currents, S_fi, label swap and exchange residual refuse one-particle
    terms."""

    @pytest.fixture
    def probe(self):
        rng = np.random.default_rng(0)
        m1, m2 = random_mode(rng), random_mode(rng)
        return m1, TwoParticleState(((1.0, m1, m2),))

    def test_two_body_names_are_the_shared_functions(self):
        assert two_inner_product is inner_product
        assert two_evolve is free_evolve

    def test_inner_product_multiplies_both_overlaps(self, probe):
        _, t = probe
        assert inner_product(t, t) == two_inner_product(t, t)

    def test_widths_are_orthogonal(self, probe):
        m1, t = probe
        single = single_mode_state(m1)
        for value in (inner_product(single, t), inner_product(t, single)):
            assert value == 0j and type(value) is complex
        with pytest.raises(BoxMismatch):
            inner_product(SpectralState(((1.0, m1),), 3.0), t)

    @pytest.mark.parametrize("call", [
        lambda s, x: bilinear_concatenated(s, np.eye(4), x),
        lambda s, x: list(concatenated_pairs(s)),
        concatenated_current,
        current_divergence_fd,
        vector_divergence_check,
        lambda s, x: axial_divergence_tree(s, 1.0, x),
    ], ids=["bilinear_concatenated", "concatenated_pairs", "concatenated_current",
            "current_divergence_fd", "vector_divergence_check", "axial_divergence_tree"])
    def test_one_particle_operations_refuse_width_two(self, probe, call):
        _, t = probe
        with pytest.raises(TypeError, match="width 2"):
            call(t, np.zeros((2, 4)))

    @pytest.mark.parametrize("call", [
        two_currents,
        lambda s, x: s2_first_order(s, s, (zero_potential(),) * 2),
        lambda s, x: permute_labels(s),
        lambda s, x: exchange_residual(s),
    ], ids=["two_currents", "s2_first_order", "permute_labels", "exchange_residual"])
    def test_two_particle_operations_refuse_width_one(self, probe, call):
        m1, _ = probe
        with pytest.raises(TypeError) as error:
            call(single_mode_state(m1), np.zeros((2, 4)))
        assert str(error.value) == "a two-particle state is required, not terms of width 1"

    def test_s2_first_order_refuses_either_width_one_state(self, probe):
        m1, t = probe
        pots = (zero_potential(),) * 2
        for state_i, state_f in ((t, single_mode_state(m1)), (single_mode_state(m1), t)):
            with pytest.raises(TypeError, match="width 1"):
                s2_first_order(state_i, state_f, pots)
