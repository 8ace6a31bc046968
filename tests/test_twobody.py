"""Two-particle states: exchange, evolution, S_fi, the Born-step operator."""

import json

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
    label_mode,
    marginal_pair_loop,
    overlap,
    pair_loop_current,
    scan_merge,
    signed_zeros,
)
from paradirac import twobody
from paradirac.algebra import ELEMENTARY_CHARGE, TWO_PI, four_vector
from paradirac.errors import (
    BoxMismatch,
    GridIncompatible,
    MasslessState,
    OnLightCone,
    OnMassShell,
    SubspaceViolation,
    SuperluminalMomentum,
)
from paradirac.propagate import elastic_shell, free_evolve
from paradirac.sampling import random_mode, random_spin_coefficients
from paradirac.scattering import coulomb_potential, s1_amplitude, zero_potential
from paradirac.states import Mode, parity, single_mode_state, state_from_json
from paradirac.twobody import (
    TwoParticleState,
    _born_sandwich,
    antisymmetrize,
    bs_born_step,
    bs_power_iteration,
    exchange_residual,
    mutual_scattering_amplitude,
    permute_labels,
    potential_from_transition,
    s2_first_order,
    symmetrize,
    two_conjugation_check,
    two_current_divergence_fd,
    two_currents,
    two_evolve,
    two_inner_product,
    two_state_from_json,
    two_state_to_json,
)


def _mode(rng, **kw):
    kw.setdefault("branch", 1)
    kw.setdefault("phi", 1)
    return random_mode(rng, **kw)


class TestExchange:
    def test_pauli_exclusion_is_empty_state(self, rng):
        mode = _mode(rng)
        assert antisymmetrize(mode, mode).is_empty

    def test_fermionic_antisymmetry_pointwise(self, rng):
        state = antisymmetrize(_mode(rng), _mode(rng))
        assert exchange_residual(state) <= 1e-15

    def test_bosonic_symmetry_pointwise(self, rng):
        state = symmetrize(_mode(rng), _mode(rng))
        assert exchange_residual(state) <= 1e-15

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
        assert two_evolve(mixed, 0.0, 0.5, 1).is_empty

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

    def test_power_iteration_matches_ratio(self, rng):
        basis = self._basis(rng, 4)
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        lam = 0.3 - 0.2j
        v = lam * np.outer(g, g.conj())
        ratio = lam * np.vdot(g, g) * (-2.0 / (2.0 - 1.1))
        eig, vec = bs_power_iteration(basis, v, 1.1)
        assert abs(eig - ratio) <= 1e-12 * abs(ratio)
        assert np.linalg.norm(vec) > 0.0


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
            terms=state.terms + ((0.3, m3, m1),), exchange="none"
        )
        points = rng.normal(size=(3, 4))
        for particle in (1, 2):
            div = two_current_divergence_fd(state, points, particle=particle, step=2e-3)
            assert np.abs(div).max() <= 1e-9


class TestSerialization:
    def test_roundtrip(self, rng):
        state = antisymmetrize(_mode(rng), _mode(rng))
        text = two_state_to_json(state)
        clone = two_state_from_json(text)
        assert clone.exchange == state.exchange
        assert clone.box_edge == state.box_edge
        assert len(clone.terms) == len(state.terms)
        x, y, tau = rng.normal(size=4), rng.normal(size=4), 0.4
        assert np.abs(clone.value(x, y, tau) - state.value(x, y, tau)).max() <= 1e-13

    def test_wire_format_is_json_object(self, rng):
        state = symmetrize(_mode(rng), _mode(rng))
        record = json.loads(two_state_to_json(state))
        assert record["exchange"] == "bosonic"
        assert len(record["pairs"]) == 2

    def test_wire_text(self):
        # recorded before the mode-record codec was shared with states
        state = TwoParticleState(((0.25 - 2.0j, label_mode((0, 1, 1, True)),
                                   label_mode((2, -1, 2, False))),), "fermionic", 3.0)
        assert two_state_to_json(state) == (
            '{"exchange": "fermionic", "L": 3.0, "pairs": [{"c": [0.25, -2.0], '
            '"x": {"p": [1.4142135623730951, 1.0, -0.0, -0.0], "branch": 1, '
            '"a": [[-0.0, -0.0], [-0.0, 1.0]]}, '
            '"y": {"p": [1.0, 0.0, 0.0, 0.0], "branch": -1, "a": [[0.6, 0.0], [0.0, 0.8]]}}]}')

    @pytest.mark.parametrize("change, error", [
        ({"p": None}, ValueError),
        ({"branch": None}, TypeError),
        ({"a": None}, TypeError),
        ({"branch": 0}, ValueError),
        ({"p": [1.0, 2.0, 0.0, 0.0]}, SuperluminalMomentum),
        ({"p": [1.0, 1.0, 0.0, 0.0]}, MasslessState),
        ({"a": [[1.0, 2.0, 3.0]]}, ValueError),
    ])
    def test_malformed_mode_records(self, change, error):
        # both readers share one record decoder and raise what each did alone
        record = {"p": [np.sqrt(2.0), 1.0, 0.0, 0.0], "branch": 1, "a": [[0.3, -0.6], [0.8, 0.4]]}
        record = {**record, **change}
        one = json.dumps([{**record, "L": 2.0}])
        two = json.dumps({"exchange": "none", "L": 2.0,
                          "pairs": [{"c": [1.0, 0.0], "x": record, "y": record}]})
        with pytest.raises(error):
            state_from_json(one)
        with pytest.raises(error):
            two_state_from_json(two)


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
                value += weight * (1j * e1 / box3) * _born_sandwich(ix, fx, pots[0]) * ov_y
            ov_x = overlap(fx, ix)
            if ov_x != 0.0:
                value += weight * ov_x * (1j * e2 / box3) * _born_sandwich(iy, fy, pots[1])
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
        assert state.terms[0][0] == 0.75 and state.terms[0][1] is image
        assert state.terms[1][1] is other
        single = TwoParticleState(((1.0, other, image),))
        assert two_inner_product(single, state) == np.vdot(other.a, other.a) * np.vdot(image.a, image.a)

    def test_opposite_coefficients_drop_out(self, rng):
        mx, my = _mode(rng), _mode(rng)
        flipped = Mode(signed_zeros(mx.p, True), mx.branch, signed_zeros(mx.a, True))
        state = TwoParticleState(((0.5, mx, my), (1.0, my, mx), (-0.5, flipped, my)))
        assert len(state.terms) == 1 and state.terms[0][1] is my

    @given(TWO_TERMS)
    def test_merge_matches_linear_scan(self, raw):
        terms = two_terms(raw)
        assert_same_terms(TwoParticleState(terms).terms, scan_merge(terms))

    @given(TWO_TERMS, TWO_TERMS)
    def test_two_inner_product_matches_all_pairs(self, raw_a, raw_b):
        sa, sb = TwoParticleState(two_terms(raw_a)), TwoParticleState(two_terms(raw_b))
        assert two_inner_product(sa, sb) == all_pairs_two_inner(sa.terms, sb.terms)

    @given(FORWARD_TERMS, FORWARD_TERMS)
    # the final term meets incident terms 1 and 2 through x and term 2 also
    # through y, so the visiting order shows in the rounding of the sum
    @example(raw_i=[(2.0, (0, 1, 0, False), (0, 1, 0, False)),
                    (1.0, (1, 1, 0, False), (0, 1, 0, False)),
                    (1.0, (1, 1, 0, False), (2, 1, 1, False))],
             raw_f=[(1.0, (1, 1, 0, False), (2, 1, 2, False))])
    def test_s2_matches_all_pairs(self, raw_i, raw_f):
        state_i = TwoParticleState(two_terms(raw_i, SHELL_MOMENTA))
        state_f = TwoParticleState(two_terms(raw_f, SHELL_MOMENTA))
        pots = (coulomb_potential(1.0, mu=0.5), coulomb_potential(2.0, mu=0.7))
        assert s2_first_order(state_i, state_f, pots).value == all_pairs_s2(state_i, state_f, pots)

    @given(st.lists(st.tuples(COEFFS, LABELS, LABELS), max_size=8))
    def test_two_currents_match_pair_loop(self, raw):
        state = TwoParticleState(two_terms(raw))
        points = np.random.default_rng(len(raw)).normal(size=(5, 4))
        for particle, field in zip((1, 2), two_currents(state, points)):
            want = pair_loop_current(marginal_pair_loop(state, particle), points)
            assert np.abs(field.values - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


class TestScalingGuard:
    """mode_overlap runs only for label-matched pairs of 400-term states."""

    N_TERMS = 400

    @pytest.fixture
    def overlap_calls(self, monkeypatch):
        calls = []
        overlap_fn = twobody.mode_overlap
        monkeypatch.setattr(twobody, "mode_overlap", lambda ma, mb: calls.append(1) or overlap_fn(ma, mb))
        return calls

    @staticmethod
    def relabel(rng, mode):
        """New spin coefficients on the (p, branch) of mode."""
        return Mode(mode.p, mode.branch, random_spin_coefficients(rng))

    def test_two_inner_product(self, rng, overlap_calls):
        terms_a = [(1.0, _mode(rng), _mode(rng)) for _ in range(self.N_TERMS)]
        shared = [(1.0, self.relabel(rng, x), self.relabel(rng, y)) for _, x, y in terms_a[:10]]
        terms_b = [(1.0, _mode(rng), _mode(rng)) for _ in range(self.N_TERMS - 10)] + shared
        two_inner_product(TwoParticleState(tuple(terms_a)), TwoParticleState(tuple(terms_b)))
        assert len(overlap_calls) == 2 * 10

    def test_s2_first_order(self, rng, overlap_calls):
        initial = [(1.0, _mode(rng), _mode(rng)) for _ in range(self.N_TERMS)]
        final = [(1.0, _mode(rng), self.relabel(rng, y)) for _, _, y in initial[:10]]
        final += [(1.0, self.relabel(rng, x), _mode(rng)) for _, x, _ in initial[10:15]]
        final += [(1.0, _mode(rng), _mode(rng)) for _ in range(self.N_TERMS - 15)]
        pots = (coulomb_potential(1.0), coulomb_potential(2.0))
        s2_first_order(TwoParticleState(tuple(initial)), TwoParticleState(tuple(final)), pots)
        # each of the 15 joined term pairs takes an x and a y overlap
        assert len(overlap_calls) == 2 * 15

    def test_two_currents(self, rng, overlap_calls):
        terms = [(1.0, _mode(rng), _mode(rng)) for _ in range(self.N_TERMS - 10)]
        terms += [(1.0, _mode(rng), y) for _, _, y in terms[:10]]
        two_currents(TwoParticleState(tuple(terms)), rng.normal(size=(2, 4)))
        # partners of particle 1 are the y modes: 380 singles and 10 pairs
        assert len(overlap_calls) == (380 + 10 * 4) + self.N_TERMS
