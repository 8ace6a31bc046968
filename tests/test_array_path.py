"""The array-backed term container against the per-Mode oracles.

The discrete symmetries, free evolution and the Moller nodes each run as one
batched pass over the container's arrays.  Their results must equal, bit for
bit, the one-Mode-at-a-time loops of brute_force.py; and none of them may
build a Mode until a caller reads the rows of `terms`.  The free influence kernel is one
pass over its momentum support, bit for bit the loop over the support.
"""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute_force import (
    COEFFS,
    LABEL_MOMENTA,
    LABELS,
    SYMMETRIES,
    assert_same_bits,
    build_terms,
    evolve_loop,
    kernel_loop,
    kernel_term,
    label_bits,
    label_mode,
    moller_loop,
    scan_merge,
    signed_zeros,
    symmetry_loop,
)
from paradirac import propagate, spinors, states, twobody
from paradirac.algebra import ELEMENTARY_CHARGE, four_vector
from paradirac.errors import MasslessState, SuperluminalMomentum, UnresolvedDelta, ZeroEnergy
from paradirac.propagate import (
    elastic_shell,
    free_evolve,
    influence_conjugation_check,
    kernel_matrix,
    moller_first_order,
)
from paradirac.sampling import (
    random_mode,
    random_spin_coefficients,
    random_state,
    random_timelike_momentum,
)
from paradirac.scattering import ExternalPotential, coulomb_ft, coulomb_potential
from paradirac.states import Mode, SpectralState, concatenated_current, inner_product
from paradirac.twobody import (
    TwoParticleState,
    potential_from_transition,
    s2_first_order,
    two_inner_product,
    two_kernel_matrix,
)

SEEDS = st.integers(0, 2**32 - 1)
LABEL_STATES = st.lists(st.tuples(COEFFS, LABELS), max_size=12)
EVOLUTION = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.sampled_from((1, -1))).filter(
    lambda evolution: evolution[0] != evolution[1])


def seeded_state(seed, n):
    """n modes of random momenta, masses, branches and energy signs."""
    return random_state(np.random.default_rng(seed), n)


class TestSymmetriesMatchOracle:
    @pytest.mark.parametrize("name", sorted(SYMMETRIES))
    @given(raw=LABEL_STATES)
    def test_labels_with_signed_zeros(self, name, raw):
        state = SpectralState(build_terms(raw))
        image = getattr(states, name)(state)
        want = symmetry_loop(state.terms, name)
        assert_same_bits(image.terms, want)
        # images merge with equal labels built elsewhere, -0.0 folded
        assert_same_bits(SpectralState(tuple(image.terms) + tuple(want)).terms,
                         scan_merge(tuple(image.terms) + tuple(want)))

    @pytest.mark.parametrize("name", sorted(SYMMETRIES))
    @given(seed=SEEDS, n=st.integers(0, 16))
    @example(seed=1, n=300)  # past any small-array path of numpy's loops
    def test_random_momenta(self, name, seed, n):
        state = seeded_state(seed, n)
        image = getattr(states, name)(state)
        assert_same_bits(image.terms, symmetry_loop(state.terms, name))
        # applied twice, the map meets the rows of its own array output
        twice = getattr(states, name)(image)
        assert_same_bits(twice.terms, symmetry_loop(symmetry_loop(state.terms, name), name))


class TestFreeEvolutionMatchesOracle:
    @given(raw=LABEL_STATES, evolution=EVOLUTION)
    def test_width_one_labels(self, raw, evolution):
        state = SpectralState(build_terms(raw))
        assert_same_bits(free_evolve(state, *evolution).terms, evolve_loop(state.terms, *evolution))

    @given(seed=SEEDS, n=st.integers(0, 16), evolution=EVOLUTION)
    @example(seed=1, n=300, evolution=(0.0, 0.7, 1))
    def test_width_one_random(self, seed, n, evolution):
        state = states.parity(seeded_state(seed, n))
        assert_same_bits(free_evolve(state, *evolution).terms, evolve_loop(state.terms, *evolution))

    @given(raw=st.lists(st.tuples(COEFFS, LABELS, LABELS), max_size=10), evolution=EVOLUTION)
    def test_width_two(self, raw, evolution):
        state = TwoParticleState(tuple((c, label_mode(x), label_mode(y)) for c, x, y in raw))
        evolved = free_evolve(state, *evolution)
        assert_same_bits(evolved.terms, evolve_loop(state.terms, *evolution))
        # surviving rows keep the bits of their input labels
        inputs = {label_bits(m) for _, *modes in state.terms for m in modes}
        assert all(label_bits(m) in inputs for _, *modes in evolved.terms for m in modes)


class TestMollerMatchesOracle:
    @given(seed=SEEDS, n=st.integers(1, 24), static=st.booleans())
    @settings(max_examples=60)
    def test_random_shell(self, seed, n, static):
        rng = np.random.default_rng(seed)
        incident = random_mode(rng, branch=int(rng.choice((1, -1))), phi=int(rng.choice((1, -1))))
        kappas = rng.uniform(0.05, 3.1, size=n)
        momenta = [*elastic_shell(incident.p, kappas, n_azimuth=1)]
        # a boosted shell momentum on either energy branch, and one off shell
        boost = rng.normal(size=3)
        for phi in (1.0, -1.0):
            momenta.append(four_vector(phi * np.sqrt(incident.mass**2 + boost @ boost), *boost))
        momenta.append(four_vector(np.sqrt(4.0 * incident.mass**2 + 1.0), 1.0, 0.0, 0.0))
        potential = ExternalPotential(fourier=lambda dp: coulomb_ft(dp, 2.0, mu=0.3), static=static)
        try:
            want = moller_loop(incident, potential, momenta, ELEMENTARY_CHARGE)
        except UnresolvedDelta:
            with pytest.raises(UnresolvedDelta):
                moller_first_order(incident, potential, momenta)
            return
        got = moller_first_order(incident, potential, momenta)
        assert_same_bits(got.terms, want)
        if want:
            assert label_bits(got.terms[0][1]) == label_bits(incident)

    def test_transition_potential_nodes_per_row(self, rng):
        m_in = random_mode(rng, branch=1, phi=1)
        m_out = Mode(elastic_shell(m_in.p, [1.0], n_azimuth=1)[0], 1, random_spin_coefficients(rng))
        pot = potential_from_transition(m_in, m_out, 0.7)
        k0 = m_in.p - m_out.p
        rows = np.array([k0, -k0, k0 + four_vector(0.0, 0.5, 0.0, 0.0)])
        batch = pot.fourier(rows)
        for row, want in zip(batch, rows):
            assert np.array_equal(row, pot.fourier(want))
        assert np.array_equal(batch[2], np.zeros(4))
        momenta = elastic_shell(m_in.p, [0.5, 1.0, 2.0], n_azimuth=3)
        assert_same_bits(moller_first_order(m_in, pot, momenta).terms,
                         moller_loop(m_in, pot, momenta, ELEMENTARY_CHARGE))


DTAUS = st.floats(-5.0, 5.0).filter(lambda dtau: dtau != 0.0)


def seeded_support(seed, n):
    """n momenta of random masses, alternating energy signs, and a random dx;
    label momenta with signed zeros ride along where n allows."""
    rng = np.random.default_rng(seed)
    momenta = [random_timelike_momentum(rng, mass=rng.uniform(0.5, 2.0), phi=(-1) ** k,
                                        p_scale=rng.uniform(0.1, 3.0)) for k in range(n)]
    for k, p in enumerate(LABEL_MOMENTA[:n // 3]):
        momenta[3 * k] = signed_zeros(p, k % 2 == 0)
    return np.array(momenta).reshape(-1, 4), rng.normal(size=4)


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestKernelPassMatchesOracle:
    """kernel_matrix, the conjugation checks and the two-body kernel take one
    pass over the support; the oracle is the loop over it."""

    @given(seed=SEEDS, n=st.integers(0, 24), which=st.sampled_from((1, -1)), dtau=DTAUS)
    @example(seed=1, n=0, which=1, dtau=0.7)
    @example(seed=1, n=300, which=-1, dtau=-0.7)
    def test_stack_rows_and_sum(self, seed, n, which, dtau):
        momenta, dx = seeded_support(seed, n)
        sgn, terms = propagate._support_terms(which, momenta, dx, dtau)
        assert sgn == (1 if dtau > 0 else -1)
        assert terms.shape == (n, 4, 4)
        # each row as the loop's zero-started sum adds it, -0.0 folded
        for row, p in zip(terms, momenta):
            assert same_bits(row, np.zeros((4, 4), dtype=complex) + kernel_term(which, p, dx, dtau))
        assert same_bits(kernel_matrix(which, list(momenta), dx, dtau, 1.7),
                         kernel_loop(which, momenta, dx, dtau, 1.7))

    @given(seed=SEEDS, n=st.integers(0, 8), which=st.sampled_from((1, -1)), dtau=DTAUS)
    def test_two_kernel_is_kron_per_pair(self, seed, n, which, dtau):
        momenta, dx = seeded_support(seed, 2 * n)
        dy = np.random.default_rng(seed).normal(size=4)
        pairs = momenta.reshape(n, 2, 4)
        stack = two_kernel_matrix(which, pairs, (dx, dy), dtau)
        assert stack.shape == (n, 16, 16)
        for kernel, (px, py) in zip(stack, pairs):
            want = np.kron(kernel_loop(which, [px], dx, dtau), kernel_loop(which, [py], dy, dtau))
            assert same_bits(kernel, want)
            assert same_bits(two_kernel_matrix(which, (px, py), (dx, dy), dtau), want)

    def test_empty_supports(self):
        assert same_bits(kernel_matrix(1, [], np.zeros(4), 0.5), np.zeros((4, 4), dtype=complex))
        assert influence_conjugation_check(np.zeros(4), 0.5, []) == 0.0

    @pytest.mark.parametrize("bad, error", [
        (four_vector(1.0, 2.0, 0.0, 0.0), SuperluminalMomentum),
        (four_vector(0.0, 0.5, 0.0, 0.0), ZeroEnergy),
        (four_vector(1.0, 1.0, 0.0, 0.0), MasslessState),
    ])
    def test_one_bad_momentum(self, rng, bad, error):
        momenta = [random_timelike_momentum(rng), bad, random_timelike_momentum(rng)]
        dx = rng.normal(size=4)
        with pytest.raises(error):
            kernel_loop(1, momenta, dx, 0.5)
        with pytest.raises(error):
            kernel_matrix(1, momenta, dx, 0.5)
        with pytest.raises(error):
            influence_conjugation_check(dx, 0.5, momenta)


class TestArrayPathBuildsNoModes:
    """Like TestScalingGuard: a construction count, not a timing."""

    N = 400

    @pytest.fixture
    def built(self, monkeypatch):
        """One entry per Mode constructed while the test runs."""
        built = []
        post_init = Mode.__post_init__
        monkeypatch.setattr(Mode, "__post_init__", lambda mode: built.append(1) or post_init(mode))
        return built

    def test_maps_evolution_joins_currents_and_moller(self, rng, built):
        state = random_state(rng, self.N)
        incident = random_mode(rng, branch=1, phi=1)
        momenta = elastic_shell(incident.p, np.linspace(0.1, 3.0, self.N // 8), n_azimuth=8)
        points = rng.normal(size=(3, 4))
        built.clear()

        images = [getattr(states, name)(state) for name in sorted(SYMMETRIES)]
        evolved = free_evolve(images[0], 0.0, 0.7, 1)
        inner_product(images[0], images[0])
        inner_product(images[1], evolved)
        concatenated_current(images[2], points)
        moller_first_order(incident, coulomb_potential(1.0), momenta)
        assert built == []

    def test_lengths_read_the_arrays(self, rng, built):
        state = random_state(rng, self.N)
        incident = random_mode(rng, branch=1, phi=1)
        momenta = elastic_shell(incident.p, np.linspace(0.1, 3.0, self.N // 8), n_azimuth=8)
        built.clear()

        image = states.parity(state)
        evolved = free_evolve(state, 0.0, -0.4, -1)
        moller = moller_first_order(incident, coulomb_potential(1.0), momenta)
        assert len(image.terms) == self.N and not image.is_empty
        assert 0 < len(evolved.terms) < self.N and not evolved.is_empty
        assert len(moller.terms) == self.N + 1 and not moller.is_empty
        assert built == []

    def test_rows_are_built_per_read(self, rng, built):
        image = states.parity(random_state(rng, self.N))
        built.clear()
        view = image.terms
        assert view[-1][0] == image.coeff[-1] and len(built) == 1
        assert len(view[2:5]) == 3 and len(built) == 4
        # each read builds its Modes anew; nothing is cached
        assert label_bits(view[0][1]) == label_bits(view[0][1]) and len(built) == 6
        assert len(list(view)) == self.N and len(built) == self.N + 6


class TestCarriedMass:
    """A Mode computes its mass from its row, and the maps pass each
    container's own mass to the spinor blocks: a mass_of call count, not a
    timing."""

    N = 400

    @pytest.fixture
    def mass_calls(self, monkeypatch):
        """One entry per mass_of call from the state, spinor, propagation
        and two-body layers while the test runs."""
        calls = []
        for module in (states, spinors, propagate, twobody):
            if hasattr(module, "mass_of"):
                fn = module.mass_of
                monkeypatch.setattr(module, "mass_of", lambda p, fn=fn: calls.append(1) or fn(p))
        return calls

    def forward_pair(self, rng):
        """Initial and final two-body states of N terms in S+ whose x momenta
        share p0 and |p|, with a pool of y modes so partner keys repeat."""
        incident = random_mode(rng, branch=1, phi=1)
        momenta = elastic_shell(incident.p, np.linspace(0.1, 3.0, self.N // 8), n_azimuth=8)
        ys = [random_mode(rng, branch=1, phi=1) for _ in range(self.N // 4)]
        xs = [Mode(p, 1, random_spin_coefficients(rng)) for p in momenta]
        state_i = TwoParticleState(tuple((1.0, x, ys[k % len(ys)]) for k, x in enumerate(xs)))
        state_f = TwoParticleState(tuple((0.5j, xs[k - 1], ys[k % len(ys)]) for k in range(len(xs))))
        return state_i, state_f

    def test_modes_maps_evolution_and_s2_call_none(self, rng, mass_calls):
        state = random_state(rng, self.N)
        state_i, state_f = self.forward_pair(rng)
        pots = (coulomb_potential(1.0), coulomb_potential(2.0))
        mass_calls.clear()

        Mode(state.p[0, 0], 1, state.a[0, 0])
        state.spinors()
        for name in sorted(SYMMETRIES):
            getattr(states, name)(state)
        free_evolve(state, 0.0, 0.7, 1)
        amplitude = s2_first_order(state_i, state_f, pots)
        assert mass_calls == []
        assert amplitude.value != 0.0

    def test_moller_calls_it_once(self, rng, mass_calls):
        incident = random_mode(rng, branch=1, phi=1)
        momenta = elastic_shell(incident.p, np.linspace(0.1, 3.0, self.N // 8), n_azimuth=8)
        mass_calls.clear()
        moller = moller_first_order(incident, coulomb_potential(1.0), momenta)
        assert len(moller.coeff) == self.N + 1 and len(mass_calls) == 1


class TestDisjointKeys:
    """Joins whose key sets share nothing: an empty (2, 0) index, and zero
    inner products and free overlap."""

    def test_overlap_join_is_empty(self):
        for keys_a, keys_b in (([1, 2, 2], [3, 4]), ([], [1]), ([1], []), ([], [])):
            pairs = states.overlap_join(keys_a, keys_b)
            assert pairs.shape == (2, 0) and pairs.dtype == np.intp

    def test_two_body_products_and_amplitude(self, rng):
        modes = [random_mode(rng, branch=1, phi=1) for _ in range(4)]
        state_a = TwoParticleState(((1.0, modes[0], modes[1]), (-1.0, modes[1], modes[0])))
        state_b = TwoParticleState(((0.5, modes[2], modes[3]),))
        assert two_inner_product(state_a, state_b) == 0j
        pots = (coulomb_potential(1.0), coulomb_potential(1.0))
        amplitude = s2_first_order(state_a, state_b, pots)
        # no shared key: no Born term, and the free overlap is zero
        assert amplitude.value == two_inner_product(state_b, state_a) == 0j
        assert type(two_inner_product(state_a, state_b)) is complex
        assert inner_product(SpectralState(((1.0, modes[0]),)), SpectralState(((1.0, modes[1]),))) == 0j


class TestContainersAreReadOnly:
    """The terms view and the cached join keys rest on labels that never change."""

    def test_attributes_cannot_be_reassigned(self, rng):
        state = random_state(rng, 3)
        pair = TwoParticleState(((1.0, *state.terms[0][1:], state.terms[1][1]),), "none")
        for container, field in ((state, "box_edge"), (state, "coeff"), (state, "p"),
                                 (pair, "exchange"), (pair, "a")):
            with pytest.raises(FrozenInstanceError):
                setattr(container, field, getattr(container, field))
            with pytest.raises(FrozenInstanceError):
                delattr(container, field)
        with pytest.raises(ValueError):
            state.coeff[0] = 0.0
        with pytest.raises(TypeError):
            state.terms[0] = state.terms[1]
        assert state.box_edge == states.TWO_PI and pair.exchange == "none"
