"""The array-backed term container against the per-Mode oracles.

The discrete symmetries, free evolution and the Moller nodes each run as one
batched pass over the container's arrays.  Their results must equal, bit for
bit, the one-Mode-at-a-time loops of brute_force.py; and none of them may
build a Mode until a caller reads the rows of `terms`.  The free influence kernels are
one pass over their momentum support, each bit for bit the loop's term.
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
    sampled_mode,
    sampled_momentum,
    sampled_spins,
    sampled_state,
    scan_merge,
    signed_zeros,
    symmetry_loop,
)
from paradirac import propagate, spinors, states, twobody
from paradirac.algebra import ELEMENTARY_CHARGE, TWO_PI, four_vector
from paradirac.errors import MasslessState, SuperluminalMomentum, UnresolvedDelta, ZeroEnergy
from paradirac.propagate import (
    elastic_shell,
    free_evolve,
    influence_conjugation_check,
    moller_first_order,
)
from paradirac.sampling import (
    _signed_modes,
    random_mode,
    random_spin_coefficients,
    random_state,
    random_timelike_momentum,
)
from paradirac.scattering import ExternalPotential, coulomb_ft, coulomb_potential
from paradirac.states import (
    Mode,
    SpectralState,
    Subspace,
    concatenated_current,
    inner_product,
)
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


# rows of two labels each, a repeat draw, an earlier row and a sign of zeros
LABEL_ROWS = st.lists(st.tuples(COEFFS, LABELS, LABELS, st.integers(0, 3), st.integers(0, 15), st.booleans()),
                      max_size=16)


def rows_with_repeats(raw, width):
    """(coeff, Mode, ...) terms of `width` modes from LABEL_ROWS draws: a row
    whose repeat draw is 0 (about a quarter of them) takes the labels of an
    earlier row, with the signs of its zeros drawn anew."""
    rows = []
    for coeff, x, y, repeat, earlier, negative in raw:
        labels = (x, y)[:width]
        if repeat == 0 and rows:
            labels = [(*label[:3], negative) for label in rows[earlier % len(rows)][1]]
        rows.append((coeff, labels))
    return tuple((coeff, *map(label_mode, labels)) for coeff, labels in rows)


class TestConstructionMatchesOracle:
    """Both constructors stack the Modes' rows and merge on the row bytes
    of (p + 0.0, a + 0.0, branch), the key of the one constructor, _fill."""

    @pytest.mark.parametrize("width", [1, 2])
    @given(raw=LABEL_ROWS)
    def test_merge_matches_scan_and_derive(self, width, raw):
        terms = rows_with_repeats(raw, width)
        state = SpectralState(terms) if width == 1 else TwoParticleState(terms, "fermionic", 3.0)
        assert_same_bits(state.terms, scan_merge(terms))
        # the unmerged label rows, stacked from each Mode's arrays, merged by _fill
        rows = [[*m.p, *m.a.view(float), m.branch, m.mass] for _, *row in terms for m in row]
        fields = {"exchange": state.exchange} if width == 2 else {}
        derived = type(state)._from_rows([coeff for coeff, *_ in terms], rows, state.box_edge, **fields)
        for name in ("coeff", "p", "branch", "a", "mass"):
            got, want = getattr(state, name), getattr(derived, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert (derived.box_edge, getattr(derived, "exchange", None)) == \
            (state.box_edge, getattr(state, "exchange", None))


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

    @pytest.mark.parametrize("name", sorted(SYMMETRIES))
    @given(raw=LABEL_ROWS, exchange=st.sampled_from(("none", "fermionic", "bosonic")))
    def test_width_two_keeps_exchange_tag(self, name, raw, exchange):
        state = TwoParticleState(rows_with_repeats(raw, 2), exchange, 3.0)
        image = getattr(states, name)(state)
        assert_same_bits(image.terms, symmetry_loop(state.terms, name))
        assert (type(image), image.exchange, image.box_edge) == (TwoParticleState, exchange, 3.0)


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
    """The kernel stack, the conjugation checks and the two-body kernel take
    one pass over the support; the oracle is the loop over it."""

    @given(seed=SEEDS, n=st.integers(0, 24), which=st.sampled_from((1, -1)), dtau=DTAUS)
    @example(seed=1, n=0, which=1, dtau=0.7)
    @example(seed=1, n=300, which=-1, dtau=-0.7)
    def test_stack_rows_and_sum(self, seed, n, which, dtau):
        momenta, dx = seeded_support(seed, n)
        stack = propagate._kernels(which, momenta, dx, dtau)
        assert stack.shape == (n, 4, 4)
        # each row as the loop's zero-started sum adds it, -0.0 folded, then scaled
        sgn = 1 if dtau > 0 else -1
        for row, p in zip(stack, momenta):
            term = np.zeros((4, 4), dtype=complex) + kernel_term(which, p, dx, dtau)
            assert same_bits(row, sgn * 1j / TWO_PI**4 * term)

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
        assert propagate._kernels(1, np.zeros((0, 4)), np.zeros(4), 0.5).shape == (0, 4, 4)
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
            propagate._kernels(1, momenta, dx, 0.5)
        with pytest.raises(error):
            influence_conjugation_check(dx, 0.5, momenta)


class TestArrayPathBuildsNoModes:
    """Like TestScalingGuard: a construction count, not a timing."""

    N = 400

    @pytest.fixture
    def built(self, monkeypatch):
        """One entry per Mode constructed while the test runs."""
        built = []
        init = Mode.__init__
        monkeypatch.setattr(Mode, "__init__", lambda *args, **kwargs: built.append(1) or init(*args, **kwargs))
        return built

    def test_maps_evolution_joins_currents_and_moller(self, rng, built, monkeypatch):
        state = random_state(rng, self.N)
        incident = random_mode(rng, branch=1, phi=1)
        momenta = elastic_shell(incident.p, np.linspace(0.1, 3.0, self.N // 8), n_azimuth=8)
        points = rng.normal(size=(3, 4))
        blocks = []
        for module in (states, spinors, propagate, twobody):
            block = module._block
            monkeypatch.setattr(module, "_block", lambda *args, block=block: blocks.append(1) or block(*args))
        built.clear()

        images = [getattr(states, name)(state) for name in sorted(SYMMETRIES)]
        assert blocks == []  # the maps act on labels alone: no spinor block is built
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

    def test_sampling_and_readers(self, rng, built):
        modes = [mode for _, mode in random_state(rng, self.N).terms]
        pair = TwoParticleState(tuple((1.0, x, y) for x, y in zip(modes, modes[1:] + modes[:1])), "none", 3.0)
        built.clear()

        one = random_state(rng, self.N)
        assert len(one.coeff) == self.N and built == []
        # the array readers of both widths build no Modes
        for state in (one, pair):
            for name in ("coeff", "p", "branch", "a", "mass"):
                assert len(getattr(state, name)) == self.N, name
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


SAMPLING_GRID = [(n, mass, p_scale) for n in (0, 1, 3, 17, 200)
                 for mass, p_scale in ((1.0, 1.0), (0.511, 3.0), (2.0, 1e-4))]


def generator_state(rng):
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"], state["uinteger"]


class TestSamplingMatchesOracle:
    """The samplers draw in the one-mode-at-a-time order and do the
    arithmetic on the stacked draws: the states and the generator state
    after the draws equal the scalar loops' bit for bit."""

    @pytest.mark.parametrize("subspace", [None, Subspace.S_PLUS, Subspace.S_MINUS])
    def test_random_state_grid(self, subspace):
        for seed in range(30):
            for n, mass, p_scale in SAMPLING_GRID:
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = random_state(got_rng, n, mass=mass, subspace=subspace, p_scale=p_scale)
                want = sampled_state(want_rng, n, mass, subspace, p_scale)
                for name in ("coeff", "p", "branch", "a", "mass"):
                    x, y = getattr(got, name), getattr(want, name)
                    assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
                assert got.box_edge == want.box_edge
                assert generator_state(got_rng) == generator_state(want_rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_modes_momenta_and_spins(self, seed):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _, mass, p_scale in SAMPLING_GRID:
            for branch in (None, 1, -1):
                for phi in (None, 1, -1):
                    got = random_mode(got_rng, mass=mass, branch=branch, phi=phi, p_scale=p_scale)
                    assert label_bits(got) == label_bits(sampled_mode(want_rng, mass, branch, phi, p_scale))
                    p = random_timelike_momentum(got_rng, mass=mass, phi=phi, p_scale=p_scale)
                    assert p.tobytes() == sampled_momentum(want_rng, mass, phi, p_scale).tobytes()
                    assert random_spin_coefficients(got_rng).tobytes() == sampled_spins(want_rng).tobytes()
        assert generator_state(got_rng) == generator_state(want_rng)

    @pytest.mark.parametrize("seed", range(5))
    def test_signed_modes_equal_random_mode_calls(self, seed):
        # the stacked draws of the verify suites, n modes of given signs in one block
        signs = np.random.default_rng([seed, 1])
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for mass in (1e-3, 0.511, 1.0, 7.0):
            for p_scale in (0.3, 1.0, 3.0):
                for n in (0, 1, 4, 12):
                    branch, phi = signs.choice([1, -1], size=(2, n)).tolist()
                    got = _signed_modes(got_rng, branch, phi, mass, p_scale)
                    want = [random_mode(want_rng, mass=mass, branch=b, phi=f, p_scale=p_scale)
                            for b, f in zip(branch, phi)]
                    assert [mode._row for mode in got] == [mode._row for mode in want]
                    assert generator_state(got_rng) == generator_state(want_rng)


class TestCarriedMass:
    """A Mode computes its mass and energy sign from its row, the maps keep
    each container's own mass, and the spinor blocks take it with its sign:
    mass_of and energy_sign call counts, not a timing."""

    N = 400

    @staticmethod
    def count_calls(monkeypatch, name):
        """One entry per call of algebra's `name` from the state, spinor,
        propagation and two-body layers while the test runs."""
        calls = []
        for module in (states, spinors, propagate, twobody):
            if hasattr(module, name):
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, lambda p, fn=fn: calls.append(1) or fn(p))
        return calls

    @pytest.fixture
    def mass_calls(self, monkeypatch):
        return self.count_calls(monkeypatch, "mass_of")

    @pytest.fixture
    def sign_calls(self, monkeypatch):
        return self.count_calls(monkeypatch, "energy_sign")

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

    def test_modes_maps_evolution_and_s2_call_none(self, rng, mass_calls, sign_calls):
        state = random_state(rng, self.N)
        state_i, state_f = self.forward_pair(rng)
        pots = (coulomb_potential(1.0), coulomb_potential(2.0))
        mass_calls.clear()
        sign_calls.clear()

        Mode(state.p[0, 0], 1, state.a[0, 0]).amplitude_spinor()
        state.spinors()
        for name in sorted(SYMMETRIES):
            getattr(states, name)(state)
        free_evolve(state, 0.0, 0.7, 1)
        amplitude = s2_first_order(state_i, state_f, pots)
        assert mass_calls == [] and sign_calls == []
        assert amplitude.value != 0.0

    def test_moller_calls_it_once(self, rng, mass_calls, sign_calls):
        incident = random_mode(rng, branch=1, phi=1)
        momenta = elastic_shell(incident.p, np.linspace(0.1, 3.0, self.N // 8), n_azimuth=8)
        mass_calls.clear()
        sign_calls.clear()
        moller = moller_first_order(incident, coulomb_potential(1.0), momenta)
        assert len(moller.coeff) == self.N + 1 and len(mass_calls) == len(sign_calls) == 1


class TestStackedConstruction:
    """A Mode keeps its row of floats, not its key, and a container keys its
    merge with one _row_bytes pass over the stacked rows: a call count, not
    a timing."""

    N = 400

    def test_mode_holds_no_key(self, rng):
        # no key and no field until one is read: only the row
        assert set(vars(random_mode(rng))) == {"_row"}

    @pytest.mark.parametrize("width", [1, 2])
    def test_one_key_pass_per_construction(self, rng, monkeypatch, width):
        distinct = 3 * self.N // 4
        modes = [random_mode(rng) for _ in range(distinct)]
        rows = [tuple(modes[(k + c) % distinct] for c in range(width)) for k in range(distinct)]
        # the last quarter of the rows repeats the first
        terms = tuple((1.0, *row) for row in rows + rows[:self.N - distinct])
        calls = []
        row_bytes = states._row_bytes
        monkeypatch.setattr(states, "_row_bytes", lambda rows: calls.append(len(rows)) or row_bytes(rows))
        state = SpectralState(terms) if width == 1 else TwoParticleState(terms)
        assert calls == [self.N]
        assert len(state.coeff) == distinct and state.coeff[0] == 2.0


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
