"""The array-backed term container against the per-Mode oracles.

The discrete symmetries, free evolution and the Moller nodes each run as one
batched pass over the container's arrays.  Their results must equal, bit for
bit, the one-Mode-at-a-time loops of brute_force.py; and none of them may
build a Mode until a caller reads `terms`.
"""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute_force import (
    COEFFS,
    LABELS,
    SYMMETRIES,
    assert_same_bits,
    build_terms,
    evolve_loop,
    label_mode,
    moller_loop,
    scan_merge,
    symmetry_loop,
)
from paradirac import states
from paradirac.algebra import ELEMENTARY_CHARGE, four_vector
from paradirac.errors import UnresolvedDelta
from paradirac.propagate import elastic_shell, free_evolve, moller_first_order
from paradirac.sampling import random_mode, random_spin_coefficients, random_state
from paradirac.scattering import ExternalPotential, coulomb_ft, coulomb_potential
from paradirac.states import Mode, SpectralState, concatenated_current, inner_product
from paradirac.twobody import TwoParticleState, potential_from_transition

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
        assert_same_bits(SpectralState(image.terms + tuple(want)).terms,
                         scan_merge(image.terms + tuple(want)))

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
        # surviving rows keep their Mode objects
        inputs = {id(m) for _, *modes in state.terms for m in modes}
        assert all(id(m) in inputs for _, *modes in evolved.terms for m in modes)


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
            assert got.terms[0][1] is incident

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


class TestArrayPathBuildsNoModes:
    """Like TestScalingGuard: a construction count, not a timing."""

    N = 400

    def test_maps_evolution_joins_currents_and_moller(self, rng, monkeypatch):
        state = random_state(rng, self.N)
        incident = random_mode(rng, branch=1, phi=1)
        momenta = elastic_shell(incident.p, np.linspace(0.1, 3.0, self.N // 8), n_azimuth=8)
        points = rng.normal(size=(3, 4))
        built = []
        post_init = Mode.__post_init__
        monkeypatch.setattr(Mode, "__post_init__", lambda mode: built.append(1) or post_init(mode))

        images = [getattr(states, name)(state) for name in sorted(SYMMETRIES)]
        evolved = free_evolve(images[0], 0.0, 0.7, 1)
        inner_product(images[0], images[0])
        inner_product(images[1], evolved)
        concatenated_current(images[2], points)
        moller = moller_first_order(incident, coulomb_potential(1.0), momenta)
        assert built == []

        assert len(moller.terms) == self.N + 1
        assert len(built) == self.N  # the incident term keeps its Mode
        # rows built from Modes keep them through free evolution
        built.clear()
        assert len(free_evolve(state, 0.0, -0.4, -1).terms) > 0
        assert built == []


class TestContainersAreReadOnly:
    """The cached terms view and join keys rest on labels that never change."""

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
        assert state.box_edge == states.TWO_PI and pair.exchange == "none"
