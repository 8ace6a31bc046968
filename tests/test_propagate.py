"""Free influence propagation: filtering, semigroup, kernels, first Born."""

import itertools

import numpy as np
import pytest

from paradirac import propagate
from paradirac.algebra import ELEMENTARY_CHARGE, TWO_PI, four_vector, minkowski_dot
from paradirac.errors import DegenerateInterval, NonfiniteResult, UnresolvedDelta
from paradirac.propagate import (
    InfluenceKernel,
    elastic_shell,
    free_evolve,
    influence_conjugation_check,
    kernel_matrix,
    moller_first_order,
    semigroup_compose,
)
from paradirac.sampling import (
    random_mode,
    random_spin_coefficients,
    random_state,
    random_timelike_momentum,
)
from paradirac.scattering import coulomb_potential, s1_amplitude
from paradirac.spinors import u_block, v_block
from paradirac.states import Mode, Subspace, inner_product, single_mode_state
from paradirac.twobody import two_conjugation_check
from paradirac.verify import Check


class TestFiltering:
    @pytest.mark.parametrize(
        "which,direction,branch,phi", list(itertools.product((1, -1), repeat=4))
    )
    def test_truth_table(self, rng, which, direction, branch, phi):
        dtau = 0.9 * direction
        coeff = 0.7 + 0.4j
        mode = random_mode(rng, branch=branch, phi=phi)
        evolved = free_evolve(single_mode_state(mode, coeff=coeff), 0.0, dtau, which)
        if branch * phi == which * direction:
            assert len(evolved.terms) == 1
            expected = coeff * direction * np.exp(1j * mode.frequency * dtau)
            assert abs(evolved.terms[0][0] - expected) == 0.0
        else:
            assert evolved.is_empty

    def test_zero_interval_raises(self, rng):
        state = random_state(rng, 2)
        with pytest.raises(DegenerateInterval):
            free_evolve(state, 1.0, 1.0, 1)
        with pytest.raises(DegenerateInterval):
            InfluenceKernel(which=1, dtau=0.0)

    def test_kernel_apply_is_i_times_free_evolve(self, rng):
        # the raw kernel carries the factor i that evolution divides out
        state = random_state(rng, 5)
        kern = InfluenceKernel(which=-1, dtau=-0.4)
        via_kernel = kern.apply(state)
        via_evolve = free_evolve(state, 0.2, -0.2, -1)
        assert len(via_kernel.terms) == len(via_evolve.terms)
        for (c1, m1), (c2, m2) in zip(via_kernel.terms, via_evolve.terms):
            assert abs(c1 - 1j * c2) <= 1e-15 and m1.branch == m2.branch


class TestSemigroup:
    def test_two_step_composition(self, rng):
        state = random_state(rng, 6)
        composed = semigroup_compose(state, 0.0, 0.7, 1.8, 1)
        direct = free_evolve(state, 0.0, 1.8, 1)
        assert len(composed.terms) == len(direct.terms) > 0
        for (c1, _), (c2, _) in zip(composed.terms, direct.terms):
            assert abs(c1 - c2) <= 1e-13

    @pytest.mark.parametrize("which,direction", [(1, 1.0), (-1, -1.0)])
    def test_five_step_chain(self, rng, which, direction):
        state = random_state(rng, 6)
        taus = np.cumsum(np.concatenate(([0.0], 0.2 + rng.random(5)))) * direction
        chained = state
        for t0, t1 in zip(taus[:-1], taus[1:]):
            chained = free_evolve(chained, t0, t1, which)
        direct = free_evolve(state, taus[0], taus[-1], which)
        assert len(chained.terms) == len(direct.terms) > 0
        for (c1, _), (c2, _) in zip(chained.terms, direct.terms):
            assert abs(c1 - c2) <= 1e-13

    def test_non_monotone_chain_is_empty(self, rng):
        state = random_state(rng, 6)
        first = free_evolve(state, 0.0, 1.0, 1)
        assert not first.is_empty
        assert free_evolve(first, 1.0, 0.4, 1).is_empty
        assert semigroup_compose(state, 0.0, 1.0, 0.4, 1).is_empty


class TestKernelMatrix:
    def test_projects_onto_surviving_branch(self, rng):
        p = random_timelike_momentum(rng, phi=1)
        dx = rng.normal(size=4)
        kern = kernel_matrix(+1, [p], dx, 0.8)
        a = random_spin_coefficients(rng)
        # which=+1, dtau>0, phi=+1 keeps the u branch and kills the v branch
        u_img = kern @ (u_block(p) @ a)
        v_img = kern @ (v_block(p) @ a)
        assert np.abs(v_img).max() <= 1e-14
        m = np.sqrt(-minkowski_dot(p, p))
        phase = np.exp(1j * (minkowski_dot(p, dx) + m * 0.8))
        expected = 1j / TWO_PI**4 * phase * (u_block(p) @ a)
        assert np.abs(u_img - expected).max() <= 1e-13

    def test_conjugation_identity_exact(self, rng):
        momenta = [random_timelike_momentum(rng) for _ in range(6)]
        resid = influence_conjugation_check(rng.normal(size=4), 1.3, momenta)
        assert resid == 0.0

    def test_nan_residual_fails_the_check(self):
        # a NaN anywhere in the stack, as from NaN kernels, makes the residual NaN
        diff = np.zeros((3, 4, 4), dtype=complex)
        diff[1, 2, 3] = np.nan
        resid = propagate._max_residual(diff)
        assert np.isnan(resid) and np.isnan(propagate._max_residual(np.full((2, 4, 4), np.nan)))
        assert not Check("conjugation", resid, 1e-12).passed


class TestNonfinitePhase:
    """An overflowing tau phase nu*dtau or kernel phase p.dx raises
    NonfiniteResult, with no numpy warning on the way (pytest turns warnings
    into errors)."""

    DTAU = 1.7976931348623157e308

    def test_free_evolve_raises(self, rng):
        state = random_state(rng, 6, mass=2.0, subspace=Subspace.S_PLUS)
        with pytest.raises(NonfiniteResult):
            free_evolve(state, 0.0, self.DTAU, 1)
        with pytest.raises(NonfiniteResult):
            InfluenceKernel(1, self.DTAU).apply(state)
        # no survivor, no phase
        assert free_evolve(state, 0.0, self.DTAU, -1).is_empty

    def test_kernels_raise(self, rng):
        momenta = [random_timelike_momentum(rng, mass=2.0) for _ in range(3)]
        with pytest.raises(NonfiniteResult):
            kernel_matrix(1, momenta, np.zeros(4), self.DTAU)
        with pytest.raises(NonfiniteResult):
            influence_conjugation_check(np.zeros(4), -self.DTAU, momenta)

    def test_overflowing_dx_raises(self):
        # a finite dx whose p.dx overflows
        momenta = [four_vector(2.0), four_vector(3.0, 1.0, 0.0, 0.0)]
        dx = np.full(4, 1e308)
        with pytest.raises(NonfiniteResult):
            kernel_matrix(1, [four_vector(2.0)], dx, 0.5)
        with pytest.raises(NonfiniteResult):
            influence_conjugation_check(dx, 0.5, momenta)
        with pytest.raises(NonfiniteResult):
            two_conjugation_check((dx, dx), 0.5, [momenta])


class TestKernelScalingGuard:
    """The projectors are built once per kernel stack, not once per support
    momentum: a call count, not a timing."""

    @pytest.fixture
    def projector_calls(self, monkeypatch):
        calls = []
        for name in ("lambda_u", "lambda_v"):
            fn = getattr(propagate, name)
            monkeypatch.setattr(propagate, name,
                                lambda *args, fn=fn, **kw: calls.append(1) or fn(*args, **kw))
        return calls

    def test_influence_conjugation_check(self, rng, projector_calls):
        counts = []
        for n in (1, 400):
            projector_calls.clear()
            momenta = [random_timelike_momentum(rng) for _ in range(n)]
            assert influence_conjugation_check(rng.normal(size=4), 0.9, momenta) == 0.0
            counts.append(len(projector_calls))
        # one lambda_u and one lambda_v call for each of the two kernel stacks
        assert counts == [4, 4]

    def test_two_conjugation_check(self, rng, projector_calls):
        pairs = [(random_timelike_momentum(rng), random_timelike_momentum(rng)) for _ in range(200)]
        assert two_conjugation_check((rng.normal(size=4), rng.normal(size=4)), 0.6, pairs) == 0.0
        # two signs, two tensor factors, one lambda_u and one lambda_v each
        assert len(projector_calls) == 8


class TestElasticShell:
    def test_shell_kinematics(self, rng):
        p = random_timelike_momentum(rng, phi=1)
        outs = elastic_shell(p, [0.4, 1.1], n_azimuth=5)
        assert len(outs) == 10
        pm = np.linalg.norm(p[1:])
        for q in outs:
            assert abs(q[0] - p[0]) <= 1e-12
            assert abs(np.linalg.norm(q[1:]) - pm) <= 1e-10 * max(1.0, pm)
        angles = sorted(
            {round(float(np.arccos(np.dot(q[1:], p[1:]) / pm**2)), 6) for q in outs}
        )
        assert angles == [0.4, 1.1]


class TestMollerFirstOrder:
    def test_matches_reduced_amplitude_per_node(self, rng):
        m = 1.0
        p_in = four_vector(np.hypot(m, 1.2), 0.0, 0.0, 1.2)
        incident = Mode(p=p_in, branch=1, a=random_spin_coefficients(rng))
        pot = coulomb_potential(Z=2.0)
        outs = elastic_shell(p_in, [0.6, 1.5], n_azimuth=4)
        result = moller_first_order(incident, pot, outs)
        prefactor = 1j * ELEMENTARY_CHARGE / TWO_PI**3
        checked = 0
        for coeff, mode in result.terms:
            if np.allclose(mode.p, p_in, atol=1e-12):
                continue  # the incident passthrough term
            for k in range(2):
                a_f = np.eye(2)[k]
                s1 = s1_amplitude(p_in, incident.a, mode.p, a_f, pot)
                assert abs(coeff * mode.a[k] - prefactor * s1.value) <= 1e-13
                checked += 1
        assert checked == 16

    def test_backward_incident_returns_empty(self, rng):
        p_in = four_vector(np.hypot(1.0, 0.7), 0.0, 0.7, 0.0)
        incident = Mode(p=p_in, branch=-1, a=random_spin_coefficients(rng))
        out = moller_first_order(incident, coulomb_potential(Z=1.0), [p_in])
        assert out.is_empty

    def test_negative_energy_incident_keeps_its_branch(self, rng):
        # S+ through branch -1 and phi = -1: the passthrough row is the incident mode
        incident = random_mode(rng, branch=-1, phi=-1)
        outs = elastic_shell(incident.p, [0.6, 1.5, 2.4], n_azimuth=2)
        out = moller_first_order(incident, coulomb_potential(Z=2.0), outs)
        assert len(out.terms) == 7 and out.branch[0, 0] == incident.branch
        overlap = inner_product(single_mode_state(incident), out)
        assert overlap == incident.branch * np.vdot(incident.a, incident.a)
        assert len(free_evolve(out, 0.0, 0.5, 1).terms) == 7

    def test_unresolved_delta_raises(self, rng):
        # no supplied momentum conserves the mass: the tau delta never fires
        p_in = four_vector(np.hypot(1.0, 0.5), 0.0, 0.0, 0.5)
        q = four_vector(np.hypot(2.0, 0.5), 0.0, 0.0, 0.5)
        incident = Mode(p=p_in, branch=1, a=random_spin_coefficients(rng))
        with pytest.raises(UnresolvedDelta):
            moller_first_order(incident, coulomb_potential(Z=1.0), [q])

    def test_static_potential_skips_energy_violating_nodes(self, rng):
        # same mass but different p0: allowed by the mass delta, killed by
        # the static potential's energy delta; the elastic node survives
        p_in = four_vector(np.hypot(1.0, 0.5), 0.0, 0.0, 0.5)
        elastic = elastic_shell(p_in, [1.0], n_azimuth=1)[0]
        boosted = four_vector(np.hypot(1.0, 1.1), 0.0, 1.1, 0.0)
        incident = Mode(p=p_in, branch=1, a=random_spin_coefficients(rng))
        result = moller_first_order(
            incident, coulomb_potential(Z=1.0), [elastic, boosted]
        )
        momenta = [m.p for _, m in result.terms]
        assert any(np.allclose(q, elastic) for q in momenta)
        assert not any(np.allclose(q, boosted) for q in momenta)
