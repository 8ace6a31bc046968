"""Free influence propagation: filtering, semigroup, kernels, first Born."""

import itertools

import numpy as np
import pytest

from paradirac import propagate
from paradirac.algebra import ELEMENTARY_CHARGE, TWO_PI, four_vector, minkowski_dot
from paradirac.errors import DegenerateInterval, NonfiniteResult, UnresolvedDelta
from paradirac.propagate import (
    elastic_shell,
    free_evolve,
    influence_conjugation_check,
    moller_first_order,
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
from paradirac.twobody import antisymmetrize, two_conjugation_check, two_evolve
from paradirac.verify import SUITE_NAMES, Check, suite_propagate


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
            propagate._kernels(1, random_timelike_momentum(rng), np.zeros(4), 0.0)

    @pytest.mark.parametrize("which", [0, 2, -1.5])
    def test_which_must_be_plus_or_minus_one(self, rng, which):
        with pytest.raises(ValueError, match=r"^which must be \+1 or -1$"):
            free_evolve(random_state(rng, 2), 0.0, 0.5, which)
        with pytest.raises(ValueError, match=r"^which must be \+1 or -1$"):
            propagate._kernels(which, random_timelike_momentum(rng), np.zeros(4), 0.5)

    @pytest.mark.parametrize("tau_prime", [np.nan, np.inf, -np.inf])
    def test_nonfinite_step_raises(self, rng, tau_prime):
        state = random_state(rng, 4)
        with pytest.raises(ValueError, match="finite"):
            free_evolve(state, 0.0, tau_prime, 1)
        with pytest.raises(ValueError, match="finite"):
            propagate._kernels(1, random_timelike_momentum(rng), np.zeros(4), tau_prime)

    def test_one_cmul_per_mode_column(self, rng, monkeypatch):
        # free_evolve and two_evolve are one pass, which multiplies each
        # kept coefficient once per mode
        calls = []
        cmul = propagate._cmul
        monkeypatch.setattr(propagate, "_cmul", lambda x, y: calls.append(1) or cmul(x, y))
        mode = random_mode(rng, branch=1, phi=1)
        free_evolve(single_mode_state(mode), 0.0, 0.7, 1)
        assert len(calls) == 1
        pair = antisymmetrize(mode, random_mode(rng, branch=1, phi=1))
        assert len(pair.terms) == 2
        two_evolve(pair, 0.0, 0.7, 1)
        assert len(calls) == 3


class TestSemigroup:
    def test_two_step_composition(self, rng):
        # tau1 between tau0 and tau2: two steps of one kernel are the direct step
        state = random_state(rng, 6)
        composed = free_evolve(free_evolve(state, 0.0, 0.7, 1), 0.7, 1.8, 1)
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
        # tau1 outside [tau0, tau2]: the two subspace filters contradict each other
        assert free_evolve(first, 1.0, 0.4, 1).is_empty


class TestKernelMatrix:
    def test_projects_onto_surviving_branch(self, rng):
        p = random_timelike_momentum(rng, phi=1)
        dx = rng.normal(size=4)
        kern = propagate._kernels(+1, p, dx, 0.8)
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
        # no survivor, no phase
        assert free_evolve(state, 0.0, self.DTAU, -1).is_empty

    def test_kernels_raise(self, rng):
        momenta = [random_timelike_momentum(rng, mass=2.0) for _ in range(3)]
        with pytest.raises(NonfiniteResult):
            propagate._kernels(1, momenta, np.zeros(4), self.DTAU)
        with pytest.raises(NonfiniteResult):
            influence_conjugation_check(np.zeros(4), -self.DTAU, momenta)

    def test_overflowing_dx_raises(self):
        # a finite dx whose p.dx overflows
        momenta = [four_vector(2.0), four_vector(3.0, 1.0, 0.0, 0.0)]
        dx = np.full(4, 1e308)
        with pytest.raises(NonfiniteResult):
            propagate._kernels(1, four_vector(2.0), dx, 0.5)
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
        fn = propagate._projector
        monkeypatch.setattr(propagate, "_projector", lambda *args, **kw: calls.append(1) or fn(*args, **kw))
        return calls

    def test_influence_conjugation_check(self, rng, projector_calls):
        counts = []
        for n in (1, 400):
            projector_calls.clear()
            momenta = [random_timelike_momentum(rng) for _ in range(n)]
            assert influence_conjugation_check(rng.normal(size=4), 0.9, momenta) == 0.0
            counts.append(len(projector_calls))
        # one projector call for each of the two kernel stacks
        assert counts == [2, 2]

    def test_two_conjugation_check(self, rng, projector_calls):
        pairs = [(random_timelike_momentum(rng), random_timelike_momentum(rng)) for _ in range(200)]
        assert two_conjugation_check((rng.normal(size=4), rng.normal(size=4)), 0.6, pairs) == 0.0
        # two signs, two tensor factors, one projector call each
        assert len(projector_calls) == 4


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

    def test_no_outgoing_momenta_raises_unresolved_delta(self, rng):
        p_in = four_vector(np.hypot(1.0, 0.5), 0.0, 0.0, 0.5)
        incident = Mode(p=p_in, branch=1, a=random_spin_coefficients(rng))
        for outs in ([], np.empty((0, 4))):
            with pytest.raises(UnresolvedDelta, match="no outgoing momentum conserves the mass"):
                moller_first_order(incident, coulomb_potential(1.0), outs)

    @pytest.mark.parametrize("n_azimuth", [0, -1, 2.5, 2.0, np.nan])
    def test_elastic_shell_refuses_a_bad_azimuth_count(self, n_azimuth):
        # 2.5 would space 3 rows 2 pi / 2.5 apart, and 0 would give no rows,
        # which moller_first_order reports as an UnresolvedDelta
        with pytest.raises(ValueError, match="^n_azimuth must be an integer of at least 1"):
            elastic_shell(four_vector(np.hypot(1.0, 0.5), 0.0, 0.0, 0.5), [0.5], n_azimuth=n_azimuth)

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


def _filter_checks_loop(rng):
    """The 16 filter checks of verify.suite_propagate, one single-mode state
    per case, written apart from the suite: the reference for its draws and
    arithmetic."""
    found = []
    coeff = 0.8 - 0.3j
    for which, direction, branch, phi in itertools.product((1, -1), repeat=4):
        dtau = 0.7 * direction
        mode = random_mode(rng, branch=branch, phi=phi, p_scale=0.7)
        evolved = free_evolve(single_mode_state(mode, coeff=coeff), 0.0, dtau, which)
        if branch * phi == which * direction:
            expected = coeff * direction * np.exp(1j * mode.frequency * dtau)
            resid = 1.0 if evolved.is_empty else abs(evolved.coeff[0] - expected)
            verdict = "keeps"
        else:
            resid = 0.0 if evolved.is_empty else abs(evolved.coeff[0])
            verdict = "drops"
        label = f"filter w={which:+d} dt={direction:+d} b={branch:+d} phi={phi:+d} {verdict}"
        found.append((label, resid))
    return found


class TestFilterSuite:
    @pytest.mark.parametrize("seed", [0, 3, 7, 12345])
    def test_residuals_equal_the_case_by_case_loop(self, seed):
        # same seeded stream, same rounding: labels, order and residuals agree bit for bit
        stream = [seed, SUITE_NAMES.index("propagate")]
        batched = suite_propagate(np.random.default_rng(stream))
        loop = _filter_checks_loop(np.random.default_rng(stream))
        assert list(batched.items())[:16] == loop
