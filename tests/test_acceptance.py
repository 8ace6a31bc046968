"""Acceptance gate: one test and one printed pass/fail line per shipped guarantee.

Each criterion is timed and checked at its stated tolerance; the oracle side
of every comparison is built from an independent route (explicit enumeration,
fixed-grid quadrature, brute-force contraction), never from the code path
under test.
"""

import itertools
import time

import numpy as np
import pytest

from paradirac.algebra import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    FINE_STRUCTURE,
    I4,
    METRIC,
    TWO_PI,
    bar,
    gamma,
)
from paradirac.cli import main as cli_main
from paradirac.propagate import elastic_shell, free_evolve
from paradirac.radiative import (
    FieldConfiguration,
    anomaly_rhs,
    axial_divergence_tree,
    epsilon_tensor,
    f2_record,
    uehling_potential,
    uehling_potential_hyperbolic,
    uehling_shift,
    uehling_shift_fixed_grid,
    vector_divergence_check,
)
from paradirac.sampling import (
    random_mode,
    random_spin_coefficients,
    random_state,
    random_timelike_momentum,
)
from paradirac.scattering import (
    coulomb_potential,
    mott_ratio,
    rutherford_dcs,
    s1_amplitude,
    spin_averaged_amp2,
    zero_potential,
)
from paradirac.spinors import lambda_u, lambda_v, u_block, v_block
from paradirac.states import Mode, Subspace, single_mode_state
from paradirac.twobody import (
    TwoParticleState,
    antisymmetrize,
    bs_born_step,
    permute_labels,
    s2_first_order,
)
from paradirac.verify import SUITE_NAMES, all_passed, format_report, run_suites


@pytest.fixture
def announce(capsys):
    def _announce(number: int, detail: str, ok: bool):
        with capsys.disabled():
            print(f"criterion {number}: {detail}: {'PASS' if ok else 'FAIL'}", flush=True)

    return _announce


def test_criterion_1_clifford_table(announce):
    start = time.perf_counter()
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            gm, gn = gamma(mu), gamma(nu)
            resid = np.abs(gm @ gn + gn @ gm + 2.0 * METRIC[mu, nu] * I4).max()
            worst = max(worst, float(resid))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-14 and elapsed < 1.0
    announce(1, f"16 anticommutators, max residual {worst:.1e} in {elapsed:.2f} s", ok)
    assert worst <= 1e-14
    assert elapsed < 1.0


def test_criterion_2_spinor_identities(announce, rng):
    start = time.perf_counter()
    eye2 = np.eye(2)
    worst = 0.0
    for k in range(1000):
        phi = 1 if k % 2 == 0 else -1
        p = random_timelike_momentum(rng, mass=0.5 + 2.0 * rng.random(), phi=phi)
        ub, vb = u_block(p), v_block(p)
        residuals = (
            bar(ub) @ ub - eye2,
            bar(vb) @ vb + eye2,
            bar(ub) @ vb,
            bar(vb) @ ub,
            lambda_u(p) - ub @ bar(ub),
            lambda_v(p) + vb @ bar(vb),
            lambda_u(p) + lambda_v(p) - I4,
        )
        worst = max(worst, max(float(np.abs(r).max()) for r in residuals))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    announce(2, f"orthonormality+projectors over 1000 momenta, max residual {worst:.1e} "
                f"in {elapsed:.2f} s", ok)
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_3_filtering_and_semigroup(announce, rng):
    start = time.perf_counter()
    exact = True
    for which, direction, branch, phi in itertools.product((1, -1), repeat=4):
        dtau = 0.9 * direction
        coeff = 0.7 + 0.4j
        mode = random_mode(rng, branch=branch, phi=phi)
        evolved = free_evolve(single_mode_state(mode, coeff=coeff), 0.0, dtau, which)
        if branch * phi == which * direction:
            survived = len(evolved.terms) == 1
            expected = coeff * direction * np.exp(1j * mode.frequency * dtau)
            exact &= survived and evolved.terms[0][0] == expected
        else:
            exact &= len(evolved.coeff) == 0

    worst_chain = 0.0
    for which, direction in ((1, 1.0), (1, -1.0), (-1, 1.0), (-1, -1.0)):
        want = Subspace.S_PLUS if which * direction > 0 else Subspace.S_MINUS
        state = random_state(rng, n_modes=6, subspace=want)
        taus = np.cumsum(np.concatenate(([0.0], 0.2 + rng.random(5)))) * direction
        chained = state
        for t0, t1 in zip(taus[:-1], taus[1:]):
            chained = free_evolve(chained, t0, t1, which)
        direct = free_evolve(state, taus[0], taus[-1], which)
        assert len(chained.terms) == len(direct.terms) == 6
        for (c1, _), (c2, _) in zip(chained.terms, direct.terms):
            worst_chain = max(worst_chain, abs(c1 - c2))
    elapsed = time.perf_counter() - start
    ok = exact and worst_chain <= 1e-13 and elapsed < 5.0
    announce(3, f"16 filter cases exact, 5-step chains max residual {worst_chain:.1e} "
                f"in {elapsed:.2f} s", ok)
    assert exact
    assert worst_chain <= 1e-13
    assert elapsed < 5.0


def test_criterion_4_mott_ratio_against_enumeration(announce):
    p_mag = ELECTRON_MASS
    pot = coulomb_potential(1.0)
    energy = float(np.hypot(ELECTRON_MASS, p_mag))
    angles = np.radians(np.linspace(3.6, 176.4, 50))
    worst = 0.0
    for kappa in angles:
        p_i = np.array([energy, 0.0, 0.0, p_mag])
        p_f = np.array([energy, p_mag * np.sin(kappa), 0.0, p_mag * np.cos(kappa)])
        enum = spin_averaged_amp2(p_i, p_f, pot).by_enumeration
        dcs_oracle = ELECTRON_MASS**2 / TWO_PI**2 * ELEMENTARY_CHARGE**2 * enum
        oracle = dcs_oracle / rutherford_dcs(p_mag, kappa, 1.0)
        worst = max(worst, abs(mott_ratio(p_mag, kappa) - oracle))

    beta = 1e-3
    p_nr = ELECTRON_MASS * beta / np.sqrt(1.0 - beta**2)
    worst_nr = max(abs(mott_ratio(p_nr, kappa) - 1.0) for kappa in angles)

    computed = mott_ratio(p_mag, np.pi / 2.0)
    ok = worst <= 1e-10 and worst_nr <= 1e-6
    announce(4, f"ratio vs spin-sum oracle max dev {worst:.1e} over 50 angles, "
                f"nonrel dev {worst_nr:.1e}; at 90 deg computed {computed:.6f}", ok)
    assert worst <= 1e-10
    assert worst_nr <= 1e-6


def test_criterion_4_mott_ratio_precision_range(announce):
    # The mass is carried into the projectors, not recovered from the rounded
    # four-momenta, so the ratio keeps full precision up to |p|/m = 1e8.
    # Oracle: the closed form 1 - beta^2 sin^2(kappa/2) = (m^2 + p^2 cos^2(kappa/2)) / E^2.
    m = ELECTRON_MASS
    angles = np.radians([30.0, 90.0, 150.0])
    worst = 0.0
    for ratio_pm in np.geomspace(1e-6, 1e8, 15):
        p_mag = ratio_pm * m
        analytic = (m * m + (p_mag * np.cos(angles / 2.0)) ** 2) / (m * m + p_mag * p_mag)
        rel = np.abs(mott_ratio(p_mag, angles) - analytic) / analytic
        worst = max(worst, float(rel.max()))
    ok = worst <= 1e-12
    announce(4, f"ratio vs closed form max rel dev {worst:.1e} at 30/90/150 deg "
                f"over |p|/m in [1e-6, 1e8]", ok)
    assert worst <= 1e-12


def test_criterion_4_mott_ratio_at_180_degrees(announce):
    # A Mott table enumerates its four spin amplitudes, which cancels terms
    # of order E/m only, so the ratio keeps its relative precision up to 180
    # degrees, where it falls to (m/E)^2; spin_trace, which cancels terms of
    # order (E/m)^2, is 35% off at |p|/m = 1e8 and 180 degrees.  Oracle: the
    # closed form, as above.
    m = ELECTRON_MASS
    degrees = [1e-3, 0.5, 10.0, 30.0, 60.0, 90.0, 120.0, 150.0, 170.0, 179.0, 179.9, 179.99, 180.0]
    kappa = np.radians(degrees)
    worst = 0.0
    for ratio_pm in np.geomspace(1e-6, 1e8, 29):
        p_mag = ratio_pm * m
        analytic = (m * m + (p_mag * np.cos(kappa / 2.0)) ** 2) / (m * m + p_mag * p_mag)
        rel = np.abs(mott_ratio(p_mag, kappa) - analytic) / analytic
        worst = max(worst, float(rel.max()))
    ok = worst <= 1e-7
    announce(4, f"ratio vs closed form max rel dev {worst:.1e} over {len(degrees)} angles up to "
                f"180 deg by 29 values of |p|/m in [1e-6, 1e8]", ok)
    assert worst <= 1e-7


def test_criterion_5_anomalous_moment(announce):
    start = time.perf_counter()
    value = f2_record()["value"]
    elapsed = time.perf_counter() - start
    target = FINE_STRUCTURE / (2.0 * np.pi)
    rel = abs(value - target) / target
    ok = rel <= 1e-4 and elapsed < 10.0
    announce(5, f"F2(0) = {value:.6e} vs alpha/2pi, rel dev {rel:.1e} in {elapsed:.2f} s", ok)
    assert rel <= 1e-4
    assert elapsed < 10.0


def test_criterion_6_uehling_endpoint(announce):
    start = time.perf_counter()
    worst_rel = 0.0
    for mr in np.geomspace(0.01, 20.0, 30):
        r = mr / ELECTRON_MASS
        u1 = uehling_potential(r, 1.0)
        u2 = uehling_potential_hyperbolic(r, 1.0)
        worst_rel = max(worst_rel, abs(u1 - u2) / abs(u1))

    shift = uehling_shift(2, 0, 1.0)
    oracle = uehling_shift_fixed_grid(2, 0, 1.0, segments=48)
    converged = abs(oracle - uehling_shift_fixed_grid(2, 0, 1.0, segments=24))
    rel_shift = abs(shift.mev - oracle) / abs(oracle)
    elapsed = time.perf_counter() - start
    ok = (worst_rel <= 1e-6 and rel_shift <= 0.01 and shift.mhz < 0.0
          and 10.0 < abs(shift.mhz) < 100.0 and elapsed < 30.0)
    announce(6, f"dual U(r) max rel dev {worst_rel:.1e}; 2S shift {shift.mhz:.3f} MHz vs "
                f"double-resolution oracle rel dev {rel_shift:.1e} in {elapsed:.1f} s", ok)
    assert worst_rel <= 1e-6
    # the oracle's own discretization error sits far below the 1% gate
    assert converged <= 1e-3 * abs(oracle)
    assert rel_shift <= 0.01
    assert shift.mhz < 0.0
    assert 10.0 < abs(shift.mhz) < 100.0
    assert elapsed < 30.0


def test_criterion_7_current_identities(announce, rng):
    worst_vec = 0.0
    worst_axi = 0.0
    for _ in range(3):
        state = random_state(rng, n_modes=8, mass=1.0, subspace=Subspace.S_MINUS)
        points = rng.normal(size=(8, 4))
        worst_vec = max(worst_vec, vector_divergence_check(state, points))
        lhs, rhs = axial_divergence_tree(state, 1.0, points)
        worst_axi = max(worst_axi, float(np.abs(lhs - rhs).max()))

    eps = epsilon_tensor()
    anomaly_exact = True
    for _ in range(3):
        e_vec, b_vec = rng.normal(size=3), rng.normal(size=3)
        field = FieldConfiguration.from_fields(e_vec, b_vec)
        low = field.lowered()
        oracle = 0.0
        for mu, nu, rho, sig in itertools.permutations(range(4)):
            oracle += eps[mu, nu, rho, sig] * low[mu, nu] * low[rho, sig]
        oracle *= -(ELEMENTARY_CHARGE**2) / (2.0 * TWO_PI) ** 2
        anomaly_exact &= float(anomaly_rhs(field)) == oracle

    ok = worst_vec <= 1e-10 and worst_axi <= 1e-10 and anomaly_exact
    announce(7, f"divergence residuals vector {worst_vec:.1e}, axial {worst_axi:.1e}; "
                f"anomaly equals 24-permutation oracle exactly: {anomaly_exact}", ok)
    assert worst_vec <= 1e-10
    assert worst_axi <= 1e-10
    assert anomaly_exact


def test_criterion_8_two_body_suite(announce, rng):
    start = time.perf_counter()

    def fwd():
        return random_mode(rng, branch=1, phi=1)

    repeated = fwd()
    pauli_ok = len(antisymmetrize(repeated, repeated).coeff) == 0

    state_i = antisymmetrize(fwd(), fwd())
    state_f = antisymmetrize(fwd(), fwd())
    pots = (coulomb_potential(1.0), coulomb_potential(2.0))
    plain = s2_first_order(state_i, state_f, pots).value
    flipped = s2_first_order(permute_labels(state_i), state_f, pots).value
    flip_resid = abs(plain + flipped) / max(1.0, abs(plain))

    ix, spectator = fwd(), fwd()
    fx = Mode(p=elastic_shell(ix.p, [0.7], n_azimuth=1)[0], branch=1,
              a=random_spin_coefficients(rng))
    prod_i = TwoParticleState(terms=((1.0, ix, spectator),))
    prod_f = TwoParticleState(terms=((1.0, fx, spectator),))
    amp = s2_first_order(prod_i, prod_f, (coulomb_potential(2.0), zero_potential()))
    s1 = s1_amplitude(ix.p, ix.a, fx.p, fx.a, coulomb_potential(2.0))
    target = 1j * ELEMENTARY_CHARGE / TWO_PI**3 * s1.value * np.vdot(spectator.a, spectator.a)
    sep_resid = abs(amp.value - target) / max(1.0, abs(target))

    basis = [(fwd(), fwd()) for _ in range(5)]
    g = (rng.normal(size=5) + 1j * rng.normal(size=5)) / np.sqrt(5.0)
    lam = 0.41 + 0.08j
    v = lam * np.outer(g, g.conj())
    mass = 1.25
    ratio = lam * np.vdot(g, g) * (-2.0 / (2.0 - mass))
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    step1 = bs_born_step(psi, basis, v, mass)
    step2 = bs_born_step(step1, basis, v, mass)
    step3 = bs_born_step(step2, basis, v, mass)
    geo_resid = max(
        float(np.abs(step2 - ratio * step1).max()),
        float(np.abs(step3 - ratio**2 * step1).max()),
    )
    elapsed = time.perf_counter() - start
    ok = (pauli_ok and flip_resid <= 1e-12 and sep_resid <= 1e-12
          and geo_resid <= 1e-12 and elapsed < 10.0)
    announce(8, f"Pauli empty {pauli_ok}, permutation flip {flip_resid:.1e}, "
                f"separability {sep_resid:.1e}, geometric 3 steps {geo_resid:.1e} "
                f"in {elapsed:.2f} s", ok)
    assert pauli_ok
    assert flip_resid <= 1e-12
    assert sep_resid <= 1e-12
    assert geo_resid <= 1e-12
    assert elapsed < 10.0


def test_criterion_9_verify_suite_deterministic(announce, capsys):
    start = time.perf_counter()
    report1 = format_report(run_suites(SUITE_NAMES))
    report2 = format_report(run_suites(SUITE_NAMES))
    code = cli_main(["verify", "--suite", "all"])
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    passed = all_passed(run_suites(SUITE_NAMES))
    ok = report1 == report2 and passed and code == 0 and elapsed < 120.0
    announce(9, f"verify --suite all deterministic, exit {code}, {elapsed:.1f} s "
                f"for two runs plus CLI", ok)
    assert report1 == report2
    assert passed
    assert code == 0
    assert elapsed < 120.0
