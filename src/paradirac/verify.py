"""Named residual suites behind ``paradirac verify``.

Each suite takes only a seeded generator and returns {check name: residual}
in report order, so a run is reproducible bit for bit for a given seed;
`run_suite` is the one place that pairs a residual with its tolerance as a
`Check`.  The spinors suite takes its draws in stacked slices, in the
one-at-a-time order; every operation is row-wise, so the residuals equal
those of the one-at-a-time route bit for bit, and the tests keep that route
as the reference.  The same holds for the stacked work of the other suites:
the algebra checks that read only the gamma constants run once per process,
the 16 filter checks evolve four 4-row states, one per (which, direction),
and runs of same-sign modes are drawn as one block.  Residuals are max-norm
deviations of exact algebraic identities; the default tolerances are set
per suite a decade or two above the observed machine-precision plateau.
Each suite imports the layers it checks, so importing this module loads
only the algebra.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    ELEMENTARY_CHARGE,
    GAMMA5,
    GAMMA_STACK,
    I2,
    I4,
    METRIC,
    TWO_PI,
    _matvec,
    _max_residual,
    bar,
    dirac_adjoint,
    four_vector,
    gamma,
    minkowski_dot,
    slash,
)


@dataclass(frozen=True)
class Check:
    """One named identity with its measured residual and pass threshold."""

    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


# ---------------------------------------------------------------------------
# algebra


@functools.cache
def _constant_algebra_checks() -> dict:
    """The checks of suite_algebra that read only the gamma constants, once per process."""
    checks = {}
    for mu in range(4):
        for nu in range(4):
            anti = gamma(mu) @ gamma(nu) + gamma(nu) @ gamma(mu) + 2.0 * METRIC[mu, nu] * I4
            checks[f"anticommutator ({mu},{nu}) + 2 g^{mu}{nu}"] = _max_residual(anti)
    for mu in range(4):
        checks[f"gamma5 anticommutes with gamma^{mu}"] = _max_residual(GAMMA5 @ gamma(mu) + gamma(mu) @ GAMMA5)
    for mu in range(4):
        for nu in range(4):
            tr = np.trace(gamma(mu) @ gamma(nu))
            checks[f"trace pair ({mu},{nu}) + 4 g^{mu}{nu}"] = abs(tr + 4.0 * METRIC[mu, nu])
    return checks


def suite_algebra(rng) -> dict:
    from .sampling import random_timelike_momentum

    checks = dict(_constant_algebra_checks())
    squares, adjoints = [], []
    for _ in range(8):
        p = random_timelike_momentum(rng)
        sp = slash(p)
        squares.append(sp @ sp + minkowski_dot(p, p) * I4)
        adjoints.append(dirac_adjoint(sp) - sp)
    checks["slash(p)^2 + p.p (8 random timelike p)"] = _max_residual(squares)
    checks["slash(p) self-adjoint under bar (8 draws)"] = _max_residual(adjoints)
    checks["gamma5 squares to identity"] = _max_residual(GAMMA5 @ GAMMA5 - I4)
    return checks


# ---------------------------------------------------------------------------
# spinors


# suite_spinors takes _SPINOR_DRAWS draws in batches of _SPINOR_BATCH, a
# multiple of 10 so that every batch starts on a draw with a spin direction.
# The batch bounds each (n, 4, 4) complex temporary at 64 kB: a process
# running only this suite peaks at 35.9 MiB RSS with batches of 100 or 250
# draws, and at 37.5 MiB with one of all 1000.
_SPINOR_DRAWS = 1000
_SPINOR_BATCH = 250


def _spinor_residuals(p, phi, a_u, a_v, spin_dirs) -> dict:
    from .spinors import (
        boost_spin, decompose_in_block, lambda_u, lambda_v, spin_projector, u_block, v_block,
    )

    m = np.sqrt(-minkowski_dot(p, p))  # mass_of(p) to the bit
    ub, vb = u_block(p, m), v_block(p, m)
    ubar, vbar = bar(ub), bar(vb)
    lu, lv = lambda_u(p, m), lambda_v(p, m)
    u_a = _matvec(ub, a_u)
    w = u_a + _matvec(0.6 * vb, a_v)
    rebuilt = _matvec(ub, _matvec(ubar, w)) + _matvec(vb, -_matvec(vbar, w))
    pure = _matvec(ub, decompose_in_block(p, +1, u_a))
    sig = spin_projector(boost_spin(spin_dirs, p[::10]))
    lu_spin = lu[::10]
    phi_m = (phi * m)[:, None, None]
    sl = slash(p)
    return {
        "u-block orthonormality ubar u - 1": _max_residual(ubar @ ub - I2),
        "v-block orthonormality vbar v + 1": _max_residual(vbar @ vb + I2),
        "cross orthogonality ubar v": _max_residual(ubar @ vb),
        "cross orthogonality vbar u": _max_residual(vbar @ ub),
        "projector from block u ubar - P_u": _max_residual(ub @ ubar - lu),
        "projector from block v vbar + P_v": _max_residual(vb @ vbar + lv),
        "projector completeness P_u + P_v - 1": _max_residual(lu + lv - I4),
        "frequency relation slash(p) u + phi m u": _max_residual(sl @ ub + phi_m * ub),
        "frequency relation slash(p) v - phi m v": _max_residual(sl @ vb - phi_m * vb),
        "branch decomposition roundtrip": _max_residual([rebuilt - w, pure - u_a]),
        "spin projector idempotence": _max_residual(sig @ sig - sig),
        "spin projector commutes with P_u": _max_residual(sig @ lu_spin - lu_spin @ sig),
        "spin trace normalization": _max_residual(np.trace(sig @ lu_spin, axis1=-2, axis2=-1) - 1.0),
    }


def suite_spinors(rng) -> dict:
    from .sampling import random_spinor_draws

    p, phi, a_u, a_v, spin_dirs = random_spinor_draws(rng, _SPINOR_DRAWS)
    batches = []
    for lo in range(0, _SPINOR_DRAWS, _SPINOR_BATCH):
        rows = slice(lo, lo + _SPINOR_BATCH)
        spins = slice(lo // 10, (lo + _SPINOR_BATCH) // 10)
        batches.append(_spinor_residuals(p[rows], phi[rows], a_u[rows], a_v[rows], spin_dirs[spins]))
    return {name: _max_residual([b[name] for b in batches]) for name in batches[0]}


# ---------------------------------------------------------------------------
# propagation


def suite_propagate(rng) -> dict:
    from .propagate import (
        elastic_shell, free_evolve, influence_conjugation_check, moller_first_order,
    )
    from .sampling import _signed_modes, random_spin_coefficients, random_state, random_timelike_momentum
    from .scattering import coulomb_potential, s1_amplitude
    from .states import Mode, SpectralState

    checks = {}
    coeff = 0.8 - 0.3j
    signs = list(itertools.product((1, -1), repeat=2))  # (which, direction) of a group, (branch, phi) of its rows
    branches, phis = zip(*signs)
    drawn = _signed_modes(rng, branches * 4, phis * 4, p_scale=0.7)  # the 16 rows, group by group
    for group, (which, direction) in enumerate(signs):
        dtau = 0.7 * direction
        modes = drawn[4 * group:4 * group + 4]
        evolved = free_evolve(SpectralState([(coeff, mode) for mode in modes]), 0.0, dtau, which)
        for (branch, phi), mode in zip(signs, modes):
            # the survivor by its label: a row that should drop but survives shows its |coefficient|
            found = np.flatnonzero((evolved.p[:, 0] == mode.p).all(axis=1) & (evolved.branch[:, 0] == branch))
            if branch * phi == which * direction:
                expected = coeff * direction * np.exp(1j * mode.frequency * dtau)
                resid = abs(evolved.coeff[found[0]] - expected) if len(found) else 1.0
                verdict = "keeps"
            else:
                resid = abs(evolved.coeff[found[0]]) if len(found) else 0.0
                verdict = "drops"
            label = f"filter w={which:+d} dt={direction:+d} b={branch:+d} phi={phi:+d} {verdict}"
            checks[label] = resid

    for which, direction in ((1, 1), (-1, -1)):
        state = random_state(rng, n_modes=6)
        taus = np.cumsum(np.concatenate(([0.0], 0.1 + rng.random(5)))) * direction
        chained = state
        for t0, t1 in zip(taus[:-1], taus[1:]):
            chained = free_evolve(chained, t0, t1, which)
        direct = free_evolve(state, taus[0], taus[-1], which)
        same = len(chained.coeff) == len(direct.coeff)
        resid = _max_residual(chained.coeff - direct.coeff) if same else 1.0
        checks[f"semigroup chain of 5 (w={which:+d})"] = resid

    state = random_state(rng, n_modes=6)
    wobble = free_evolve(free_evolve(state, 0.0, 1.0, 1), 1.0, 0.5, 1)
    checks["non-monotone chain empties"] = float(len(wobble.coeff))

    momenta = [random_timelike_momentum(rng) for _ in range(5)]
    dx = rng.normal(size=4)
    checks["kernel conjugation g0 K+^dag g0 = K- rev"] = influence_conjugation_check(dx, 0.9, momenta)

    m = 1.0
    p_in = four_vector(np.hypot(m, 1.0), 0.0, 0.0, 1.0)
    incident = Mode(p=p_in, branch=1, a=random_spin_coefficients(rng))
    pot = coulomb_potential(Z=2.0)
    outs = elastic_shell(p_in, [0.5, 1.4], n_azimuth=3)
    scattered = moller_first_order(incident, pot, outs)
    diffs = []
    e3 = ELEMENTARY_CHARGE / TWO_PI**3
    for c, p, a in zip(scattered.coeff.tolist(), scattered.p[:, 0], scattered.a[:, 0]):
        if np.allclose(p, p_in, atol=1e-12):
            continue
        for k, a_f in enumerate(np.eye(2)):
            s1 = s1_amplitude(p_in, incident.a, p, a_f, pot)
            diffs.append(c * a[k] - 1j * e3 * s1.value)
    checks["first Born node matches reduced amplitude"] = _max_residual(diffs)

    backward = Mode(p=p_in, branch=-1, a=incident.a)
    silent = moller_first_order(backward, pot, outs)
    checks["backward incident mode yields no nodes"] = float(len(silent.coeff))
    return checks


# ---------------------------------------------------------------------------
# two-body


def suite_twobody(rng) -> dict:
    from .propagate import elastic_shell
    from .sampling import _signed_modes, random_mode, random_spin_coefficients, random_timelike_momentum
    from .scattering import coulomb_potential, s1_amplitude, zero_potential
    from .states import Mode
    from .twobody import (
        TwoParticleState, antisymmetrize, bs_born_step, bs_dominant_eigenpair, exchange_residual,
        mutual_scattering_amplitude, permute_labels, s2_first_order, symmetrize,
        two_conjugation_check, two_evolve, two_inner_product,
    )

    checks = {}
    mode, m1, m2, f1, f2 = _signed_modes(rng, (1,) * 5, (1,) * 5)
    pauli = antisymmetrize(mode, mode)
    checks["identical-mode antisymmetrization empties"] = float(len(pauli.coeff))

    anti = antisymmetrize(m1, m2)
    sym = symmetrize(m1, m2)
    checks["fermionic exchange antisymmetry"] = exchange_residual(anti)
    checks["bosonic exchange symmetry"] = exchange_residual(sym)

    final = antisymmetrize(f1, f2)
    pots = (coulomb_potential(Z=1.0), coulomb_potential(Z=3.0))
    plain = s2_first_order(anti, final, pots).value
    flipped = s2_first_order(permute_labels(anti), final, pots).value
    checks["label permutation flips the amplitude sign"] = abs(plain + flipped)

    shift = 0.83
    anti_s = two_evolve(anti, 0.0, shift, 1)
    final_s = two_evolve(final, 0.0, shift, 1)
    shifted = s2_first_order(anti_s, final_s, pots).value
    checks["amplitude invariant under common tau shift"] = abs(shifted - plain)

    ix, iy = random_mode(rng, branch=1, phi=1), random_mode(rng, branch=1, phi=1)
    fx = Mode(p=elastic_shell(ix.p, [0.9], n_azimuth=1)[0], branch=1,
              a=random_spin_coefficients(rng))
    prod_i = TwoParticleState(terms=((1.0, ix, iy),), exchange="none")
    prod_f = TwoParticleState(terms=((1.0, fx, iy),), exchange="none")
    amp = s2_first_order(prod_i, prod_f, (pots[0], zero_potential())).value
    s1 = s1_amplitude(ix.p, ix.a, fx.p, fx.a, pots[0])
    partner = np.vdot(iy.a, iy.a)
    target = 1j * ELEMENTARY_CHARGE / TWO_PI**3 * s1.value * partner
    checks["separable amplitude factorizes"] = abs(amp - target)

    drawn = _signed_modes(rng, (1,) * 10 + (-1, 1), (1,) * 12)  # 5 forward pairs, then a backward one
    basis = list(zip(drawn[::2], drawn[1::2]))
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    lam = 0.37 - 0.12j
    v_matrix = lam * np.outer(g, g.conj())
    nu = np.array([mx.frequency + my.frequency for mx, my in basis])
    dvec = np.where([bx.branch * np.sign(bx.p[0]) > 0 and by.branch * np.sign(by.p[0]) > 0
                     for bx, by in basis], -2.0 / (nu - 1.3), 0.0)
    ratio = lam * np.vdot(g, dvec * g)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    k1 = bs_born_step(psi, basis, v_matrix, 1.3)
    k2 = bs_born_step(k1, basis, v_matrix, 1.3)
    k3 = bs_born_step(k2, basis, v_matrix, 1.3)
    scale = _max_residual(k1)
    checks["rank-1 Born series is geometric (step 2)"] = _max_residual(k2 - ratio * k1) / scale
    checks["rank-1 Born series is geometric (step 3)"] = _max_residual(k3 - ratio**2 * k1) / scale
    checks["kernel annihilates backward pairs"] = abs(k1[-1])
    eig, _ = bs_dominant_eigenpair(basis, v_matrix, 1.3)
    checks["dominant eigenvalue is the geometric ratio"] = abs(eig - ratio) / abs(ratio)

    pairs = [
        (random_timelike_momentum(rng), random_timelike_momentum(rng))
        for _ in range(3)
    ]
    resid = two_conjugation_check((rng.normal(size=4), rng.normal(size=4)), 0.6, pairs)
    checks["two-body kernel conjugation"] = resid

    in1 = random_mode(rng, branch=1, phi=1, p_scale=0.4)
    in2 = random_mode(rng, mass=2.0, branch=1, phi=1, p_scale=0.3)
    out1 = Mode(p=elastic_shell(in1.p, [0.8], n_azimuth=1)[0], branch=1,
                a=random_spin_coefficients(rng))
    out2 = Mode(p=in2.p + (in1.p - out1.p), branch=1, a=random_spin_coefficients(rng))
    amp12 = mutual_scattering_amplitude(in1, out1, in2, out2, 0.4, 0.9)
    amp21 = mutual_scattering_amplitude(in2, out2, in1, out1, 0.9, 0.4)
    scale = max(abs(amp12), 1e-300)
    checks["mutual scattering is symmetric"] = abs(amp12 - amp21) / scale

    norm = two_inner_product(anti, anti)
    target = np.vdot(m1.a, m1.a) * np.vdot(m2.a, m2.a)
    checks["antisymmetrized norm matches factor norms"] = abs(norm - target)
    return checks


# ---------------------------------------------------------------------------
# currents


def suite_currents(rng) -> dict:
    from .radiative import (
        FieldConfiguration, anomaly_rhs, axial_divergence_tree, epsilon_tensor,
        vector_divergence_check,
    )
    from .sampling import random_mode, random_state
    from .states import (
        Subspace, bilinear_concatenated, concatenated_current, current_divergence_fd,
        single_mode_state,
    )
    from .twobody import TwoParticleState, two_currents

    checks = {}
    points = rng.normal(size=(12, 4))

    state = random_state(rng, n_modes=8, mass=1.0)
    checks["vector current divergence (spectral)"] = vector_divergence_check(state, points)

    gentle = random_state(rng, n_modes=6, mass=1.0, p_scale=0.5)
    fd = current_divergence_fd(gentle, points[:4])
    checks["vector current divergence (finite difference)"] = _max_residual(fd)

    imag = bilinear_concatenated(state, GAMMA_STACK, points).imag
    checks["concatenated current reality"] = _max_residual(imag)

    minus = random_state(rng, n_modes=8, mass=1.0, subspace=Subspace.S_MINUS)
    lhs, rhs = axial_divergence_tree(minus, 1.0, points)
    checks["axial divergence identity on backward states"] = _max_residual(lhs - rhs)
    plus = random_state(rng, n_modes=8, mass=1.0, subspace=Subspace.S_PLUS)
    lhs_p, rhs_p = axial_divergence_tree(plus, 1.0, points)
    checks["axial divergence sign reversal on forward states"] = _max_residual(lhs_p + rhs_p)

    e_vec = rng.normal(size=3)
    b_vec = rng.normal(size=3)
    field = FieldConfiguration.from_fields(e_vec, b_vec)
    low = field.lowered()
    eps = epsilon_tensor()
    charge = ELEMENTARY_CHARGE
    oracle = 0.0
    for perm in itertools.permutations(range(4)):
        mu, nu, rho, sig = perm
        oracle += eps[mu, nu, rho, sig] * low[..., mu, nu] * low[..., rho, sig]
    oracle *= -(charge**2) / (2.0 * TWO_PI) ** 2
    anomaly = float(anomaly_rhs(field))
    checks["anomaly contraction vs permutation oracle"] = abs(anomaly - float(oracle))

    analytic = charge**2 * float(np.dot(e_vec, b_vec)) / (2.0 * np.pi**2)
    checks["anomaly contraction vs E.B closed form"] = abs(anomaly - analytic)

    mx = random_mode(rng, branch=1, phi=1, p_scale=0.5)
    my = random_mode(rng, branch=1, phi=1, p_scale=0.5)
    prod = TwoParticleState(terms=((0.7 + 0.2j, mx, my),), exchange="none")
    j1, j2 = two_currents(prod, points[:4])
    single_x = concatenated_current(single_mode_state(mx, coeff=abs(0.7 + 0.2j)), points[:4])
    weight_y = float(np.vdot(my.a, my.a).real)
    resid = _max_residual(j1.values - single_x.values * weight_y)
    checks["marginal current reduces on product states"] = resid
    return checks


# ---------------------------------------------------------------------------
# orchestration


# name -> (suite, default tolerance), in report order
_SUITES = {
    "algebra": (suite_algebra, 1e-14),
    "spinors": (suite_spinors, 1e-12),
    "propagate": (suite_propagate, 1e-13),
    "twobody": (suite_twobody, 1e-12),
    "currents": (suite_currents, 1e-10),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, tol: float = None) -> list[Check]:
    """Run one named suite with a seed-derived generator; each check gets
    tol, or the suite's default when tol is None."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    rng = np.random.default_rng([seed, SUITE_NAMES.index(name)])
    suite, default = _SUITES[name]
    tol = default if tol is None else tol
    return [Check(label, residual, tol) for label, residual in suite(rng).items()]


def run_suites(names, seed: int = 0, tol: float = None):
    """Run several suites; returns [(suite, [Check, ...]), ...] in order."""
    return [(name, run_suite(name, seed=seed, tol=tol)) for name in names]


def format_report(results) -> str:
    """Fixed-width text report; deterministic for a given seed and flags."""
    lines = []
    all_ok = True
    for suite, checks in results:
        for check in checks:
            status = "pass" if check.passed else "FAIL"
            all_ok = all_ok and check.passed
            lines.append(
                f"[{suite}] {check.name:<52s} {check.residual:11.3e}"
                f"  tol {check.tol:8.1e}  {status}"
            )
        n_pass = sum(1 for c in checks if c.passed)
        lines.append(f"[{suite}] {n_pass}/{len(checks)} checks passed")
    lines.append("verify: PASS" if all_ok else "verify: FAIL")
    return "\n".join(lines) + "\n"


def all_passed(results) -> bool:
    return all(check.passed for _, checks in results for check in checks)
