"""Brute-force references for the array-backed states code.

Every loop here visits all term pairs and compares labels with
np.array_equal, as the all-pairs implementation did; none of them calls the
keyed merge, the overlap join or the batched kernels it is compared with.
The per-Mode loops for the discrete symmetries, free evolution, the Born
sandwiches and the Moller nodes work one Mode at a time, as the code did
before the term container held arrays; none of them reads a container's
arrays.  The Bethe-Salpeter Born step loops over the pair basis and
classifies each Mode.  A one- or two-particle value sums each term's plane
waves one event at a time, and the exchange check calls the two-particle
one once per event and order.  The symmetry loop solves each map's
defining equation gamma @ block(p) @ a = block(q) @ a' in exact Fraction
arithmetic, not through the 2x2 spin matrices the maps use, so the exact
images it gives must equal the library's bit for bit.  The free influence
kernel is the loop over its support, one momentum at a time.  The samplers
draw one mode at a time with scalar numpy calls and build a Mode per draw.
The label pools hold momenta and spins with zero components, so that their
sign-flipped variants (-0.0) test the key folding.
"""

from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from paradirac.algebra import (
    ATOL_ALGEBRA,
    ATOL_SHELL,
    GAMMA0,
    GAMMA1,
    GAMMA2,
    GAMMA3,
    GAMMA5,
    TWO_PI,
    bar,
    energy_sign,
    four_vector,
    gamma,
    mass_of,
    minkowski_dot,
    slash,
)
from paradirac.errors import OnMassShell
from paradirac.spinors import branch_block, lambda_u, lambda_v
from paradirac.states import Mode, SpectralState, Subspace, _plane_waves, classify_subspace

# on-shell momenta with zero components (masses 1 and 2, both energy signs),
# so that sign flips of zeros occur; the last two share an energy shell
LABEL_MOMENTA = (
    four_vector(np.sqrt(2.0), 1.0, 0.0, 0.0),
    four_vector(-np.sqrt(1.25), 0.0, 0.5, 0.0),
    four_vector(1.0, 0.0, 0.0, 0.0),
    four_vector(np.sqrt(5.0), 0.0, 0.0, -1.0),
    four_vector(np.sqrt(5.0), 0.0, 1.0, 0.0),
)
LABEL_SPINS = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0j]),
    np.array([0.6, 0.8j]),
    np.array([1.0 + 1.0j, -0.5]),
)
COEFFS = st.sampled_from((1.0, -1.0, 0.5, -0.5, 1.0j, -1.0j, 0.25 - 2.0j, 0.0))
LABELS = st.tuples(
    st.integers(0, len(LABEL_MOMENTA) - 1),
    st.sampled_from((1, -1)),
    st.integers(0, len(LABEL_SPINS) - 1),
    st.booleans(),
)


def signed_zeros(v, negative):
    """Copy of v whose zero components carry the sign bit when negative."""
    v = np.array(v)
    if negative:
        v.real[v.real == 0.0] = -0.0
        if np.iscomplexobj(v):
            v.imag[v.imag == 0.0] = -0.0
    return v


def label_mode(label, momenta=LABEL_MOMENTA, spins=LABEL_SPINS):
    ip, branch, ia, negative = label
    return Mode(signed_zeros(momenta[ip], negative), branch, signed_zeros(spins[ia], negative))


def build_terms(raw):
    return tuple((coeff, label_mode(label)) for coeff, label in raw)


def equal_labels(m1, m2):
    return m1.branch == m2.branch and np.array_equal(m1.p, m2.p) and np.array_equal(m1.a, m2.a)


def scan_merge(terms):
    """Linear-scan merge of (coeff, Mode, ...) terms."""
    merged = []
    for coeff, *modes in terms:
        for entry in merged:
            if all(equal_labels(a, b) for a, b in zip(entry[1:], modes)):
                entry[0] += complex(coeff)
                break
        else:
            merged.append([complex(coeff), *modes])
    return [entry for entry in merged if entry[0] != 0.0]


def label_bits(mode):
    """The exact bits of a Mode's labels: branch, p, a and mass."""
    return mode.branch, mode.p.tobytes(), mode.a.tobytes(), mode.mass.hex()


def assert_same_terms(got, want):
    """Equal coefficients, and labels equal bit for bit, in order."""
    assert len(got) == len(want)
    for term, ref in zip(got, want):
        assert term[0] == ref[0]
        assert [label_bits(m) for m in term[1:]] == [label_bits(r) for r in ref[1:]]


def all_pairs_inner(terms_a, terms_b):
    total = 0.0j
    for ca, ma in terms_a:
        for cb, mb in terms_b:
            if ma.branch == mb.branch and np.array_equal(ma.p, mb.p):
                total += np.conj(ca) * cb * ma.branch * np.vdot(ma.a, mb.a)
    return total


def pair_loop_current(weighted_pairs, points, box_edge=TWO_PI):
    """sum over (weight, mode_k, mode_l) of weight bar(w_k) gamma^mu w_l
    exp(i (p_l - p_k).x) / L^4, one pair at a time."""
    out = np.zeros((len(points), 4), dtype=complex)
    for weight, mk, ml in weighted_pairs:
        wk, wl = mk.amplitude_spinor(), ml.amplitude_spinor()
        sandwich = np.array([wk.conj() @ GAMMA0 @ gamma(mu) @ wl for mu in range(4)])
        dp = ml.p - mk.p
        phase = np.exp(1j * (points @ np.array([-dp[0], dp[1], dp[2], dp[3]])))
        out += weight / box_edge**4 * np.outer(phase, sandwich)
    return out


def frequencies_match(nu_k, nu_l, tol=1e-12):
    return abs(nu_k - nu_l) <= tol * max(1.0, abs(nu_k), abs(nu_l))


def overlap(m1, m2):
    """Box overlap of two modes: branch a1*.a2 on equal (p, branch), else 0."""
    if m1.branch != m2.branch or not np.array_equal(m1.p, m2.p):
        return 0.0j
    return complex(m1.branch * np.vdot(m1.a, m2.a))


def born_sandwich(mode_in, mode_out, pot):
    """bar(w_out) slash(A~(Dp)) w_in for one pair of Modes, zero unless the
    frequency and, for static potentials, the energy are conserved at
    ATOL_SHELL."""
    if abs(mode_out.frequency - mode_in.frequency) > ATOL_SHELL * max(1.0, abs(mode_in.frequency)):
        return 0.0j
    dp = mode_out.p - mode_in.p
    if pot.static and abs(dp[0]) > ATOL_SHELL:
        return 0.0j
    a_tilde = pot.fourier(dp)
    if not np.any(a_tilde):
        return 0.0j
    return complex(bar(mode_out.amplitude_spinor()) @ slash(a_tilde) @ mode_in.amplitude_spinor())


def born_step_loop(coeffs, pair_basis, v_matrix, mass):
    """bs_born_step as a loop over the pairs: V Psi, then -2/(nu - mass) times
    its entry on each pair of two S+ modes (nu the total tau frequency), a
    pole there raising OnMassShell, and zero on every other pair."""
    driven = np.asarray(v_matrix, dtype=complex) @ np.asarray(coeffs, dtype=complex)
    out = np.zeros(len(pair_basis), dtype=complex)
    for k, (mx, my) in enumerate(pair_basis):
        if classify_subspace(mx) is not Subspace.S_PLUS or classify_subspace(my) is not Subspace.S_PLUS:
            continue
        nu = mx.frequency + my.frequency
        if abs(nu - mass) < ATOL_ALGEBRA * max(1.0, abs(mass)):
            raise OnMassShell("combined kernel pole at the requested mass")
        out[k] = -2.0 / (nu - mass) * driven[k]
    return out


def value_loop(state, x, tau):
    """A one-particle state's value at one event, one Mode at a time: each
    term's plane wave at x summed from zero in term order."""
    total = np.zeros(4, dtype=complex)
    for c, mode in state.terms:
        total = total + c * _plane_waves(mode.p, mode.frequency, mode.amplitude_spinor(), x, tau, state.box_edge)
    return total


def two_value_loop(state, x, y, tau):
    """A two-particle state's value at one event, one Mode at a time: each
    term's plane waves at x and y, their outer product summed from zero in
    term order."""
    total = np.zeros((4, 4), dtype=complex)
    for c, mx, my in state.terms:
        f1 = _plane_waves(mx.p, mx.frequency, mx.amplitude_spinor(), x, tau, state.box_edge)
        f2 = _plane_waves(my.p, my.frequency, my.amplitude_spinor(), y, tau, state.box_edge)
        total = total + c * np.outer(f1, f2)
    return total


def exchange_loop(state):
    """exchange_residual as the per-event loop: value(y, x, tau).T minus the
    exchange sign times value(x, y, tau), one two_value_loop per event and
    order, at the 4 events (x, y, tau) of default_rng(0) drawn one at a time."""
    if state.exchange == "none":
        return 0.0
    sign = -1.0 if state.exchange == "fermionic" else 1.0
    rng = np.random.default_rng(0)
    events = [(rng.normal(size=4), rng.normal(size=4), rng.normal()) for _ in range(4)]
    diffs = [two_value_loop(state, y, x, tau).T - sign * two_value_loop(state, x, y, tau)
             for x, y, tau in events]
    return float(np.abs(diffs).max(initial=0.0))


def all_pairs_two_inner(terms_a, terms_b):
    total = 0.0j
    for ca, ax, ay in terms_a:
        for cb, bx, by in terms_b:
            ov = overlap(ax, bx) * overlap(ay, by)
            if ov != 0.0:
                total += np.conj(ca) * cb * ov
    return total


def marginal_pair_loop(state, particle):
    """(weight, own mode k, own mode l) over all term pairs whose partners
    overlap and whose total tau frequencies match."""
    out = []
    for ck, *mk in state.terms:
        for cl, *ml in state.terms:
            ak, bk = mk[particle - 1], mk[2 - particle]
            al, bl = ml[particle - 1], ml[2 - particle]
            partner = overlap(bk, bl)
            if partner != 0.0 and frequencies_match(ak.frequency + bk.frequency,
                                                    al.frequency + bl.frequency):
                out.append((np.conj(ck) * cl * partner, ak, al))
    return out


def bits(z):
    """The exact bits of a complex number, signs of zeros included."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def assert_same_bits(got, want):
    """Terms equal bit for bit: coefficients, p, branch, a and order."""
    assert len(got) == len(want)
    for term, ref in zip(got, want):
        assert bits(term[0]) == bits(ref[0])
        assert [label_bits(m) for m in term[1:]] == [label_bits(r) for r in ref[1:]]


# name: (matrix, conjugate, flip energy and branch); spatial momenta always flip
SYMMETRIES = {
    "parity": (GAMMA0, False, False),
    "time_reverse": (1j * GAMMA1 @ GAMMA3, True, False),
    "charge_conjugate": (1j * GAMMA2, True, True),
    "tpc": (-1j * GAMMA5, False, True),
}


def exact(z):
    """A complex number as the pair of Fractions of its real and imaginary parts."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def exact_matvec(matrix, v):
    """matrix @ v in exact arithmetic, on complex entries as (re, im) pairs."""
    return [(sum(x * c - y * d for (x, y), (c, d) in zip(row, v)),
             sum(x * d + y * c for (x, y), (c, d) in zip(row, v))) for row in matrix]


def exact_block(p, mass, upper):
    """The block [(m+E)I; phi p.sigma] (upper) or [phi p.sigma; (m+E)I] of a
    float momentum and mass, in exact arithmetic, without its factor K."""
    t, x, y, z = map(Fraction, p)
    phi = 1 if t > 0 else -1
    diagonal = [[(mass + abs(t), 0), (0, 0)], [(0, 0), (mass + abs(t), 0)]]
    cross = [[(phi * z, 0), (phi * x, -phi * y)], [(phi * x, phi * y), (-phi * z, 0)]]
    return diagonal + cross if upper else cross + diagonal


def transform_mode(mode, matrix, conjugate, flip):
    """Image of one mode, solved in Fraction arithmetic from
    matrix @ block(p) @ a = block(q) @ a' (a* on the left for the antilinear
    maps).  p and q share m and E, so K cancels.  a' is read from the two rows
    where block(q) is (m+E)I, and all four rows must then hold exactly."""
    q = mode.p.copy()
    q[1:] = -q[1:]
    if flip:
        q[0] = -q[0]
    branch = -mode.branch if flip else mode.branch
    mass = Fraction(mode.mass)
    w = exact_matvec(exact_block(mode.p, mass, mode.branch == 1), list(map(exact, mode.a)))
    if conjugate:
        w = [(x, -y) for x, y in w]
    w = exact_matvec([list(map(exact, row)) for row in matrix], w)
    scale = mass + abs(Fraction(q[0]))
    a = [(x / scale, y / scale) for x, y in (w[:2] if branch == 1 else w[2:])]
    assert exact_matvec(exact_block(q, mass, branch == 1), a) == w
    image = [complex(float(x), float(y)) for x, y in a]
    assert list(map(exact, image)) == a  # each coefficient is a double, met without rounding
    return Mode(q, branch, image)


def symmetry_loop(terms, name):
    """The map on (coeff, Mode, ...) terms of any width, one factor at a time."""
    matrix, conjugate, flip = SYMMETRIES[name]
    return scan_merge([(np.conj(c) if conjugate else c,
                        *(transform_mode(m, matrix, conjugate, flip) for m in modes)) for c, *modes in terms])


def evolve_loop(terms, tau, tau_prime, which):
    """Free evolution term by term and factor by factor: a factor survives
    iff branch * phi = which * sign(dtau) and multiplies the coefficient by
    (-i) * i sign(dtau) exp(i nu dtau)."""
    dtau = tau_prime - tau
    sgn = 1 if dtau > 0 else -1
    out = []
    for coeff, *modes in terms:
        for mode in modes:
            if mode.branch * mode.phi != which * sgn:
                break
            coeff = coeff * (-1j) * (1j * sgn * np.exp(1j * mode.frequency * dtau))
        else:
            out.append((coeff, *modes))
    return scan_merge(out)


def moller_loop(incident, potential, out_momenta, charge, box_edge=TWO_PI):
    """The incident term and one Born node per outgoing momentum, one q at a
    time; an incident mode in S- gives no terms."""
    if incident.branch * incident.phi < 0:
        return []
    w_in = incident.amplitude_spinor()
    terms = [(1.0 + 0.0j, incident)]
    for q in np.atleast_2d(np.asarray(out_momenta, dtype=float)):
        m_out = mass_of(q)
        if abs(m_out - incident.mass) > ATOL_SHELL * max(1.0, incident.mass):
            continue
        dp = q - incident.p
        if potential.static and abs(dp[0]) > ATOL_SHELL:
            continue
        a_tilde = potential.fourier(dp)
        if not np.any(a_tilde):
            continue
        branch = 1 if energy_sign(q) > 0 else -1
        a_out = bar(branch_block(q, branch)) @ (slash(a_tilde) @ w_in)
        if np.any(a_out):
            terms.append((branch * (1j * charge / box_edge**3), Mode(q, branch, a_out)))
    return scan_merge(terms)


def kernel_term(which, p, dx, dtau):
    """One support momentum's unscaled kernel term: its u-type projector and
    the + mass phase where phi_p = which*sign(dtau), else the v-type pair."""
    p = np.asarray(p, dtype=float)
    phi = energy_sign(p)
    m = mass_of(p)
    space_phase = minkowski_dot(p, dx)
    if phi == which * (1 if dtau > 0 else -1):
        return lambda_u(p) * np.exp(1j * (space_phase + phi * m * dtau))
    return lambda_v(p) * np.exp(1j * (space_phase - phi * m * dtau))


def kernel_loop(which, momenta, dx, dtau):
    """The position-space kernel summed over a support, one momentum at a
    time; a one-momentum support gives that momentum's propagate._kernels."""
    dx = np.asarray(dx, dtype=float)
    out = np.zeros((4, 4), dtype=complex)
    for p in momenta:
        out += kernel_term(which, p, dx, dtau)
    return (1 if dtau > 0 else -1) * 1j / TWO_PI**4 * out


def sampled_momentum(rng, mass, phi, p_scale):
    """random_timelike_momentum, one scalar draw and one four-vector."""
    if phi is None:
        phi = 1 if rng.integers(0, 2) == 0 else -1
    pvec = rng.normal(scale=p_scale, size=3)
    return four_vector(phi * np.sqrt(mass**2 + pvec @ pvec), *pvec)


def sampled_spins(rng):
    """random_spin_coefficients, its real and imaginary parts drawn apart."""
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    return a / np.linalg.norm(a)


def sampled_mode(rng, mass, branch, phi, p_scale):
    """random_mode: the branch draw, then a momentum and spins, as one Mode."""
    if branch is None:
        branch = 1 if rng.integers(0, 2) == 0 else -1
    return Mode(sampled_momentum(rng, mass, phi, p_scale), branch, sampled_spins(rng))


def sampled_state(rng, n_modes, mass, subspace, p_scale):
    """random_state as a loop of sampled_mode plus a coefficient per mode,
    built from the (coeff, Mode) terms."""
    terms = []
    for _ in range(n_modes):
        branch = phi = None
        if subspace is not None:
            phi = 1 if rng.integers(0, 2) == 0 else -1
            branch = phi if subspace is Subspace.S_PLUS else -phi
        mode = sampled_mode(rng, mass, branch, phi, p_scale)
        terms.append((rng.normal() + 1j * rng.normal(), mode))
    return SpectralState(tuple(terms))
