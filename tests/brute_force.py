"""Brute-force references for the array-backed states code.

Every loop here visits all term pairs and compares labels with
np.array_equal, as the all-pairs implementation did; none of them calls the
keyed merge, the key index or the batched pair kernel it is compared with.
The per-Mode loops for the discrete symmetries, free evolution and the
Moller nodes work one Mode at a time, as the code did before the term
container held arrays; none of them reads a container's arrays.  The free
influence kernel is the loop over its support, one momentum at a time.
The label pools hold momenta and spins with zero components, so that their
sign-flipped variants (-0.0) test the key folding.
"""

import numpy as np
from hypothesis import strategies as st

from paradirac.algebra import (
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
from paradirac.spinors import branch_block, decompose_in_block, lambda_u, lambda_v
from paradirac.states import Mode

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


def assert_same_terms(got, want):
    assert len(got) == len(want)
    for term, ref in zip(got, want):
        assert term[0] == ref[0]
        assert all(m is r for m, r in zip(term[1:], ref[1:]))


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
        for m, r in zip(term[1:], ref[1:]):
            assert m.branch == r.branch
            assert m.p.tobytes() == r.p.tobytes() and m.a.tobytes() == r.a.tobytes()
            assert m.mass.hex() == r.mass.hex()


# name: (matrix, conjugate, flip energy and branch); spatial momenta always flip
SYMMETRIES = {
    "parity": (GAMMA0, False, False),
    "time_reverse": (1j * GAMMA1 @ GAMMA3, True, False),
    "charge_conjugate": (1j * GAMMA2, True, True),
    "tpc": (-1j * GAMMA5, False, True),
}


def transform_mode(mode, matrix, conjugate, flip):
    """Image of one mode: the matrix on its amplitude spinor, re-expressed in
    the block basis of the image momentum."""
    w = mode.amplitude_spinor()
    if conjugate:
        w = w.conj()
    w = matrix @ w
    q = mode.p.copy()
    q[1:] = -q[1:]
    if flip:
        q[0] = -q[0]
    branch = -mode.branch if flip else mode.branch
    return Mode(q, branch, decompose_in_block(q, branch, w))


def symmetry_loop(terms, name):
    matrix, conjugate, flip = SYMMETRIES[name]
    return scan_merge([(np.conj(c) if conjugate else c, transform_mode(m, matrix, conjugate, flip))
                       for c, m in terms])


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


def kernel_loop(which, momenta, dx, dtau, box_edge=TWO_PI):
    """kernel_matrix as the sum over its support, one momentum at a time."""
    dx = np.asarray(dx, dtype=float)
    out = np.zeros((4, 4), dtype=complex)
    for p in momenta:
        out += kernel_term(which, p, dx, dtau)
    return (1 if dtau > 0 else -1) * 1j / box_edge**4 * out
