"""Output checks, each by a route independent of the code under test.

Every check returns None when the output is right and a one-line reason
when it is not.  The CLI checks parse what the command printed; the spectral
checks recompute the result from the raw input arrays with label-keyed
joins and vectorized numpy, using the library only for a mode's amplitude
spinor.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from inputs import ELECTRON_MASS

FINE_STRUCTURE = 1.0 / 137.035999
CHARGE = math.sqrt(4.0 * math.pi * FINE_STRUCTURE)
BOX = 2.0 * math.pi
FREQ_TOL = 1e-12

# Dirac representation, written out here rather than taken from paradirac.
_S = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_I2, _Z2 = np.eye(2), np.zeros((2, 2))
G0 = np.block([[_I2, _Z2], [_Z2, -_I2]]).astype(complex)
GAMMAS = np.stack([G0] + [np.block([[_Z2, s], [-s, _Z2]]) for s in _S])
G5 = 1j * GAMMAS[0] @ GAMMAS[1] @ GAMMAS[2] @ GAMMAS[3]


def slash(a):
    return -a[0] * GAMMAS[0] + a[1] * GAMMAS[1] + a[2] * GAMMAS[2] + a[3] * GAMMAS[3]


def frequency(p, branch):
    """Tau frequency branch * sign(p0) * m, with m from p0^2 - |p|^2."""
    return branch * math.copysign(1.0, p[0]) * math.sqrt(p[0] ** 2 - p[1:] @ p[1:])


def _close(got, want, rtol, scale=0.0):
    return abs(got - want) <= rtol * max(abs(want), scale)


# ---------------------------------------------------------------------------
# CLI outputs

def mott_reference(p_mag, kappa):
    """1 - beta^2 sin^2(kappa/2), written as (m^2 + p^2 cos^2(kappa/2)) / E^2."""
    m2 = ELECTRON_MASS**2
    return (m2 + (p_mag * np.cos(kappa / 2.0)) ** 2) / (m2 + p_mag**2)


def check_mott(stdout, meta, rtol=1e-9):
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["kappa_deg", "dcs", "ratio_to_rutherford"]:
        return "mott: bad header"
    grid = np.linspace(meta["first"], meta["last"], meta["count"])
    if len(rows) - 1 != grid.size:
        return f"mott: {len(rows) - 1} rows for {grid.size} angles"
    p_mag, z = meta["p_mag"], meta["Z"]
    energy = math.hypot(ELECTRON_MASS, p_mag)
    for degrees, (kappa_text, dcs_text, ratio_text) in zip(grid, rows[1:]):
        kappa = math.radians(degrees)
        ratio = mott_reference(p_mag, kappa)
        rutherford = (z * FINE_STRUCTURE * energy) ** 2 / (4.0 * p_mag**4 * math.sin(kappa / 2) ** 4)
        if abs(float(kappa_text) - degrees) > 1e-6:
            return f"mott: angle {kappa_text} for {degrees}"
        if not _close(float(ratio_text), ratio, rtol):
            return f"mott: ratio {ratio_text} vs {ratio:.12e} at p={p_mag:.6g} MeV, kappa={degrees:.4f}"
        if not _close(float(dcs_text), ratio * rutherford, rtol):
            return f"mott: dcs {dcs_text} vs {ratio * rutherford:.12e} at p={p_mag:.6g} MeV"
    return None


def check_uehling(stdout, meta, reference, rtol=1e-6):
    record = json.loads(stdout)
    n, l = {"1s": (1, 0), "2s": (2, 0), "2p": (2, 1)}[meta["state"]]
    want = reference[f"{meta['state']},Z={meta['Z']}"]
    if record.get("quantity") != f"uehling_shift_n{n}_l{l}_Z{meta['Z']:g}" or record.get("units") != "MHz":
        return f"uehling: bad record {record.get('quantity')!r}"
    if not _close(record["value"], want, rtol):
        return f"uehling: {record['value']!r} MHz vs reference {want!r}"
    return None


def check_g2(stdout, meta, rtol=1e-4):
    record = json.loads(stdout)
    want = meta["alpha"] / (2.0 * math.pi)
    if record.get("quantity") != "a_e" or not _close(record["value"], want, rtol):
        return f"g2: {record.get('value')!r} vs alpha/2pi = {want!r}"
    return None


def check_anomaly(stdout, meta, rtol=1e-12):
    record = json.loads(stdout)
    e_field, b_field = np.array(meta["E"]), np.array(meta["B"])
    scale = CHARGE**2 / (2.0 * math.pi**2)
    want = scale * float(e_field @ b_field)
    bound = scale * np.linalg.norm(e_field) * np.linalg.norm(b_field)
    if record.get("units") != "MeV^4" or not _close(record["value"], want, rtol, bound):
        return f"anomaly: {record.get('value')!r} vs e^2 E.B/(2 pi^2) = {want!r}"
    return None


def check_verify(stdout, returncode):
    lines = stdout.splitlines()
    if returncode != 0 or not lines or lines[-1] != "verify: PASS":
        return f"verify: exit {returncode}, last line {lines[-1] if lines else ''!r}"
    for line in lines[:-1]:
        if line.endswith("checks passed"):
            passed, total = line.split()[1].split("/")
            if passed != total:
                return f"verify: {line}"
        elif not line.endswith("  pass"):
            return f"verify: {line}"
    return None


def check_propagate_demo(stdout, meta):
    record = json.loads(stdout)
    want_sign = meta["which"] * math.copysign(1.0, meta["dtau"])
    survivors = record["survivors"]
    if record["modes_in"] != meta["modes"] or record["modes_out"] != len(survivors):
        return f"propagate-demo: modes {record['modes_in']} -> {record['modes_out']}"
    if record["kernel_conjugation_residual"] > 1e-10:
        return f"propagate-demo: conjugation residual {record['kernel_conjugation_residual']!r}"
    for item in survivors:
        p = np.array(item["p"])
        if item["branch"] * math.copysign(1.0, p[0]) != want_sign:
            return f"propagate-demo: survivor on branch {item['branch']} with p0 = {p[0]!r}"
        if not _close(item["frequency"], frequency(p, item["branch"]), 1e-9):
            return f"propagate-demo: frequency {item['frequency']!r}"
    return None


# ---------------------------------------------------------------------------
# spectral states

def label_key(p, branch, a):
    return (p.tobytes(), branch, a.tobytes())


def merged(raw):
    """[(coeff, p, branch, a)] after the merge a state performs: equal labels
    add their coefficients, first occurrence fixes the order, zeros drop."""
    acc = {}
    for coeff, (p, branch, a) in raw:
        key = label_key(p, branch, a)
        if key in acc:
            acc[key][0] += complex(coeff)
        else:
            acc[key] = [complex(coeff), p, branch, a]
    return [tuple(v) for v in acc.values() if v[0] != 0.0]


def _same_label(mode, p, branch, a):
    return mode.branch == branch and np.array_equal(mode.p, p) and np.array_equal(mode.a, a)


def check_terms(state, want, what="state"):
    """state.terms against [(coeff, p, branch, a)]."""
    if len(state.terms) != len(want):
        return f"{what}: {len(state.terms)} terms, expected {len(want)}"
    for (coeff, mode), (c, p, branch, a) in zip(state.terms, want):
        if not _same_label(mode, p, branch, a) or not _close(coeff, c, 1e-12, 1e-300):
            return f"{what}: term {c!r} at p={p} differs"
    return None


def inner_join(terms_a, terms_b):
    """sum conj(ca) cb branch a_a* . a_b over pairs with equal (p, branch)."""
    index = {}
    for c, p, branch, a in terms_b:
        index.setdefault((p.tobytes(), branch), []).append((c, a))
    total, scale = 0j, 0.0
    for ca, p, branch, aa in terms_a:
        for cb, ab in index.get((p.tobytes(), branch), ()):
            term = np.conj(ca) * cb * branch * np.vdot(aa, ab)
            total += term
            scale += abs(term)
    return total, scale


def check_inner(value, terms_a, terms_b):
    want, scale = inner_join(terms_a, terms_b)
    if not _close(value, want, 1e-9, scale):
        return f"inner_product: {value!r} vs label join {want!r}"
    return None


def evolve_factor(p, branch, dtau, which):
    """Survivor multiplier sgn * exp(i nu dtau), or 0 for an annihilated mode."""
    sgn = 1 if dtau > 0 else -1
    if branch * math.copysign(1.0, p[0]) != which * sgn:
        return 0.0
    return sgn * np.exp(1j * frequency(p, branch) * dtau)


def evolved_terms(terms, tau, tau_prime, which):
    """The survivors of free evolution with their advanced coefficients."""
    dtau = tau_prime - tau
    out = []
    for c, p, branch, a in terms:
        factor = evolve_factor(p, branch, dtau, which)
        if factor != 0.0:
            out.append((c * factor, p, branch, a))
    return out


_MAPS = {
    # name: (matrix, conjugate, flip energy and branch)
    "parity": (G0, False, False),
    "tpc": (-1j * G5, False, True),
    "charge_conjugate": (1j * GAMMAS[2], True, True),
}


def check_mapped(out, state, name):
    """Discrete symmetry image: momentum, branch and coefficient map by
    definition, and the image spinor is the matrix applied to the input."""
    matrix, conjugate, flip = _MAPS[name]
    if len(out.terms) != len(state.terms):
        return f"{name}: {len(out.terms)} terms from {len(state.terms)}"
    for (c_out, m_out), (c_in, m_in) in zip(out.terms, state.terms):
        q = -m_in.p if flip else np.array([m_in.p[0], *(-m_in.p[1:])])
        branch = -m_in.branch if flip else m_in.branch
        coeff = np.conj(c_in) if conjugate else c_in
        w_in = m_in.amplitude_spinor()
        w_want = matrix @ (w_in.conj() if conjugate else w_in)
        w_out = m_out.amplitude_spinor()
        if (m_out.branch != branch or not np.array_equal(m_out.p, q)
                or not _close(c_out, coeff, 1e-12, 1e-300)
                or np.abs(w_out - w_want).max() > 1e-9 * max(1.0, np.abs(w_want).max())):
            return f"{name}: image of the mode at p={m_in.p} differs"
    return None


def _current(spinors, coeffs, momenta, freqs, partner, points):
    """sum over pairs with equal total frequency of
    conj(c_k) c_l partner_kl wbar_k gamma^mu w_l exp(i (p_l - p_k).x) / L^4."""
    lowered = momenta * np.array([-1.0, 1.0, 1.0, 1.0])
    waves = np.exp(1j * points @ lowered.T)  # (points, terms)
    scale = np.maximum(1.0, np.maximum(np.abs(freqs)[:, None], np.abs(freqs)[None, :]))
    keep = np.abs(freqs[:, None] - freqs[None, :]) <= FREQ_TOL * scale
    weight = np.conj(coeffs)[:, None] * coeffs[None, :] * partner * keep / BOX**4
    bars = spinors.conj() @ G0
    sandwich = np.einsum("ki,mij,lj->mkl", bars, GAMMAS, spinors)
    return np.einsum("xk,kl,mkl,xl->xm", waves.conj(), weight, sandwich, waves)


def _differs(values, want):
    return values.shape != want.shape or np.abs(values - want.real).max() > 1e-9 * max(1.0, np.abs(want).max())


def check_current(values, state, points):
    modes = [m for _, m in state.terms]
    want = _current(
        np.array([m.amplitude_spinor() for m in modes]), np.array([c for c, _ in state.terms]),
        np.array([m.p for m in modes]), np.array([frequency(m.p, m.branch) for m in modes]), 1.0, points,
    )
    if _differs(values, want):
        return "concatenated_current: differs from the pair sum"
    return None


# ---------------------------------------------------------------------------
# two-particle states

def merged_pairs(raw):
    acc = {}
    for coeff, x, y in raw:
        key = (label_key(*x), label_key(*y))
        if key in acc:
            acc[key][0] += complex(coeff)
        else:
            acc[key] = [complex(coeff), x, y]
    return [tuple(v) for v in acc.values() if v[0] != 0.0]


def check_two_terms(state, want, what="TwoParticleState", exchange=None):
    if exchange is not None and state.exchange != exchange:
        return f"{what}: exchange tag {state.exchange!r}"
    if len(state.terms) != len(want):
        return f"{what}: {len(state.terms)} terms, expected {len(want)}"
    for (coeff, mx, my), (c, x, y) in zip(state.terms, want):
        if not (_same_label(mx, *x) and _same_label(my, *y) and _close(coeff, c, 1e-12, 1e-300)):
            return f"{what}: term {c!r} differs"
    return None


def _overlap(x, y):
    """Box overlap of two raw labels: branch a_x* . a_y on equal (p, branch)."""
    if x[1] != y[1] or not np.array_equal(x[0], y[0]):
        return 0j
    return x[1] * np.vdot(x[2], y[2])


def check_two_inner(value, terms_a, terms_b):
    index = {}
    for c, x, y in terms_b:
        index.setdefault((x[0].tobytes(), x[1], y[0].tobytes(), y[1]), []).append((c, x, y))
    want, scale = 0j, 0.0
    for ca, xa, ya in terms_a:
        for cb, xb, yb in index.get((xa[0].tobytes(), xa[1], ya[0].tobytes(), ya[1]), ()):
            term = np.conj(ca) * cb * _overlap(xa, xb) * _overlap(ya, yb)
            want += term
            scale += abs(term)
    if not _close(value, want, 1e-9, scale):
        return f"two_inner_product: {value!r} vs label join {want!r}"
    return None


def check_two_evolved(out, terms, tau, tau_prime, which):
    dtau = tau_prime - tau
    want = []
    for c, x, y in terms:
        factor = evolve_factor(x[0], x[1], dtau, which) * evolve_factor(y[0], y[1], dtau, which)
        if factor != 0.0:
            want.append((c * factor, x, y))
    return check_two_terms(out, want, "two_evolve")


def check_two_currents(currents, state, points):
    """Marginal currents: the partner factor contributes its box overlap."""
    modes = [(mx, my) for _, mx, my in state.terms]
    coeffs = np.array([c for c, _, _ in state.terms])
    for particle, field in ((0, currents[0]), (1, currents[1])):
        own = [pair[particle] for pair in modes]
        other = [pair[1 - particle] for pair in modes]
        ids = {}
        labels = np.array([ids.setdefault((m.p.tobytes(), m.branch), len(ids)) for m in other])
        spins = np.array([m.a for m in other])
        branches = np.array([m.branch for m in other])
        partner = ((labels[:, None] == labels[None, :]) * branches[:, None]
                   * (spins.conj() @ spins.T))
        freqs = np.array([frequency(a.p, a.branch) + frequency(b.p, b.branch) for a, b in zip(own, other)])
        want = _current(np.array([m.amplitude_spinor() for m in own]), coeffs,
                        np.array([m.p for m in own]), freqs, partner, points)
        if _differs(field.values, want):
            return f"two_currents: J{particle + 1} differs from the pair sum"
    return None


def coulomb(dp, z):
    return np.array([-z * CHARGE / (dp[1:] @ dp[1:]), 0.0, 0.0, 0.0])


def _born(m_in, m_out, z, atol=1e-9):
    nu_in, nu_out = frequency(m_in.p, m_in.branch), frequency(m_out.p, m_out.branch)
    dp = m_out.p - m_in.p
    if abs(nu_out - nu_in) > atol * max(1.0, abs(nu_in)) or abs(dp[0]) > atol:
        return 0j
    return m_out.amplitude_spinor().conj() @ G0 @ slash(coulomb(dp, z)) @ m_in.amplitude_spinor()


def check_s2(value, state_i, state_f, z1, z2):
    """<f|i> plus one Born sandwich per term pair with a matching partner."""
    def overlap(a, b):
        return _overlap((a.p, a.branch, a.a), (b.p, b.branch, b.a))

    born = 1j * CHARGE / BOX**3
    want, scale = 0j, 0.0
    for cf, fx, fy in state_f.terms:
        for ci, ix, iy in state_i.terms:
            ov_x, ov_y = overlap(fx, ix), overlap(fy, iy)
            if ov_x == 0.0 and ov_y == 0.0:
                continue
            term = np.conj(cf) * ci * ov_x * ov_y
            if ov_y != 0.0:
                term += np.conj(cf) * ci * born * _born(ix, fx, z1) * ov_y
            if ov_x != 0.0:
                term += np.conj(cf) * ci * ov_x * born * _born(iy, fy, z2)
            want += term
            scale += abs(term)
    if not _close(value.value, want, 1e-9, scale):
        return f"s2_first_order: {value.value!r} vs {want!r}"
    return None


def check_moller(out, incident, momenta, z):
    """Incident term, then one u-type term per shell momentum q whose spinor
    is Lambda_u(q) slash(A(q - p)) w_in, Lambda_u(q) = (m - slash q) / 2m."""
    if len(out.terms) != 1 + len(momenta):
        return f"moller_first_order: {len(out.terms)} terms for {len(momenta)} momenta"
    c0, m0 = out.terms[0]
    if c0 != 1.0 or not _same_label(m0, *incident):
        return "moller_first_order: incident term missing"
    p_in = incident[0]
    w_in = m0.amplitude_spinor()
    mass = math.sqrt(p_in[0] ** 2 - p_in[1:] @ p_in[1:])
    prefactor = 1j * CHARGE / BOX**3
    for (coeff, mode), q in zip(out.terms[1:], momenta):
        projector = (mass * np.eye(4) - slash(q)) / (2.0 * mass)
        w_want = projector @ slash(coulomb(q - p_in, z)) @ w_in
        if (mode.branch != 1 or not np.array_equal(mode.p, q) or not _close(coeff, prefactor, 1e-12)
                or np.abs(mode.amplitude_spinor() - w_want).max() > 1e-9 * max(1e-300, np.abs(w_want).max())):
            return f"moller_first_order: outgoing term at q={q} differs"
    return None
