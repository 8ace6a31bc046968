"""Two-particle tensor-product states, their currents, evolution and scattering.

States live in the tensor product of two single-particle mode spaces over a
common quantization box, with optional fermionic or bosonic exchange
symmetry.  Free evolution factorizes (each tensor factor evolves under its
own influence function), so unentangled products stay unentangled; currents
marginalize the partner factor through the box mode overlap; the first-order
two-particle S-matrix is a sum of one-particle Born sandwiches weighted by
partner overlaps.

The wavefunction value is the 4x4 outer product psi_1(x) (x) psi_2(y); under
fermionic exchange value(y, x)^T = -value(x, y), under bosonic exchange the
sign is +.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import (
    ATOL_ALGEBRA,
    ATOL_SHELL,
    ELEMENTARY_CHARGE,
    GAMMA0,
    GAMMA_STACK,
    TWO_PI,
    bar,
    minkowski_dot,
    slash,
)
from .errors import (
    BoxMismatch,
    GridIncompatible,
    OnLightCone,
    OnMassShell,
    SubspaceViolation,
)
from .propagate import _kernels, _max_residual, free_evolve
from .scattering import ExternalPotential, ReducedAmplitude
from .states import (
    Mode,
    Pairs,
    Subspace,
    TermContainer,
    _divergence_fd,
    classify_subspace,
    key_index,
    mode_from_record,
    mode_overlap,
    mode_to_record,
    pair_current,
    plane_wave_value,
)

_EXCHANGE_TAGS = ("none", "fermionic", "bosonic")


class TwoParticleState(TermContainer):
    """Finite superposition sum_k c_k mode_xk (x) mode_yk over one box; the
    terms are a TermContainer of width 2 and merge as in SpectralState,
    keyed on both labels."""

    width = 2

    def __init__(self, terms, exchange="none", box_edge=TWO_PI):
        if exchange not in _EXCHANGE_TAGS:
            raise ValueError(f"exchange must be one of {_EXCHANGE_TAGS}")
        self._load(terms, box_edge, exchange=exchange)

    def value(self, x, y, tau):
        """4x4 outer-product wavefunction, first index particle 1."""
        out = np.zeros((4, 4), dtype=complex)
        for coeff, mx, my in self.terms:
            f1 = plane_wave_value(mx, x, tau, self.box_edge)
            f2 = plane_wave_value(my, y, tau, self.box_edge)
            out += coeff * np.outer(f1, f2)
        return out


def antisymmetrize(psi: Mode, chi: Mode, box_edge: float = TWO_PI) -> TwoParticleState:
    """(psi (x) chi - chi (x) psi) / sqrt(2), exchange-antisymmetric.

    Equal modes annihilate each other: exclusion is realized as the exact
    empty state, not an exception.
    """
    rt = 1.0 / np.sqrt(2.0)
    return TwoParticleState(((rt, psi, chi), (-rt, chi, psi)), "fermionic", box_edge)


def symmetrize(phi: Mode, xi: Mode, box_edge: float = TWO_PI) -> TwoParticleState:
    """(phi (x) xi + xi (x) phi) / sqrt(2), exchange-symmetric."""
    rt = 1.0 / np.sqrt(2.0)
    return TwoParticleState(((rt, phi, xi), (rt, xi, phi)), "bosonic", box_edge)


def permute_labels(state: TwoParticleState) -> TwoParticleState:
    """Swap the tensor factors of every term."""
    return state._subset((slice(None), slice(None, None, -1)), state.coeff)


def exchange_residual(state: TwoParticleState) -> float:
    """Max deviation of value(y,x)^T from -+ value(x,y) at 4 seeded random events.

    Zero for correctly tagged fermionic/bosonic states; meaningless for
    exchange='none' (returns 0.0 without sampling).
    """
    if state.exchange == "none":
        return 0.0
    sign = -1.0 if state.exchange == "fermionic" else 1.0
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(4):
        x, y = rng.normal(size=4), rng.normal(size=4)
        tau = rng.normal()
        resid = np.abs(state.value(y, x, tau).T - sign * state.value(x, y, tau)).max()
        worst = max(worst, float(resid))
    return worst


def _pair_keys(state: TwoParticleState):
    """(x, y) overlap keys of the terms, in row order."""
    return list(zip(state.overlap_keys(0), state.overlap_keys(1)))


def two_inner_product(state_a: TwoParticleState, state_b: TwoParticleState) -> complex:
    """Tensor inner product: partner overlaps multiply per term pair.

    A join on the (x, y) overlap keys, in the order of the all-pairs loop.
    """
    if state_a.box_edge != state_b.box_edge:
        raise BoxMismatch("states quantized in different boxes")
    index = key_index(_pair_keys(state_b))
    coeffs_a, coeffs_b = state_a.coeff.tolist(), state_b.coeff.tolist()
    total = 0.0j
    for i, key in enumerate(_pair_keys(state_a)):
        for j in index.get(key, ()):
            ov = (mode_overlap(state_a.label(i, 0), state_b.label(j, 0))
                  * mode_overlap(state_a.label(i, 1), state_b.label(j, 1)))
            if ov != 0.0:
                total += np.conj(coeffs_a[i]) * coeffs_b[j] * ov
    return total


def two_evolve(state: TwoParticleState, tau: float, tau_prime: float, which: int) -> TwoParticleState:
    """Factorized free evolution: each tensor factor under its own kernel.

    Both factors filter on the same (which, sign dtau) rule, so the two step
    signs square away and survivors pick up exp[i (nu_1 + nu_2) dtau].
    Exchange symmetry is preserved because the operator is symmetric under
    the factor swap.
    """
    return free_evolve(state, tau, tau_prime, which)


# ---------------------------------------------------------------------------
# marginalized currents

def _marginal_pairs(state: TwoParticleState, particle: int) -> Pairs:
    """Pairs (k, l) surviving tau concatenation and marginalization of the
    partner factor, found by a join on the partner's overlap key."""
    box4 = state.box_edge**4
    own, other = particle - 1, 2 - particle
    coeffs = state.coeff.tolist()
    nu = state.frequency.sum(axis=1).tolist()
    keys = state.overlap_keys(other)
    partners = [state.label(k, other) for k in range(len(keys))]
    index = key_index(keys)
    ks, ls, weights = [], [], []
    for k, key in enumerate(keys):
        for l in index[key]:
            partner = mode_overlap(partners[k], partners[l])
            if partner == 0.0 or abs(nu[k] - nu[l]) > ATOL_ALGEBRA * max(1.0, abs(nu[k]), abs(nu[l])):
                continue
            ks.append(k)
            ls.append(l)
            weights.append(np.conj(coeffs[k]) * coeffs[l] * partner / box4)
    return Pairs(np.array(ks, dtype=int), np.array(ls, dtype=int),
                 np.array(weights, dtype=complex), state.spinors()[:, own], state.p[:, own])


def two_currents(state: TwoParticleState, points):
    """Marginal currents (J1, J2): tau concatenated, partner integrated out.

    For a simple product each reduces to the single-particle concatenated
    current of its own factor times the partner's norm; for exchange-
    symmetric states both are invariant under permuting the state labels.
    """
    j1 = pair_current(_marginal_pairs(state, 1), points)
    j2 = pair_current(_marginal_pairs(state, 2), points)
    return j1, j2


def two_current_divergence_fd(state: TwoParticleState, points, particle: int = 1,
                              step: float = 1e-3):
    """4th-order central-difference divergence of one marginal current."""
    pairs = _marginal_pairs(state, particle)
    return _divergence_fd(lambda x: pair_current(pairs, x).values, points, step)


# ---------------------------------------------------------------------------
# first-order two-particle S-matrix

def _require_s_plus(state: TwoParticleState, label: str):
    if not (state.branch * state.phi > 0).all():
        raise SubspaceViolation(f"{label} state leaves the forward subspace")


def _born_sandwich(mode_in: Mode, mode_out: Mode, pot: ExternalPotential) -> complex:
    """bar(w_out) slash(A~(Dp)) w_in with the conservation deltas resolved.

    Frequency (hence mass) conservation and, for static potentials, energy
    conservation are enforced as exact zeros at ATOL_SHELL.  Projection onto
    a definite final mode cancels the branch signs, so one formula covers u
    and v type.
    """
    if abs(mode_out.frequency - mode_in.frequency) > ATOL_SHELL * max(1.0, abs(mode_in.frequency)):
        return 0.0j
    dp = mode_out.p - mode_in.p
    if pot.static and abs(dp[0]) > ATOL_SHELL:
        return 0.0j
    a_tilde = pot.fourier(dp)
    if not np.any(a_tilde):
        return 0.0j
    return complex(bar(mode_out.amplitude_spinor()) @ slash(a_tilde) @ mode_in.amplitude_spinor())


def s2_first_order(
    state_i: TwoParticleState,
    state_f: TwoParticleState,
    pot_pair,
    charges=(ELEMENTARY_CHARGE, ELEMENTARY_CHARGE),
) -> ReducedAmplitude:
    """S_fi through first order: free overlap plus one-potential Born terms.

    value = <f|i> + sum over term pairs of
            (i e1 / L^3) B(x_i -> x_f; A1) <y_f|y_i>
          + (i e2 / L^3) <x_f|x_i> B(y_i -> y_f; A2),

    with B the reduced sandwich of _born_sandwich.  The delta factors
    (total frequency, and energy for static potentials) are resolved inside
    B at ATOL_SHELL; their squared scales are recorded symbolically.  Both
    states must lie in the forward subspace tensor square.  The term pairs
    are joined on the x and y overlap keys and met in the order of the
    all-pairs loop.
    """
    if state_i.box_edge != state_f.box_edge:
        raise BoxMismatch("states quantized in different boxes")
    _require_s_plus(state_i, "incident")
    _require_s_plus(state_f, "final")
    pot1, pot2 = pot_pair
    e1, e2 = charges
    box3 = state_i.box_edge**3

    value = two_inner_product(state_f, state_i)
    terms_i = state_i.terms
    by_x = key_index(state_i.overlap_keys(0))
    by_y = key_index(state_i.overlap_keys(1))
    for (cf, fx, fy), (key_x, key_y) in zip(state_f.terms, _pair_keys(state_f)):
        matched = {*by_x.get(key_x, ()), *by_y.get(key_y, ())}
        for j in sorted(matched):
            ci, ix, iy = terms_i[j]
            weight = np.conj(cf) * ci
            ov_y = mode_overlap(fy, iy)
            if ov_y != 0.0:
                value += weight * (1j * e1 / box3) * _born_sandwich(ix, fx, pot1) * ov_y
            ov_x = mode_overlap(fx, ix)
            if ov_x != 0.0:
                value += weight * ov_x * (1j * e2 / box3) * _born_sandwich(iy, fy, pot2)
    factors = (("delta(Dnu_total)", "T_tau"),)
    if pot1.static or pot2.static:
        factors += (("2pi*delta(Dp0)", "T_0"),)
    return ReducedAmplitude(complex(value), factors)


# ---------------------------------------------------------------------------
# two-particle kernel conjugation

def two_kernel_matrix(which: int, momenta_pair, dx_pair, dtau: float, box_edge: float = TWO_PI):
    """16x16 tensor kernel, bare product form, per (p_x, p_y) support pair:
    pairs of shape (..., 2, 4) give kernels of shape (..., 16, 16)."""
    momenta = np.asarray(momenta_pair, dtype=float)
    dx, dy = dx_pair
    kx = _kernels(which, momenta[..., 0, :], dx, dtau, box_edge)
    ky = _kernels(which, momenta[..., 1, :], dy, dtau, box_edge)
    # the broadcast product np.kron forms, with the pair axes in front
    product = kx[..., :, None, :, None] * ky[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (16, 16))


def two_conjugation_check(dx_pair, dtau: float, momenta_pairs, box_edge: float = TWO_PI) -> float:
    """Residual of (g0 (x) g0) K++^dag (g0 (x) g0) = K-- at reversed arguments.

    The identity holds for the bare tensor product of the two single-particle
    kernels, support-pair-wise; the max residual over pairs is returned.
    """
    dx, dy = (np.asarray(v, dtype=float) for v in dx_pair)
    pairs = np.asarray(momenta_pairs, dtype=float).reshape(-1, 2, 4)
    g00 = np.kron(GAMMA0, GAMMA0)
    plus = two_kernel_matrix(+1, pairs, (dx, dy), dtau, box_edge)
    minus = two_kernel_matrix(-1, pairs, (-dx, -dy), -dtau, box_edge)
    return _max_residual(g00 @ plus.conj().swapaxes(-1, -2) @ g00 - minus)


# ---------------------------------------------------------------------------
# Bethe-Salpeter Born step

def bs_born_step(coeffs, pair_basis, v_matrix, mass: float):
    """One iteration of the integral term: combined kernel times V times Psi.

    In the joint mode basis the mass-transformed combined free kernel is
    diagonal with entries -2/(nu_k - mass) on forward-subspace pairs
    (nu_k the total tau frequency) and zero elsewhere; repeated application
    of D V generates the Born series.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    v_matrix = np.asarray(v_matrix, dtype=complex)
    n = len(pair_basis)
    if coeffs.shape != (n,) or v_matrix.shape != (n, n):
        raise GridIncompatible("coefficient vector, basis and kernel sizes disagree")
    driven = v_matrix @ coeffs
    out = np.zeros(n, dtype=complex)
    for k, (mx, my) in enumerate(pair_basis):
        if classify_subspace(mx) is not Subspace.S_PLUS or classify_subspace(my) is not Subspace.S_PLUS:
            continue
        nu = mx.frequency + my.frequency
        if abs(nu - mass) < ATOL_ALGEBRA * max(1.0, abs(mass)):
            raise OnMassShell("combined kernel pole at the requested mass")
        out[k] = -2.0 / (nu - mass) * driven[k]
    return out


def bs_power_iteration(pair_basis, v_matrix, mass: float):
    """Dominant eigenvalue/vector of the Born-step operator by 20 steps of
    power iteration from a seeded random start."""
    rng = np.random.default_rng(0)
    n = len(pair_basis)
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    vec /= np.linalg.norm(vec)
    eig = 0.0j
    for _ in range(20):
        nxt = bs_born_step(vec, pair_basis, v_matrix, mass)
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return 0.0j, nxt
        eig = np.vdot(vec, nxt) / np.vdot(vec, vec)
        vec = nxt / norm
    return eig, vec


# ---------------------------------------------------------------------------
# mutual scattering through a once-iterated sourced potential

def potential_from_transition(mode_in: Mode, mode_out: Mode, charge: float) -> ExternalPotential:
    """Potential sourced by the transition current of one particle.

    The current component able to drive a partner transition with opposite
    momentum transfer sits at k0 = p_in - p_out; its amplitude is
    charge * jmu / k0^2 with jmu = bar(w_out) gamma^mu w_in, plus the
    hermitian partner node at -k0.
    """
    k0 = mode_in.p - mode_out.p
    kk = float(minkowski_dot(k0, k0))
    if abs(kk) < ATOL_SHELL:
        raise OnLightCone("transition momentum transfer is lightlike")
    jmu = np.einsum(
        "i,mij,j->m", bar(mode_out.amplitude_spinor()), GAMMA_STACK, mode_in.amplitude_spinor()
    )
    node = charge * jmu / kk

    def fourier(dp):
        """Per row of the transfers dp, shape (..., 4)."""
        dp = np.asarray(dp, dtype=float)
        out = np.zeros(dp.shape, dtype=complex)
        out[np.isclose(dp, -k0, atol=ATOL_SHELL).all(axis=-1)] = np.conj(node)
        out[np.isclose(dp, k0, atol=ATOL_SHELL).all(axis=-1)] = node
        return out

    return ExternalPotential(fourier=fourier, static=False,
                             params={"charge": charge, "node": k0})


def mutual_scattering_amplitude(in1: Mode, out1: Mode, in2: Mode, out2: Mode,
                                charge1: float = ELEMENTARY_CHARGE,
                                charge2: float = ELEMENTARY_CHARGE,
                                box_edge: float = TWO_PI) -> complex:
    """First-order amplitude for particle 1 scattering off the field of 2.

    A single source iteration: particle 2's transition current sources a
    potential through the photon kernel, and particle 1 scatters off it at
    momentum transfer Dp1.  Exchanging the roles of the particles yields the
    same number, which is the mutuality property under test; the contraction
    symmetry is not assumed here.
    """
    pot = potential_from_transition(in2, out2, charge2)
    dp1 = out1.p - in1.p
    a_tilde = pot.fourier(dp1)
    sandwich = bar(out1.amplitude_spinor()) @ slash(a_tilde) @ in1.amplitude_spinor()
    return complex(1j * charge1 / box_edge**3 * sandwich)


# ---------------------------------------------------------------------------
# serialization

def two_state_to_json(state: TwoParticleState) -> str:
    pairs = [{"c": [float(c.real), float(c.imag)], "x": mode_to_record(mx, mx.a),
              "y": mode_to_record(my, my.a)} for c, mx, my in state.terms]
    return json.dumps({"exchange": state.exchange, "L": state.box_edge, "pairs": pairs})


def two_state_from_json(text: str) -> TwoParticleState:
    payload = json.loads(text)
    terms = tuple(
        (complex(pair["c"][0], pair["c"][1]), mode_from_record(pair["x"]), mode_from_record(pair["y"]))
        for pair in payload["pairs"]
    )
    return TwoParticleState(terms, payload["exchange"], float(payload["L"]))
