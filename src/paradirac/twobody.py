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
    _cmul,
    _dot,
    _matvec,
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
    _plane_waves,
    classify_subspace,
    mode_from_record,
    mode_to_record,
    overlap_join,
    pair_current,
)
from .spinors import _block

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
        # column 0 at x, column 1 at y
        waves = _plane_waves(self.p, self.frequency, self.spinors(), np.array([x, y]), tau, self.box_edge)
        return sum((c * np.outer(f1, f2) for c, (f1, f2) in zip(self.coeff.tolist(), waves)),
                   np.zeros((4, 4), dtype=complex))


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


def _term_join(state_a: TwoParticleState, state_b: TwoParticleState):
    """Term pairs (i, j) whose x or y overlap keys match, in all-pairs order,
    as a list and as index arrays, with their x and y overlaps (0 if unmatched)."""
    joins = [set(zip(*(index.tolist() for index in
                       overlap_join(state_a.overlap_keys(col), state_b.overlap_keys(col)))))
             for col in (0, 1)]
    pairs = sorted(joins[0] | joins[1])
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    overlaps = [[ov if pair in join else 0.0 for pair, ov in
                 zip(pairs, state_a.overlaps(i, state_b, j, col).tolist())]
                for col, join in enumerate(joins)] if pairs else [[], []]
    return pairs, i, j, overlaps


def _overlap_sum(state_a, state_b, i, j, overlaps):
    """sum of conj(c_a) c_b <x_a|x_b> <y_a|y_b> over the term pairs (i, j), in order."""
    total = 0.0j
    for ca, cb, ox, oy in zip(state_a.coeff[i].tolist(), state_b.coeff[j].tolist(), *overlaps):
        ov = ox * oy
        if ov != 0.0:
            total += np.conj(ca) * cb * ov
    return total


def two_inner_product(state_a: TwoParticleState, state_b: TwoParticleState) -> complex:
    """Tensor inner product: partner overlaps multiply per term pair, in all-pairs order."""
    if state_a.box_edge != state_b.box_edge:
        raise BoxMismatch("states quantized in different boxes")
    i, j = overlap_join(*(list(zip(s.overlap_keys(0), s.overlap_keys(1))) for s in (state_a, state_b)))
    if not len(i):
        return 0j
    return _overlap_sum(state_a, state_b, i, j,
                        [state_a.overlaps(i, state_b, j, col).tolist() for col in (0, 1)])


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
    own, other = particle - 1, 2 - particle
    k, l = overlap_join(state.overlap_keys(other), state.overlap_keys(other))
    partner = state.overlaps(k, state, l, other)
    nu = state.frequency.sum(axis=1)
    nu_k, nu_l = nu[k], nu[l]
    scale = np.maximum(1.0, np.maximum(np.abs(nu_k), np.abs(nu_l)))
    keep = (partner != 0.0) & (np.abs(nu_k - nu_l) <= ATOL_ALGEBRA * scale)
    k, l, partner = k[keep], l[keep], partner[keep]
    weight = _cmul(_cmul(state.coeff[k].conj(), state.coeff[l]), partner) / state.box_edge**4
    return Pairs(k, l, weight, state.spinors()[:, own], state.p[:, own])


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


def _born_sandwich(state_f: TwoParticleState, state_i: TwoParticleState, pairs, partners, pots):
    """B(in -> out; A) = bar(w_out) slash(A~(p_out - p_in)) w_in of particle
    1 and of particle 2 for each joined pair (f, i), row by row.  It is only
    evaluated where the partner overlap is nonzero and the deltas hold (equal
    tau frequencies and, for static potentials, energies, at ATOL_SHELL);
    elsewhere, and where A~ vanishes, B is exactly zero.  Projection onto a
    definite final mode cancels the branch signs, so one formula covers u
    and v type."""
    nu_f, nu_i = state_f.frequency.tolist(), state_i.frequency.tolist()
    p0_f, p0_i = state_f.p[..., 0].tolist(), state_i.p[..., 0].tolist()
    live = [(k, col, f, i) for col, (pot, partner) in enumerate(zip(pots, partners))
            for k, ((f, i), ov) in enumerate(zip(pairs, partner))
            if ov != 0.0
            and abs(nu_f[f][col] - nu_i[i][col]) <= ATOL_SHELL * max(1.0, abs(nu_i[i][col]))
            and not (pot.static and abs(p0_f[f][col] - p0_i[i][col]) > ATOL_SHELL)]
    born = [[0.0j] * len(pairs), [0.0j] * len(pairs)]
    if not live:
        return born
    _, cols, rows_f, rows_i = np.array(live, dtype=np.intp).T
    # spinors of the final, then of the incident rows, in one block pass
    p, branch, a, mass = (np.concatenate((out[rows_f, cols], inc[rows_i, cols]))
                          for out, inc in ((state_f.p, state_i.p), (state_f.branch, state_i.branch),
                                           (state_f.a, state_i.a), (state_f.mass, state_i.mass)))
    spinors = _matvec(_block(p, mass, branch == 1), a)
    n = len(live)
    n_x, dp = n - int(cols.sum()), p[:n] - p[n:]
    # the rows of particle 1 come first; a shared potential takes one transform
    a_tilde = (pots[0].fourier(dp) if pots[0] is pots[1] else
               np.concatenate((pots[0].fourier(dp[:n_x]), pots[1].fourier(dp[n_x:]))))
    sandwich = _dot((spinors[:n].conj()[:, None, :] @ GAMMA0 @ slash(a_tilde))[:, 0], spinors[n:])
    for (k, col, _, _), value in zip(live, np.where(a_tilde.any(axis=-1), sandwich, 0.0).tolist()):
        born[col][k] = value
    return born


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

    pairs, f, i, (ov_x, ov_y) = _term_join(state_f, state_i)
    # <f|i>: the pairs that share only one key add nothing
    value = _overlap_sum(state_f, state_i, f, i, (ov_x, ov_y))
    born_x, born_y = _born_sandwich(state_f, state_i, pairs, (ov_y, ov_x), (pot1, pot2))
    for cf, ci, ox, oy, bx, by in zip(state_f.coeff[f].tolist(), state_i.coeff[i].tolist(),
                                      ov_x, ov_y, born_x, born_y):
        weight = np.conj(cf) * ci
        if oy != 0.0:
            value += weight * (1j * e1 / box3) * bx * oy
        if ox != 0.0:
            value += weight * ox * (1j * e2 / box3) * by
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
    pairs = [{"c": [float(c.real), float(c.imag)], "x": mode_to_record(p[0], branch[0], a[0]),
              "y": mode_to_record(p[1], branch[1], a[1])}
             for c, p, branch, a in zip(state.coeff.tolist(), state.p, state.branch, state.a)]
    return json.dumps({"exchange": state.exchange, "L": state.box_edge, "pairs": pairs})


def two_state_from_json(text: str) -> TwoParticleState:
    payload = json.loads(text)
    terms = tuple(
        (complex(pair["c"][0], pair["c"][1]), mode_from_record(pair["x"]), mode_from_record(pair["y"]))
        for pair in payload["pairs"]
    )
    return TwoParticleState(terms, payload["exchange"], float(payload["L"]))
