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
    _finite,
    _matvec,
    _max_residual,
    bar,
    minkowski_dot,
    slash,
)
from .errors import (
    BoxMismatch,
    GridIncompatible,
    NoDominantEigenvalue,
    OnLightCone,
    OnMassShell,
    SubspaceViolation,
)
from .propagate import _kernels, free_evolve
from .scattering import _STATIC_FACTOR, ExternalPotential, ReducedAmplitude
from .states import (
    Mode,
    TermContainer,
    _overlap_pairs,
    _require_width,
    _vector_current,
    _window_outer,
    inner_product,
)
from .spinors import _block

_EXCHANGE_TAGS = ("none", "fermionic", "bosonic")


def _exchange_tag(exchange):
    if exchange not in _EXCHANGE_TAGS:
        raise ValueError(f"exchange must be one of {_EXCHANGE_TAGS}")
    return exchange


class TwoParticleState(TermContainer):
    """Finite superposition sum_k c_k mode_xk (x) mode_yk over one box; the
    terms are a TermContainer of width 2 and merge as in SpectralState,
    keyed on both labels."""

    width = 2

    def __init__(self, terms, exchange="none", box_edge=TWO_PI):
        self._load(terms, box_edge, exchange=_exchange_tag(exchange))


def antisymmetrize(psi: Mode, chi: Mode) -> TwoParticleState:
    """(psi (x) chi - chi (x) psi) / sqrt(2) in the 2 pi box, exchange-antisymmetric.

    Equal modes annihilate each other: exclusion is realized as the exact
    empty state, not an exception.
    """
    rt = 1.0 / np.sqrt(2.0)
    return TwoParticleState(((rt, psi, chi), (-rt, chi, psi)), "fermionic")


def symmetrize(phi: Mode, xi: Mode) -> TwoParticleState:
    """(phi (x) xi + xi (x) phi) / sqrt(2) in the 2 pi box, exchange-symmetric."""
    rt = 1.0 / np.sqrt(2.0)
    return TwoParticleState(((rt, phi, xi), (rt, xi, phi)), "bosonic")


def permute_labels(state: TwoParticleState) -> TwoParticleState:
    """Swap the tensor factors of every term."""
    _require_width(state, 2)
    return state._subset((slice(None), slice(None, None, -1)), state.coeff)


def exchange_residual(state: TwoParticleState) -> float:
    """Max deviation of value(y,x)^T from -+ value(x,y) at 4 seeded random events.

    Zero for correctly tagged fermionic/bosonic states; meaningless for
    exchange='none' (returns 0.0 without sampling).  One value call takes the
    8 event pairs, (x, y) then (y, x), as one broadcast.
    """
    _require_width(state, 2)
    if state.exchange == "none":
        return 0.0
    sign = -1.0 if state.exchange == "fermionic" else 1.0
    events = np.random.default_rng(0).normal(size=(4, 9))  # x, y, tau per row: the stream of 4 value calls
    x, y, tau = events[:, :4], events[:, 4:8], events[:, 8]
    values = state.value(np.concatenate((x, y)), np.concatenate((y, x)), np.tile(tau, 2))
    return _max_residual(values[4:].swapaxes(-1, -2) - sign * values[:4])


# one inner product and one free evolution serve every term width
two_inner_product = inner_product
two_evolve = free_evolve


# ---------------------------------------------------------------------------
# marginalized currents

def _marginal_outer(state: TwoParticleState, particle: int, spinors, points):
    """Window outer sum (npoints, 4, 4) of one particle's marginal current: rows
    group by partner overlap key and match on total tau frequency; the partner
    overlap branch a_k* . a_l is one channel per spin component."""
    _require_width(state, 2)
    own, other = particle - 1, 2 - particle
    ids: dict = {}
    group = np.array([ids.setdefault(key, len(ids)) for key in state._column_keys(other)], dtype=np.intp)
    with np.errstate(all="ignore"):  # an overflowing row gives NaN samples, which _vector_current refuses
        bra = (state.coeff[:, None] * state.a[:, other])[..., None] * spinors[:, own, None]
        ket = state.branch[:, other, None, None] * bra
    outer = _window_outer(group, state.frequency.sum(axis=1), bra, ket, state.p[:, own], points, state.box_edge)
    return np.einsum("xsasb->xab", outer)


def two_currents(state: TwoParticleState, points):
    """Marginal currents (J1, J2): tau concatenated, partner integrated out.

    For a simple product each reduces to the single-particle concatenated
    current of its own factor times the partner's norm; for exchange-
    symmetric states both are invariant under permuting the state labels.
    """
    spinors = state.spinors()
    return tuple(_vector_current(_marginal_outer(state, particle, spinors, points)) for particle in (1, 2))


# ---------------------------------------------------------------------------
# first-order two-particle S-matrix

def s2_first_order(state_i: TwoParticleState, state_f: TwoParticleState, pot_pair) -> ReducedAmplitude:
    """S_fi through first order: free overlap plus one-potential Born terms.

    value = <f|i> + sum over term pairs of
            (i e / L^3) B(x_i -> x_f; A1) <y_f|y_i>
          + (i e / L^3) <x_f|x_i> B(y_i -> y_f; A2),

    with e the elementary charge of algebra and
    B(in -> out; A) = bar(w_out) slash(A~(p_out - p_in)) w_in; projection
    onto a definite final mode cancels the branch signs, so one formula
    covers u and v type.  B is evaluated only where the deltas (equal tau
    frequencies and, for static potentials, energies) hold at ATOL_SHELL and
    A~ is nonzero, and is exactly zero elsewhere; the squared delta scales
    are recorded symbolically.  Both states must lie in the forward subspace
    tensor square.  <f|i> is inner_product; each particle's Born terms are
    the _overlap_pairs of its partner's column, in the order of the
    all-pairs loop; a sum that is not finite raises NonfiniteResult.
    """
    _require_width(state_i, 2)
    _require_width(state_f, 2)
    if state_i.box_edge != state_f.box_edge:
        raise BoxMismatch("states quantized in different boxes")
    for state, label in ((state_i, "incident"), (state_f, "final")):
        if not (state.branch * state.phi > 0).all():
            raise SubspaceViolation(f"{label} state leaves the forward subspace")
    pot1, pot2 = pot_pair
    coupling = 1j * ELEMENTARY_CHARGE / state_i.box_edge**3
    nu_f, nu_i = state_f.frequency.tolist(), state_i.frequency.tolist()
    p0_f, p0_i = state_f.p[..., 0].tolist(), state_i.p[..., 0].tolist()
    # particle 1 joins on the y overlap, particle 2 on the x overlap, in all-pairs
    # order; only pairs of nonzero overlap whose own deltas hold stay, particle 1's first
    live = []
    for col, pot in enumerate((pot1, pot2)):
        join_f, join_i, overlap = _overlap_pairs(state_f, state_i, (1 - col,))
        live += [(f, i, col, ov) for f, i, ov in zip(join_f.tolist(), join_i.tolist(), overlap)
                 if ov and not (pot.static and abs(p0_f[f][col] - p0_i[i][col]) > ATOL_SHELL)
                 and abs(nu_f[f][col] - nu_i[i][col]) <= ATOL_SHELL * max(1.0, abs(nu_i[i][col]))]
    value = inner_product(state_f, state_i)
    if live:
        rows_f, rows_i, cols = np.array([event[:3] for event in live], dtype=np.intp).T
        dp = state_f.p[rows_f, cols] - state_i.p[rows_i, cols]
        n_x = len(live) - int(cols.sum())
        # a shared potential takes one transform; a pair whose transform vanishes adds nothing
        a_tilde = (pot1.fourier(dp) if pot1 is pot2 else
                   np.concatenate((pot1.fourier(dp[:n_x]), pot2.fourier(dp[n_x:]))))
        kept = a_tilde.any(axis=-1)
        live, rows_f, rows_i, cols, a_tilde = ([event for event, k in zip(live, kept.tolist()) if k],
                                               rows_f[kept], rows_i[kept], cols[kept], a_tilde[kept])
        # spinors of the final, then of the incident rows, in one block pass
        labels = [(s.p, s.branch, s.a, s.mass, s.phi) for s in (state_f, state_i)]
        p, branch, a, mass, phi = (np.concatenate((out[rows_f, cols], inc[rows_i, cols]))
                                   for out, inc in zip(*labels))
        spinors = _matvec(_block(p, mass, phi, branch == 1), a)
        n = len(live)
        born = _dot((spinors[:n].conj()[:, None, :] @ GAMMA0 @ slash(a_tilde))[:, 0], spinors[n:]).tolist()
        coeff_f, coeff_i = state_f.coeff.tolist(), state_i.coeff.tolist()
        # sorting merges the two sorted runs into all-pairs order, particle 1
        # first on a tie; (f, i, col) is unique, so no overlap is compared
        for (f, i, col, ov), b in sorted(zip(live, born)):
            weight = coeff_f[f].conjugate() * coeff_i[i]
            value += weight * coupling * b * ov if col == 0 else weight * ov * coupling * b
    factors = (("delta(Dnu_total)", "T_tau"),) + (_STATIC_FACTOR if pot1.static or pot2.static else ())
    return ReducedAmplitude(complex(_finite(value, "the first-order S-matrix sum is not finite")), factors)


# ---------------------------------------------------------------------------
# two-particle kernel conjugation

def two_kernel_matrix(which: int, momenta_pair, dx_pair, dtau: float):
    """16x16 tensor kernel, bare product form, per (p_x, p_y) support pair:
    pairs of shape (..., 2, 4) give kernels of shape (..., 16, 16)."""
    momenta = np.asarray(momenta_pair, dtype=float)
    kx, ky = (_kernels(which, momenta[..., k, :], dx_pair[k], dtau) for k in (0, 1))
    # the broadcast product np.kron forms, with the pair axes in front
    product = kx[..., :, None, :, None] * ky[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (16, 16))


def two_conjugation_check(dx_pair, dtau: float, momenta_pairs) -> float:
    """Residual of (g0 (x) g0) K++^dag (g0 (x) g0) = K-- at reversed arguments.

    The identity holds for the bare tensor product of the two single-particle
    kernels, support-pair-wise; the max residual over pairs is returned.
    """
    dx, dy = (np.asarray(v, dtype=float) for v in dx_pair)
    pairs = np.asarray(momenta_pairs, dtype=float).reshape(-1, 2, 4)
    g00 = np.kron(GAMMA0, GAMMA0)
    plus = two_kernel_matrix(+1, pairs, (dx, dy), dtau)
    minus = two_kernel_matrix(-1, pairs, (-dx, -dy), -dtau)
    return _max_residual(g00 @ plus.conj().swapaxes(-1, -2) @ g00 - minus)


# ---------------------------------------------------------------------------
# Bethe-Salpeter operator D V, with D diagonal in the pair basis

def _bs_kernel(pair_basis, mass: float):
    """D's diagonal as bs_born_step states it; a forward pair on the pole raises OnMassShell."""
    nu = np.array([(mx.frequency, my.frequency) for mx, my in pair_basis], dtype=float).reshape(-1, 2)
    forward = (nu > 0.0).all(axis=1)  # nu = branch phi m: both modes in S+
    detuning = nu[forward, 0] + nu[forward, 1] - mass
    if (np.abs(detuning) < ATOL_ALGEBRA * max(1.0, abs(mass))).any():
        raise OnMassShell("combined kernel pole at the requested mass")
    kernel = np.zeros(len(nu))
    kernel[forward] = -2.0 / detuning
    return kernel


def bs_born_step(coeffs, pair_basis, v_matrix, mass: float):
    """One iteration of the integral term: combined kernel times V times Psi.

    In the joint mode basis the mass-transformed combined free kernel is
    diagonal with entries -2/(nu_k - mass) on forward-subspace pairs
    (nu_k the total tau frequency) and zero elsewhere; repeated application
    of D V generates the Born series.  A non-finite V or Psi raises
    NonfiniteResult.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    v_matrix = np.asarray(v_matrix, dtype=complex)
    n = len(pair_basis)
    if coeffs.shape != (n,) or v_matrix.shape != (n, n):
        raise GridIncompatible("coefficient vector, basis and kernel sizes disagree")
    _finite(v_matrix, "the Bethe-Salpeter matrix V must be finite")
    _finite(coeffs, "the Born-step coefficients must be finite")
    kernel = _bs_kernel(pair_basis, mass)
    # each forward row rounded as one scalar complex product, each backward row an exact 0
    return np.where(kernel != 0.0, _cmul(kernel, v_matrix @ coeffs), 0.0)


def bs_dominant_eigenpair(pair_basis, v_matrix, mass: float):
    """The eigenvalue of largest magnitude of the Born-step operator D V, with its
    unit eigenvector, by one dense eigensolve; (0j, zeros) if all are 0.  D V is
    not Hermitian, so lambda can tie in magnitude with its conjugate or with
    -lambda: a tie within ATOL_ALGEBRA relative raises NoDominantEigenvalue, and a
    non-finite V NonfiniteResult."""
    v_matrix = np.asarray(v_matrix, dtype=complex)
    if v_matrix.shape != (len(pair_basis),) * 2:
        raise GridIncompatible("basis and kernel sizes disagree")
    _finite(v_matrix, "the Bethe-Salpeter matrix V must be finite")
    values, vectors = np.linalg.eig(_bs_kernel(pair_basis, mass)[:, None] * v_matrix)
    size = np.abs(values)
    if not size.any():
        return 0j, np.zeros(len(size), dtype=complex)
    top = int(np.argmax(size))
    if (size >= size[top] * (1.0 - ATOL_ALGEBRA)).sum() > 1:
        raise NoDominantEigenvalue("the two eigenvalues of largest magnitude tie")
    return values[top], vectors[:, top]


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

    return ExternalPotential(fourier=fourier, static=False)


def mutual_scattering_amplitude(in1: Mode, out1: Mode, in2: Mode, out2: Mode,
                                charge1: float = ELEMENTARY_CHARGE,
                                charge2: float = ELEMENTARY_CHARGE) -> complex:
    """First-order amplitude for particle 1 scattering off the field of 2.

    A single source iteration: particle 2's transition current sources a
    potential through the photon kernel, and particle 1 scatters off it at
    momentum transfer Dp1, in the box of edge 2 pi.  Exchanging the roles of the particles yields the
    same number, which is the mutuality property under test; the contraction
    symmetry is not assumed here.
    """
    pot = potential_from_transition(in2, out2, charge2)
    dp1 = out1.p - in1.p
    a_tilde = pot.fourier(dp1)
    sandwich = bar(out1.amplitude_spinor()) @ slash(a_tilde) @ in1.amplitude_spinor()
    return complex(1j * charge1 / TWO_PI**3 * sandwich)
