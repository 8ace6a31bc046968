"""Free influence functions acting spectrally, and first-order scattering.

The forward and backward free influence functions decompose over plane-wave
modes: acting through (1/i) integral d^4x, each mode is either kept with its
tau phase advanced or annihilated, depending on the sign of branch * phi_p
relative to which kernel is applied and the direction of the tau step.  All
action here is mode-wise; no position-space 4D integral is ever evaluated,
since every state in scope is a finite superposition; position-space
kernels, one per support momentum, serve only the conjugation checks.

Sign bookkeeping, fixed once: with sgn = sign(tau' - tau),

    (1/i) integral d^4x Gamma0_w : mode survives iff branch * phi = w * sgn,
                                   coefficient *= sgn * exp(i nu (tau'-tau)),

with nu = branch phi m the tau frequency.  The composite of two steps of
equal direction therefore reproduces the single step up to the overall
sign(tau2 - tau0), and opposite-direction chains annihilate every mode.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    ATOL_SHELL,
    ELEMENTARY_CHARGE,
    TWO_PI,
    bar,
    dirac_adjoint,
    energy_sign,
    mass_of,
    minkowski_dot,
    slash,
    _cmul,
    _finite,
    _matvec,
    _max_residual,
)
from .errors import DegenerateInterval, UnresolvedDelta
from .spinors import _block, _projector
from .states import _BOOLEANS, Mode, SpectralState, Subspace, TermContainer, _label_rows, classify_subspace


def _step_sign(which: int, dtau: float) -> int:
    """sign(dtau) of a step of Gamma0_which (+1 preserves S+ forward, -1 S-);
    a zero or non-finite dtau is refused."""
    if type(which) in _BOOLEANS:
        raise TypeError("which must be +1 or -1, not a boolean")
    if which not in (1, -1):
        raise ValueError("which must be +1 or -1")
    if dtau == 0.0:
        raise DegenerateInterval("influence functions need a nonzero tau step")
    if not np.isfinite(dtau):
        raise ValueError(f"the tau step must be finite, not {dtau}")
    return 1 if dtau > 0 else -1


def _tau_angle(nu, dtau: float):
    """The tau phases nu * dtau; NonfiniteResult where one overflows."""
    with np.errstate(over="ignore"):
        return _finite(nu * dtau, f"the tau phase nu*dtau overflows at dtau = {dtau:g}")


def free_evolve(state: TermContainer, tau: float, tau_prime: float, which: int) -> TermContainer:
    """Apply (1/i) integral d^4x Gamma0_which from tau to tau_prime.

    For which=+1 and tau' > tau only modes with branch*phi = +1 (the subspace
    S+) survive, phases advancing by nu*(tau'-tau); for tau' < tau only the
    complementary set survives.  which=-1 mirrors the pattern.  Annihilated
    modes are dropped from the term list.  Terms of any width evolve factor
    by factor, so a term dies when any of its modes is annihilated; a
    two-particle survivor picks up exp[i (nu_1 + nu_2) dtau], the two step
    signs squaring away, and exchange symmetry is preserved because the
    operator is symmetric under the factor swap.
    """
    dtau = tau_prime - tau
    sgn = _step_sign(which, dtau)
    rows = np.flatnonzero((state.branch * state.phi == which * sgn).all(axis=1))
    coeff = state.coeff[rows]
    with np.errstate(all="ignore"):  # an overflowing coefficient is refused by _subset
        for factor in (sgn * np.exp(1j * _tau_angle(state.frequency[rows], dtau))).T:
            coeff = _cmul(coeff, factor)
    return state._subset(rows, coeff)


def _kernels(which: int, momenta, dx, dtau: float):
    """Position-space 4x4 kernel of each support momentum p (..., 4), L = 2 pi:
    sign(dtau) i / L^4 Lambda_u(p) e^{i(p.dx + phi m dtau)} where phi_p =
    which*sign(dtau), else the same with Lambda_v(p) and -phi m dtau; -0.0
    folds to +0.0 as in a zero-started sum over a support.  NonfiniteResult
    where a phase overflows."""
    sgn = _step_sign(which, dtau)
    p = np.asarray(momenta, dtype=float)
    phi, m = energy_sign(p), mass_of(p)
    upper = phi == which * sgn
    angle = np.where(upper, 1.0, -1.0) * _tau_angle(phi * m, dtau)
    with np.errstate(over="ignore", invalid="ignore"):
        angle = _finite(minkowski_dot(p, dx) + angle, "the kernel phase p.dx overflows")
    phase = np.exp(1j * angle)
    projector = _projector(p, m, phi, np.where(upper, -1.0, 1.0))
    return sgn * 1j / TWO_PI**4 * (projector * phase[..., None, None] + 0.0)


def influence_conjugation_check(dx, dtau: float, momenta) -> float:
    """Max mode-wise residual of g0 (Gamma0+)^dag g0 = Gamma0- at reversed arguments.

    The identity holds per support momentum, so the residual is reported as
    the max over single-momentum kernels.
    """
    dx = np.asarray(dx, dtype=float)
    momenta = np.asarray(momenta, dtype=float).reshape(-1, 4)
    plus = _kernels(+1, momenta, dx, dtau)
    minus = _kernels(-1, momenta, -dx, -dtau)
    return _max_residual(dirac_adjoint(plus) - minus)


def elastic_shell(p_in, kappas, n_azimuth: int = 8):
    """Outgoing momenta with |p| and p0 equal to the incident values.

    Polar angles kappa are measured from the incident direction; n_azimuth
    equally spaced azimuths, an int of at least 1 (else ValueError), are
    generated per angle.  Returns four-momenta (len(kappas)*n_azimuth, 4).
    """
    if not isinstance(n_azimuth, (int, np.integer)) or n_azimuth < 1:
        raise ValueError(f"n_azimuth must be an integer of at least 1, got {n_azimuth!r}")
    p_in = np.asarray(p_in, dtype=float)
    pvec = p_in[1:]
    pmag = np.linalg.norm(pvec)
    if pmag == 0.0:
        raise ValueError("elastic shell needs a nonzero incident momentum")
    axis = pvec / pmag
    # any transverse pair completes the triad
    seed = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = seed - axis * np.dot(seed, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    kappa = np.atleast_1d(kappas)[:, None, None]
    psi = (TWO_PI * np.arange(n_azimuth) / n_azimuth)[:, None]
    direction = np.cos(kappa) * axis + np.sin(kappa) * (np.cos(psi) * e1 + np.sin(psi) * e2)
    out = np.empty(direction.shape[:-1] + (4,))
    out[..., 0] = p_in[0]
    out[..., 1:] = pmag * direction
    return out.reshape(-1, 4)


def moller_first_order(incident: Mode, potential, out_momenta) -> SpectralState:
    """Incident mode plus the first Born term of the forward wave operator.

    The Born term places weight on each supplied outgoing momentum q that
    conserves the tau frequency (equivalently the mass, both states sitting
    in S+); static potentials additionally require q0 = p0.  Outgoing spin
    coefficients are the mode-space sandwich of slash(A~(q - p)) with the
    incident amplitude spinor:

        u-type node:  +i (e/L^3) ubar(q) slash(A~) w_i
        v-type node:  -i (e/L^3) vbar(q) slash(A~) w_i

    the relative sign carried by Lambda_v = -v vbar, with e the elementary
    charge and L = 2 pi the default box edge.  The nodes of all
    outgoing momenta are one batched pass, with one potential.fourier call.
    An incident mode in S- is annihilated by the forward operator: the empty
    state is returned (the subspace violation is the documented zero, not an
    exception).  An empty list of outgoing momenta, or one with none on the
    incident mass shell, raises UnresolvedDelta, and an overflowing node NonfiniteResult.
    """
    if classify_subspace(incident) is Subspace.S_MINUS:
        return SpectralState(())
    q = np.asarray(out_momenta, dtype=float).reshape(-1, 4)
    m_out = mass_of(q)
    shell = np.abs(m_out - incident.mass) <= ATOL_SHELL * max(1.0, incident.mass)
    if not shell.any():
        raise UnresolvedDelta("no outgoing momentum conserves the mass")
    dp = q - incident.p
    if potential.static:
        shell &= np.abs(dp[:, 0]) <= ATOL_SHELL
    q, dp, m_out = q[shell], dp[shell], m_out[shell]
    a_tilde = potential.fourier(dp)
    phi = energy_sign(q)
    branch = np.where(phi > 0, 1, -1)
    with np.errstate(all="ignore"):  # an overflowing node is refused by _label_rows
        kick = _matvec(slash(a_tilde), incident.amplitude_spinor())
        a_out = _matvec(bar(_block(q, m_out, phi, branch == 1)), kick)
    live = a_out.any(axis=-1)
    rows = _label_rows(q[live], a_out[live], branch[live], m_out[live])
    return SpectralState._from_rows(np.concatenate(([1.0], branch[live] * (1j * ELEMENTARY_CHARGE / TWO_PI**3))),
                                    np.concatenate(([np.frombuffer(incident._row)], rows)), TWO_PI)
