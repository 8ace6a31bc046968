"""Free influence functions acting spectrally, and first-order scattering.

The forward and backward free influence functions decompose over plane-wave
modes: acting through (1/i) integral d^4x, each mode is either kept with its
tau phase advanced or annihilated, depending on the sign of branch * phi_p
relative to which kernel is applied and the direction of the tau step.  All
action here is mode-wise; no position-space 4D integral is ever evaluated,
since every state in scope is a finite superposition.

Sign bookkeeping, fixed once: with sgn = sign(tau' - tau),

    (1/i) integral d^4x Gamma0_w : mode survives iff branch * phi = w * sgn,
                                   coefficient *= sgn * exp(i nu (tau'-tau)),

with nu = branch phi m the tau frequency.  The composite of two steps of
equal direction therefore reproduces the single step up to the overall
sign(tau2 - tau0), and opposite-direction chains annihilate every mode.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    _matvec,
)
from .errors import DegenerateInterval, NonfiniteResult, UnresolvedDelta
from .spinors import _block, lambda_u, lambda_v
from .states import Mode, SpectralState, Subspace, TermContainer, classify_subspace


@dataclass(frozen=True)
class InfluenceKernel:
    """Spectral action of one free influence function over a tau step.

    which = +1 selects the kernel whose forward step preserves S+; which = -1
    the one preserving S-.  The raw kernel multiplies a surviving mode by
    i * sign(dtau) * exp(i nu dtau); evolution maps carry an extra 1/i.
    """

    which: int
    dtau: float

    def __post_init__(self):
        if self.which not in (1, -1):
            raise ValueError("which must be +1 or -1")
        if self.dtau == 0.0:
            raise DegenerateInterval("influence functions need a nonzero tau step")

    @property
    def step_sign(self):
        return 1 if self.dtau > 0 else -1

    def _survivors(self, state: TermContainer):
        """Rows of `state` whose every mode survives, and the multipliers
        i*sgn*exp(i nu dtau) of their modes, one column per mode."""
        sgn = self.step_sign
        sign = state.branch * state.phi
        rows = np.flatnonzero((sign == self.which * sgn).all(axis=1))
        return rows, _cmul(1j * sgn, np.exp(1j * _tau_angle(state.frequency[rows], self.dtau)))

    def apply(self, state: TermContainer) -> TermContainer:
        rows, factors = self._survivors(state)
        coeff = state.coeff[rows]
        for factor in factors.T:
            coeff = _cmul(coeff, factor)
        return state._subset(rows, coeff)


def _tau_angle(nu, dtau: float):
    """The tau phases nu * dtau; NonfiniteResult where one overflows."""
    with np.errstate(over="ignore"):
        angle = nu * dtau
    if not np.isfinite(angle).all():
        raise NonfiniteResult(f"the tau phase nu*dtau overflows at dtau = {dtau:g}")
    return angle


def free_evolve(state: TermContainer, tau: float, tau_prime: float, which: int) -> TermContainer:
    """Apply (1/i) integral d^4x Gamma0_which from tau to tau_prime.

    For which=+1 and tau' > tau only modes with branch*phi = +1 (the subspace
    S+) survive, phases advancing by nu*(tau'-tau); for tau' < tau only the
    complementary set survives.  which=-1 mirrors the pattern.  Annihilated
    modes are dropped from the term list.  Terms of any width evolve factor
    by factor, so a term dies when any of its modes is annihilated.
    """
    if tau_prime == tau:
        raise DegenerateInterval("evolution interval is degenerate")
    rows, factors = InfluenceKernel(which, tau_prime - tau)._survivors(state)
    coeff = state.coeff[rows]
    for factor in factors.T:
        coeff = _cmul(_cmul(coeff, -1j), factor)
    return state._subset(rows, coeff)


def semigroup_compose(state: SpectralState, tau0: float, tau1: float, tau2: float, which: int) -> SpectralState:
    """Two-step evolution tau0 -> tau1 -> tau2 with the same kernel.

    When tau1 lies between tau0 and tau2 this equals sign(tau2 - tau0) times
    the direct single step.  When tau1 lies outside the interval the two
    steps impose contradictory subspace filters and the composition is the
    empty state; that ordering violation is reported through the returned
    value, not an exception.
    """
    return free_evolve(free_evolve(state, tau0, tau1, which), tau1, tau2, which)


def _support_terms(which: int, momenta, dx, dtau: float):
    """sign(dtau) and, per momentum of shape (..., 4), the unscaled 4x4 term of
    kernel_matrix's sum, as a zero-started sum holds it: -0.0 folded to +0.0.
    NonfiniteResult where a phase p.dx +/- phi m dtau overflows."""
    sgn = InfluenceKernel(which, dtau).step_sign
    p = np.asarray(momenta, dtype=float)
    phi = energy_sign(p)
    m = mass_of(p)
    upper = phi == which * sgn
    angle = np.where(upper, 1.0, -1.0) * _tau_angle(phi * m, dtau)
    with np.errstate(over="ignore", invalid="ignore"):
        angle = minkowski_dot(p, dx) + angle
    if not np.isfinite(angle).all():
        raise NonfiniteResult("the kernel phase p.dx overflows")
    phase = np.exp(1j * angle)
    projector = np.where(np.asarray(upper)[..., None, None], lambda_u(p, m), lambda_v(p, m))
    return sgn, projector * phase[..., None, None] + 0.0


def _kernels(which: int, momenta, dx, dtau: float, box_edge: float):
    """The kernel_matrix of each momentum's one-element support, stacked."""
    sgn, terms = _support_terms(which, momenta, dx, dtau)
    return sgn * 1j / box_edge**4 * terms


def kernel_matrix(which: int, momenta, dx, dtau: float, box_edge: float = TWO_PI):
    """Position-space 4x4 kernel value over a finite momentum support.

    Each support momentum p contributes its u-type projector when phi_p
    matches which*sign(dtau) and its v-type projector when it matches the
    opposite sign, with phases exp[i(p.dx +/- phi_p m_p dtau)]:

        sign(dtau) * i / L^4 * sum_p [ Lambda_u(p) e^{i(p.dx + phi m dtau)}
                                     + Lambda_v(p) e^{i(p.dx - phi m dtau)} ].
    """
    sgn, terms = _support_terms(which, np.asarray(momenta, dtype=float).reshape(-1, 4), dx, dtau)
    return sgn * 1j / box_edge**4 * terms.sum(axis=0)


def influence_conjugation_check(dx, dtau: float, momenta, box_edge: float = TWO_PI) -> float:
    """Max mode-wise residual of g0 (Gamma0+)^dag g0 = Gamma0- at reversed arguments.

    The identity holds per support momentum, so the residual is reported as
    the max over single-momentum kernels.
    """
    dx = np.asarray(dx, dtype=float)
    momenta = np.asarray(momenta, dtype=float).reshape(-1, 4)
    plus = _kernels(+1, momenta, dx, dtau, box_edge)
    minus = _kernels(-1, momenta, -dx, -dtau, box_edge)
    return _max_residual(dirac_adjoint(plus) - minus)


def _max_residual(diff):
    """Max |entry| over a stack of residual matrices, 0.0 for an empty
    stack; a NaN entry makes the residual NaN, so the check cannot pass."""
    return float(np.abs(diff).max(initial=0.0))


def elastic_shell(p_in, kappas, n_azimuth: int = 8):
    """Outgoing momenta with |p| and p0 equal to the incident values.

    Polar angles kappa are measured from the incident direction; n_azimuth
    equally spaced azimuths are generated per angle.  Returns an array of
    four-momenta of shape (len(kappas)*n_azimuth, 4).
    """
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


def moller_first_order(
    incident: Mode,
    potential,
    out_momenta,
    charge: float = ELEMENTARY_CHARGE,
    box_edge: float = TWO_PI,
) -> SpectralState:
    """Incident mode plus the first Born term of the forward wave operator.

    The Born term places weight on each supplied outgoing momentum q that
    conserves the tau frequency (equivalently the mass, both states sitting
    in S+); static potentials additionally require q0 = p0.  Outgoing spin
    coefficients are the mode-space sandwich of slash(A~(q - p)) with the
    incident amplitude spinor:

        u-type node:  +i (charge/L^3) ubar(q) slash(A~) w_i
        v-type node:  -i (charge/L^3) vbar(q) slash(A~) w_i

    the relative sign carried by Lambda_v = -v vbar.  The nodes of all
    outgoing momenta are one batched pass, with one potential.fourier call.
    An incident mode in S- is annihilated by the forward operator: the empty
    state is returned (the subspace violation is the documented zero, not an
    exception).
    """
    if classify_subspace(incident) is Subspace.S_MINUS:
        return SpectralState((), box_edge)
    q = np.atleast_2d(np.asarray(out_momenta, dtype=float))
    m_out = mass_of(q)
    shell = np.abs(m_out - incident.mass) <= ATOL_SHELL * max(1.0, incident.mass)
    if not shell.any():
        raise UnresolvedDelta("no outgoing momentum conserves the mass")
    dp = q - incident.p
    if getattr(potential, "static", False):
        shell &= np.abs(dp[:, 0]) <= ATOL_SHELL
    q, dp, m_out = q[shell], dp[shell], m_out[shell]
    a_tilde = potential.fourier(dp)
    live = a_tilde.any(axis=-1)
    q, a_tilde, m_out = q[live], a_tilde[live], m_out[live]
    branch = np.where(energy_sign(q) > 0, 1, -1)
    kick = _matvec(slash(a_tilde), incident.amplitude_spinor())
    a_out = _matvec(bar(_block(q, m_out, branch == 1)), kick)
    live = a_out.any(axis=-1)
    q, branch, a_out, m_out = q[live], branch[live], a_out[live], m_out[live]
    return SpectralState((), box_edge)._derive(
        np.concatenate(([1.0 + 0.0j], branch * (1j * charge / box_edge**3))),
        np.concatenate((incident.p[None], q))[:, None],
        np.concatenate(([incident.branch], branch))[:, None],
        np.concatenate((incident.a[None], a_out))[:, None],
        np.concatenate(([incident.mass], m_out))[:, None])
