"""First-order scattering off an external potential: amplitudes and cross-sections.

The first-order S-matrix element between box-normalized u modes is

    S1 = (i e / L^3) delta(Dm) [2 pi delta(Dp0) for static potentials]
         * ubar_f slash(A~(Dp)) u_i,

with Dp = p_f - p_i.  The delta factors are squared into the symbolic scales
T_tau and T_0 and cancelled against beam normalization and observation time
before any cross-section number is produced; what this module returns are the
stripped reduced amplitudes plus the fully cancelled differential
cross-section.

The Mott factor is never hard-coded: the angular dependence comes out of the
spin sums.  The computed factor is 1 - beta^2 sin^2(kappa/2) with
beta = |p|/E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    ATOL_SHELL,
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    FINE_STRUCTURE,
    TWO_PI,
    _any,
    _dot,
    bar,
    dirac_adjoint,
    mass_of,
    slash,
)
from .errors import ForwardSingular, NonfiniteResult, SubspaceViolation
from .spinors import lambda_u, u_block


@dataclass(frozen=True)
class ExternalPotential:
    """Momentum-space external potential A~^mu(Dp).

    static=True declares an overall 2 pi delta(Dp0) carried symbolically; the
    fourier callable then returns the coefficient of that delta.  fourier
    maps transfers of shape (..., 4) to transforms of that shape, row by
    row.  A real potential in position space has A~(-Dp) = conj(A~(Dp)).
    """

    fourier: Callable[[np.ndarray], np.ndarray]
    static: bool = False


def coulomb_ft(dp, Z: float, *, mu: float = 0.0):
    """Fourier transform of the point-charge Coulomb potential.

    A~^0 = -Z e / (|Dp_vec|^2 + mu^2), spatial components zero; mu is an
    optional screening mass regulating the forward direction.  The static
    2 pi delta(Dp0) is carried by the ExternalPotential flag, not returned.
    Transfers of shape (..., 4) give transforms of shape (..., 4).
    """
    _check_source(Z, mu)
    dp = np.asarray(dp, dtype=float)
    denom = _dot(dp[..., 1:], dp[..., 1:]) + mu * mu
    if _any(denom == 0.0):
        raise ForwardSingular("Coulomb transform diverges at zero momentum transfer")
    out = np.zeros(dp.shape, dtype=complex)
    out[..., 0] = -Z * ELEMENTARY_CHARGE / denom
    return out


def _check_source(Z, mu):
    """Raise ValueError unless Z is finite and 0 <= mu < inf."""
    if not math.isfinite(Z):
        raise ValueError("nuclear charge Z must be finite")
    if not 0.0 <= mu < math.inf:
        raise ValueError("screening mass must be finite and nonnegative")


def coulomb_potential(Z: float, *, mu: float = 0.0) -> ExternalPotential:
    _check_source(Z, mu)
    return ExternalPotential(fourier=lambda dp: coulomb_ft(dp, Z, mu=mu), static=True)


def zero_potential() -> ExternalPotential:
    return ExternalPotential(fourier=lambda dp: np.zeros(np.shape(dp), dtype=complex), static=False)


@dataclass(frozen=True)
class ReducedAmplitude:
    """Amplitude with its singular normalization factors stripped.

    stripped_factors lists (factor, scale) pairs removed from the raw matrix
    element; value times those factors reassembles the full first-order
    element.  flags records exact zeros imposed by unresolved deltas.
    """

    value: complex
    stripped_factors: tuple
    flags: tuple = ()


_BASE_FACTORS = (("i*e/L^3", "prefactor"), ("delta(Dm)", "T_tau"))
_STATIC_FACTOR = (("2pi*delta(Dp0)", "T_0"),)


def s1_amplitude(p_i, a_i, p_f, a_f, pot: ExternalPotential) -> ReducedAmplitude:
    """Reduced first-order amplitude ubar_f slash(A~(Dp)) u_i.

    Both momenta must have positive energy (u-type S+ modes).  A mass
    mismatch or, for static potentials, an energy mismatch does not raise:
    the corresponding delta annihilates the element, so the value is exactly
    zero and the cause is flagged.  Both deltas resolve at ATOL_SHELL.
    """
    p_i = np.asarray(p_i, dtype=float)
    p_f = np.asarray(p_f, dtype=float)
    if p_i[0] <= 0.0 or p_f[0] <= 0.0:
        raise SubspaceViolation("first-order amplitude defined for positive-energy u modes")
    factors = _BASE_FACTORS + (_STATIC_FACTOR if pot.static else ())
    flags = []
    m_i, m_f = mass_of(p_i), mass_of(p_f)
    if abs(m_f - m_i) > ATOL_SHELL * max(1.0, m_i):
        flags.append("mass_shell_mismatch")
    dp = p_f - p_i
    if pot.static and abs(dp[0]) > ATOL_SHELL:
        flags.append("off_energy_shell")
    if flags:
        return ReducedAmplitude(0.0j, factors, tuple(flags))
    a_tilde = pot.fourier(dp)
    u_i = u_block(p_i) @ np.asarray(a_i, dtype=complex)
    u_f = u_block(p_f) @ np.asarray(a_f, dtype=complex)
    value = bar(u_f) @ slash(a_tilde) @ u_i
    return ReducedAmplitude(complex(value), factors, ())


class SpinSum(NamedTuple):
    """One spin-averaged |amplitude|^2 computed two independent ways."""

    by_enumeration: float
    by_trace: float


def spin_trace(p_i, p_f, pot: ExternalPotential, mass=None):
    """(1/2) Tr[X Lambda_u(p_i) Xbar Lambda_u(p_f)] with X = slash(A~(p_f - p_i)).

    The spin-averaged |ubar_f X u_i|^2 as one trace, over leading batch axes
    of p_i and p_f: the second route beside the enumerations of
    spin_averaged_amp2 and mott_dcs.  It cancels terms of order (E/m)^2, so
    its error is a few eps absolute, not relative.  `mass` is the common
    on-shell mass, mass_of(p) for each momentum by default.  No shell test:
    the caller supplies elastic pairs.
    """
    x = slash(pot.fourier(np.asarray(p_f, dtype=float) - np.asarray(p_i, dtype=float)))
    product = x @ lambda_u(p_i, mass) @ dirac_adjoint(x) @ lambda_u(p_f, mass)
    return 0.5 * np.trace(product, axis1=-2, axis2=-1).real


def spin_averaged_amp2(p_i, p_f, pot: ExternalPotential, mass=None) -> SpinSum:
    """(1/2) sum over incident and final spins of |ubar_f slash(A~) u_i|^2.

    Computed by explicit enumeration over the 2x2 spin bases and
    independently as spin_trace; the pair is returned for cross-validation.
    `mass` carries the common on-shell mass; by default each momentum's
    mass_of.  Inelastic kinematics give exact zeros, mirroring s1_amplitude.
    """
    p_i = np.asarray(p_i, dtype=float)
    p_f = np.asarray(p_f, dtype=float)
    if p_i[0] <= 0.0 or p_f[0] <= 0.0:
        raise SubspaceViolation("spin sums defined for positive-energy u modes")
    m_i, m_f = (mass_of(p_i), mass_of(p_f)) if mass is None else (mass, mass)
    dp = p_f - p_i
    if abs(m_f - m_i) > ATOL_SHELL * max(1.0, m_i):
        return SpinSum(0.0, 0.0)
    if pot.static and abs(dp[0]) > ATOL_SHELL:
        return SpinSum(0.0, 0.0)
    x = slash(pot.fourier(dp))

    ui = u_block(p_i, mass)
    uf = u_block(p_f, mass)
    total = 0.0
    for r in range(2):
        for s in range(2):
            amp = bar(uf[:, s]) @ x @ ui[:, r]
            total += abs(amp) ** 2
    by_enum = 0.5 * total
    return SpinSum(float(by_enum), float(spin_trace(p_i, p_f, pot, mass)))


def _check_angles(kappa):
    if not np.all((0.0 < kappa) & (kappa <= np.pi)):
        raise ForwardSingular("scattering angle must lie in (0, pi]")


def _check_beam(p_mag, Z):
    """Raise ValueError unless 0 < p_mag < inf and Z is a finite point charge."""
    if not 0.0 < p_mag < math.inf:
        raise ValueError("momentum magnitude must be positive and finite")
    _check_source(Z, 0.0)


def _elastic_pair(p_mag: float, kappa, mass: float):
    """Incident momentum along z and final momenta at angles kappa (...,) in
    the xz plane, on the shell of `mass`."""
    energy = float(np.hypot(mass, p_mag))
    kappa = np.asarray(kappa, dtype=float)
    p_i = np.array([energy, 0.0, 0.0, p_mag])
    p_f = np.stack([np.full_like(kappa, energy), p_mag * np.sin(kappa),
                    np.zeros_like(kappa), p_mag * np.cos(kappa)], axis=-1)
    return p_i, p_f


def mott_dcs(p_mag: float, kappa, Z: float):
    """Differential cross-section for elastic Coulomb scattering, MeV^-2 per sr.

    Assembled from the computed spin sum: after cancelling the squared delta
    scales T_tau, T_0 against beam normalization and observation time, the
    box volumes drop and

        dcs = (m^2 / 4 pi^2) e^2 * <|amplitude|^2>_spin.

    The nonrelativistic limit of this expression reproduces Rutherford,
    which fixes the normalization without external input.  The spin sum
    enumerates the four amplitudes ubar_f(s) X u_i(r) as one (..., 2, 2)
    array per batch of angles kappa; the spinor blocks take the mass as
    given, not from the rounded momenta.  Enumeration cancels only terms of
    order E/m, not (E/m)^2 as spin_trace does, so the ratio to Rutherford
    keeps its relative precision towards 180 degrees, where it falls to
    (m/E)^2.
    """
    _check_angles(kappa)
    _check_beam(p_mag, Z)
    p_i, p_f = _elastic_pair(p_mag, kappa, ELECTRON_MASS)
    x = slash(coulomb_ft(p_f - p_i, Z))
    amp = bar(u_block(p_f, ELECTRON_MASS)) @ (x @ u_block(p_i, ELECTRON_MASS))
    amp2 = 0.5 * (amp.real**2 + amp.imag**2).sum(axis=(-2, -1))
    return ELECTRON_MASS**2 / TWO_PI**2 * ELEMENTARY_CHARGE**2 * amp2


def rutherford_dcs(p_mag: float, kappa, Z: float):
    """Spinless baseline Z^2 alpha^2 E^2 / (4 p^4 sin^4(kappa/2)), MeV^-2 per sr.

    Taken as (Z alpha E / (2 p^2 sin^2(kappa/2)))^2, whose intermediates stay
    finite where p^4 would overflow (|p| above about 1e77 MeV).  Takes a
    single angle or an array of them.
    """
    _check_angles(kappa)
    _check_beam(p_mag, Z)
    energy = float(np.hypot(ELECTRON_MASS, p_mag))
    s2 = np.sin(np.asarray(kappa) / 2.0) ** 2
    try:
        return (Z * FINE_STRUCTURE * energy / (2.0 * p_mag**2 * s2)) ** 2
    except OverflowError:
        raise NonfiniteResult("Rutherford cross-section overflows") from None


def mott_ratio(p_mag: float, kappa, Z: float = 1.0):
    """Computed ratio dcs/rutherford; analytically 1 - beta^2 sin^2(kappa/2).

    Takes a single angle or an array of them.
    """
    return mott_dcs(p_mag, kappa, Z) / rutherford_dcs(p_mag, kappa, Z)

