"""Momentum-space spinor blocks and projection operators.

For a timelike four-momentum p with m_p = sqrt(-p.p) > 0, E_p = |p0| and
phi_p = sign(p0), the two branches of plane-wave solutions carry the 4x2
blocks

    u(p) = K [ (m_p + E_p) I2 ;  phi_p p.sigma ]      (exp(+i phi_p m_p tau))
    v(p) = K [ phi_p p.sigma  ;  (m_p + E_p) I2 ]     (exp(-i phi_p m_p tau))

with K = [2 m_p (m_p + E_p)]^(-1/2).  They are orthonormal in the Dirac
inner product, bar(u) u = I2, bar(v) v = -I2, bar(u) v = 0, and reproduce the
covariant projectors

    Lambda_u(p) = (m_p I4 - phi_p slash(p)) / (2 m_p) = u(p) bar(u)(p)
    Lambda_v(p) = (m_p I4 + phi_p slash(p)) / (2 m_p) = -v(p) bar(v)(p).

Spin is labelled by a unit spacelike four-vector s with p.s = 0 through
P(s) = (I4 - gamma^5 slash(s)) / 2; the opposite projection is P(-s).
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    ATOL_ALGEBRA,
    GAMMA5,
    I2,
    I4,
    bar,
    energy_sign,
    mass_of,
    minkowski_dot,
    pauli_dot,
    slash,
)
from .errors import MasslessState, NonUnitSpin, ZeroMomentum


def _kinematics(p):
    p = np.asarray(p, dtype=float)
    m = mass_of(p)
    if m == 0.0:
        raise MasslessState("lightlike momentum: spinor blocks need m_p > 0")
    return p, m, abs(p[0]), energy_sign(p)


def u_block(p):
    """4x2 positive-branch block u(p); columns are the two spin states."""
    p, m, energy, phi = _kinematics(p)
    k = 1.0 / math.sqrt(2.0 * m * (m + energy))
    top = (m + energy) * I2
    bottom = phi * pauli_dot(p[1:])
    return k * np.vstack([top, bottom])


def v_block(p):
    """4x2 negative-branch block v(p); columns are the two spin states."""
    p, m, energy, phi = _kinematics(p)
    k = 1.0 / math.sqrt(2.0 * m * (m + energy))
    top = phi * pauli_dot(p[1:])
    bottom = (m + energy) * I2
    return k * np.vstack([top, bottom])


def lambda_u(p):
    """Covariant projector onto the u branch, (m I4 - phi_p slash(p)) / 2m."""
    p, m, _, phi = _kinematics(p)
    return (m * I4 - phi * slash(p)) / (2.0 * m)


def lambda_v(p):
    """Covariant projector onto the v branch, (m I4 + phi_p slash(p)) / 2m."""
    p, m, _, phi = _kinematics(p)
    return (m * I4 + phi * slash(p)) / (2.0 * m)


def spin_projector(s):
    """P(s) = (I4 - gamma^5 slash(s)) / 2 for a unit spacelike s.

    P(-s) is obtained by negating the argument.  Commutes with Lambda_u(p)
    and Lambda_v(p) whenever p.s = 0.
    """
    s = np.asarray(s, dtype=float)
    ss = float(minkowski_dot(s, s))
    # cancellation scale: s.s is a difference of terms of order |s|^2
    scale = max(1.0, float(np.dot(s, s)))
    if abs(ss - 1.0) > ATOL_ALGEBRA * scale:
        raise NonUnitSpin(f"s.s = {ss:g}, expected +1")
    return 0.5 * (I4 - GAMMA5 @ slash(s))


def chirality_projector(sign):
    """(I4 + sign gamma^5) / 2 with sign = +1 or -1."""
    if sign not in (1, -1, 1.0, -1.0):
        raise ValueError("chirality sign must be +1 or -1")
    return 0.5 * (I4 + float(sign) * GAMMA5)


def helicity_operator(p):
    """Block-diagonal helicity matrix diag(phat.sigma, phat.sigma)."""
    p = np.asarray(p, dtype=float)
    pmag = float(np.linalg.norm(p[1:]))
    if pmag == 0.0:
        raise ZeroMomentum("helicity needs a nonzero spatial momentum")
    hat = pauli_dot(p[1:] / pmag)
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = hat
    out[2:, 2:] = hat
    return out


def boost_spin(s_hat, p):
    """Boost the rest-frame spin direction s_hat to the frame of momentum p.

    Returns the unit spacelike four-vector with s.s = +1 and p.s = 0,
    reducing to (0, s_hat) in the rest frame.  The time component carries a
    factor phi_p so the orthogonality holds on both energy branches.
    """
    p, m, energy, phi = _kinematics(p)
    s_hat = np.asarray(s_hat, dtype=float)
    s_hat = s_hat / np.linalg.norm(s_hat)
    sp = float(np.dot(s_hat, p[1:]))
    out = np.empty(4)
    out[0] = phi * sp / m
    out[1:] = s_hat + p[1:] * (sp / (m * (m + energy)))
    return out


def branch_block(p, branch):
    """u_block for branch +1, v_block for branch -1."""
    if branch == 1:
        return u_block(p)
    if branch == -1:
        return v_block(p)
    raise ValueError("branch must be +1 or -1")


def branch_projector(p, branch):
    """lambda_u for branch +1, lambda_v for branch -1."""
    return lambda_u(p) if branch == 1 else lambda_v(p)


def decompose_in_block(p, branch, spinor):
    """Spin coefficients a with block(p, branch) @ a = spinor.

    The right inverse of the block is +bar(u) for the u branch and -bar(v)
    for the v branch.  Raises if the spinor has a component outside the
    branch subspace (it never does for images of the discrete symmetries).
    """
    block = branch_block(p, branch)
    a = float(branch) * (bar(block) @ spinor)
    residual = np.linalg.norm(block @ a - spinor)
    scale = max(np.linalg.norm(spinor), 1e-300)
    if residual > 1e-10 * scale:
        raise ValueError("spinor does not lie in the requested branch subspace")
    return a
