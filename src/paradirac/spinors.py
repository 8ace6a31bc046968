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

The blocks, projectors, spin vectors and decompose_in_block take momenta of
shape (..., 4) and return one result per row; an error class is raised if
any row fails its check.  u_block, v_block, lambda_u and lambda_v take the
on-shell mass as data where the caller knows it: m_p = sqrt(-p.p) from a
rounded p carries a relative error of about (|p|/m_p)^2 eps, which at
|p|/m_p = 1e8 leaves nothing of it.
"""

from __future__ import annotations

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
    _any,
    _dot,
    _first,
    _matvec,
    _norm,
)
from .errors import MasslessState, NonUnitSpin, ZeroMomentum


def _col(x):
    """Per-row scalars, shape (...,), as (..., 1, 1) to scale stacked matrices;
    a single scalar broadcasts as it is."""
    return x[..., None, None] if getattr(x, "ndim", 0) else x


def _kinematics(p, mass=None):
    """(p, m, E, phi) for momenta p of shape (..., 4).

    `mass` carries the on-shell mass from where it is known; by default it is
    mass_of(p), which loses about (|p|/m)^2 eps to rounding in p.
    """
    p = np.asarray(p, dtype=float)
    m = mass_of(p) if mass is None else mass
    if _any(m == 0.0):
        raise MasslessState("lightlike momentum: spinor blocks need m_p > 0")
    return p, m, abs(p[..., 0][()]), energy_sign(p)


def _block(p, mass, upper):
    """u(p) where `upper` holds and v(p) where it does not; `upper` is one
    bool or one per row of p."""
    p, m, energy, phi = _kinematics(p, mass)
    k = 1.0 / np.sqrt(2.0 * m * (m + energy))
    diagonal = _col(m + energy) * I2
    cross = _col(phi) * pauli_dot(p[..., 1:])
    if np.ndim(upper):
        upper = _col(upper)
        halves = (np.where(upper, diagonal, cross), np.where(upper, cross, diagonal))
    else:
        halves = (diagonal, cross) if upper else (cross, diagonal)
    return _col(k) * np.concatenate(halves, axis=-2)


def u_block(p, mass=None):
    """4x2 positive-branch block u(p); columns are the two spin states.

    Momenta of shape (..., 4) give blocks of shape (..., 4, 2).
    """
    return _block(p, mass, upper=True)


def v_block(p, mass=None):
    """4x2 negative-branch block v(p); columns are the two spin states.

    Momenta of shape (..., 4) give blocks of shape (..., 4, 2).
    """
    return _block(p, mass, upper=False)


def lambda_u(p, mass=None):
    """Covariant projector onto the u branch, (m I4 - phi_p slash(p)) / 2m."""
    p, m, _, phi = _kinematics(p, mass)
    m = _col(m)
    return (m * I4 - _col(phi) * slash(p)) / (2.0 * m)


def lambda_v(p, mass=None):
    """Covariant projector onto the v branch, (m I4 + phi_p slash(p)) / 2m."""
    p, m, _, phi = _kinematics(p, mass)
    m = _col(m)
    return (m * I4 + _col(phi) * slash(p)) / (2.0 * m)


def spin_projector(s):
    """P(s) = (I4 - gamma^5 slash(s)) / 2 for unit spacelike s of shape (..., 4).

    P(-s) is obtained by negating the argument.  Commutes with Lambda_u(p)
    and Lambda_v(p) whenever p.s = 0.
    """
    s = np.asarray(s, dtype=float)
    ss = minkowski_dot(s, s)
    # cancellation scale: s.s is a difference of terms of order |s|^2
    off = np.abs(ss - 1.0) > ATOL_ALGEBRA * np.maximum(1.0, np.sum(s * s, axis=-1))
    if _any(off):
        raise NonUnitSpin(f"s.s = {_first(ss, off):g}, expected +1")
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
    factor phi_p so the orthogonality holds on both energy branches.  Takes
    s_hat of shape (..., 3) with p of shape (..., 4).
    """
    p, m, energy, phi = _kinematics(p)
    s_hat = np.asarray(s_hat, dtype=float)
    s_hat = s_hat / _norm(s_hat)[..., None]
    sp = _dot(s_hat, p[..., 1:])
    out = np.empty(np.broadcast_shapes(s_hat.shape, p[..., 1:].shape)[:-1] + (4,))
    out[..., 0] = phi * sp / m
    out[..., 1:] = s_hat + p[..., 1:] * (sp / (m * (m + energy)))[..., None]
    return out


def _check_branch(branch):
    """Raise ValueError unless `branch` (one sign or one per row) is +1 or -1."""
    if not (np.all(np.abs(branch) == 1) if np.ndim(branch) else branch in (1, -1)):
        raise ValueError("branch must be +1 or -1")


def branch_block(p, branch):
    """u_block for branch +1, v_block for branch -1; `branch` is one sign or
    one per row of p."""
    _check_branch(branch)
    return _block(p, None, branch == 1)


def branch_projector(p, branch):
    """lambda_u for branch +1, lambda_v for branch -1."""
    _check_branch(branch)
    return lambda_u(p) if branch == 1 else lambda_v(p)


def decompose_in_block(p, branch, spinor):
    """Spin coefficients a with block(p, branch) @ a = spinor.

    The right inverse of the block is +bar(u) for the u branch and -bar(v)
    for the v branch.  Raises if the spinor has a component outside the
    branch subspace (it never does for images of the discrete symmetries).
    Momenta (..., 4) and spinors (..., 4) give coefficients (..., 2); the
    branch is as for branch_block.
    """
    return _decompose(branch_block(p, branch), branch, spinor)


def _decompose(block, branch, spinor):
    """decompose_in_block in a block the caller has built for its rows."""
    spinor = np.asarray(spinor)
    a = np.asarray(branch, dtype=float)[..., None] * _matvec(bar(block), spinor)
    residual = _norm(_matvec(block, a) - spinor)
    scale = np.maximum(_norm(spinor), 1e-300)
    if _any(residual > 1e-10 * scale):
        raise ValueError("spinor does not lie in the requested branch subspace")
    return a
