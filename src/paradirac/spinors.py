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
    _finite,
    _first,
    _matvec,
    _norm,
)
from .errors import MasslessState, NonUnitSpin


def _col(x):
    """Per-row scalars, shape (...,), as (..., 1, 1) to scale stacked matrices;
    a single scalar broadcasts as it is."""
    return x[..., None, None] if getattr(x, "ndim", 0) else x


def _kinematics(p, mass=None, phi=None):
    """(p, m, E, phi) for momenta p of shape (..., 4).

    `mass` and `phi` carry the on-shell mass and the energy sign from where
    they are known.  By default they are mass_of(p), which loses about
    (|p|/m)^2 eps to rounding in p, and energy_sign(p).
    """
    p = np.asarray(p, dtype=float)
    m = mass_of(p) if mass is None else mass
    if _any(m == 0.0):
        raise MasslessState("lightlike momentum: spinor blocks need m_p > 0")
    return p, m, abs(p[..., 0][()]), energy_sign(p) if phi is None else phi


def _block(p, mass, phi, upper):
    """u(p) where `upper` holds and v(p) where it does not; `upper` is one
    bool or one per row of p.  `mass` and `phi` are as for _kinematics."""
    p, m, energy, phi = _kinematics(p, mass, phi)
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
    return _block(p, mass, None, upper=True)


def v_block(p, mass=None):
    """4x2 negative-branch block v(p); columns are the two spin states.

    Momenta of shape (..., 4) give blocks of shape (..., 4, 2).
    """
    return _block(p, mass, None, upper=False)


def _projector(p, mass, phi, sign):
    """(m I4 + sign phi_p slash(p)) / 2m: Lambda_u for sign -1 and Lambda_v
    for sign +1; `sign` is one or one per row of p, `mass` and `phi` are as
    for _kinematics."""
    p, m, _, phi = _kinematics(p, mass, phi)
    m = _col(m)
    return (m * I4 + _col(sign * phi) * slash(p)) / (2.0 * m)


def lambda_u(p, mass=None):
    """Covariant projector onto the u branch, (m I4 - phi_p slash(p)) / 2m."""
    return _projector(p, mass, None, -1)


def lambda_v(p, mass=None):
    """Covariant projector onto the v branch, (m I4 + phi_p slash(p)) / 2m."""
    return _projector(p, mass, None, 1)


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


def branch_block(p, branch):
    """u_block for branch +1, v_block for branch -1; `branch` is one sign or
    one per row of p."""
    if not (np.all(np.abs(branch) == 1) if np.ndim(branch) else branch in (1, -1)):
        raise ValueError("branch must be +1 or -1")
    return _block(p, None, None, branch == 1)


def decompose_in_block(p, branch, spinor):
    """Spin coefficients a with block(p, branch) @ a = spinor.

    The right inverse of the block is +bar(u) for the u branch and -bar(v)
    for the v branch.  Raises if the spinor has a component outside the
    branch subspace.  Momenta (..., 4) and spinors (..., 4) give
    coefficients (..., 2); the branch is as for branch_block.  A coefficient
    that is not finite raises NonfiniteResult.
    """
    spinor = np.asarray(spinor)
    with np.errstate(all="ignore"):  # a NaN or inf is refused by _finite or the residual test
        block = branch_block(p, branch)
        a = np.asarray(branch, dtype=float)[..., None] * _matvec(bar(block), spinor)
        residual = _norm(_matvec(block, _finite(a, "spin coefficients are not finite")) - spinor)
        scale = np.maximum(_norm(spinor), 1e-300)
    if not (residual <= 1e-10 * scale).all():  # a NaN residual fails
        raise ValueError("spinor does not lie in the requested branch subspace")
    return a
