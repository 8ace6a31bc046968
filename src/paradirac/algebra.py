"""Minkowski geometry and the Dirac Clifford algebra in a fixed representation.

Conventions used throughout the package:

* metric g = diag(-1, +1, +1, +1); indices are raised and lowered with g,
* natural units hbar = c = 1; energies and momenta in MeV, lengths in 1/MeV,
* standard Dirac representation,
      gamma^0 = diag(1, 1, -1, -1),
      gamma^j = [[0, sigma_j], [-sigma_j, 0]],
      gamma^5 = i gamma^0 gamma^1 gamma^2 gamma^3 = [[0, I2], [I2, 0]],
* with this metric signature the Clifford relation reads
      {gamma^mu, gamma^nu} = -2 g^{mu nu} I4,
  so slash(p) @ slash(p) = -(p.p) I4 and a timelike p gives +m^2 I4.

Four-vectors are plain numpy arrays of shape (4,) holding contravariant
components.  Spinor matrices are complex (4, 4) arrays, bispinors complex (4,)
columns.  The kinematic functions also take a leading batch axis, momenta of
shape (..., 4), and a single four-vector is the case without one.  The module
also carries the numeric constants shared by the rest of the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonfiniteResult, SuperluminalMomentum, ZeroEnergy

# absolute tolerance for algebraic identities and kinematic checks
ATOL_ALGEBRA = 1e-12

# tolerance at which the conservation deltas of Born terms resolve: mass
# shell delta(Dm) (relative) and energy delta(Dp0) (absolute, MeV); also the
# light-cone and node matches of a transition-sourced potential
ATOL_SHELL = 1e-9

# CODATA-style constants, MeV and dimensionless
ELECTRON_MASS = 0.51099895
FINE_STRUCTURE = 1.0 / 137.035999
ELEMENTARY_CHARGE = math.sqrt(4.0 * math.pi * FINE_STRUCTURE)

# 1 MeV expressed in MHz (E / h)
MEV_TO_MHZ = 1.602176634e-13 / 6.62607015e-34 * 1e-6

TWO_PI = 2.0 * math.pi

METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
METRIC.setflags(write=False)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

# sigma_j flattened to rows, so that v @ _SIGMA_ROWS is v . sigma
_SIGMA_ROWS = SIGMA.reshape(3, 4)

_Z2 = np.zeros((2, 2), dtype=complex)

GAMMA0 = np.block([[I2, _Z2], [_Z2, -I2]])
GAMMA1 = np.block([[_Z2, SIGMA[0]], [-SIGMA[0], _Z2]])
GAMMA2 = np.block([[_Z2, SIGMA[1]], [-SIGMA[1], _Z2]])
GAMMA3 = np.block([[_Z2, SIGMA[2]], [-SIGMA[2], _Z2]])
GAMMA5 = 1j * GAMMA0 @ GAMMA1 @ GAMMA2 @ GAMMA3

_GAMMAS = (GAMMA0, GAMMA1, GAMMA2, GAMMA3)
# gamma^mu stacked along a leading index, shape (4, 4, 4)
GAMMA_STACK = np.stack(_GAMMAS)
for _g in (*_GAMMAS, GAMMA_STACK, GAMMA5, I2, I4, SIGMA, _SIGMA_ROWS):
    _g.setflags(write=False)


def four_vector(t, x=0.0, y=0.0, z=0.0):
    """Pack contravariant components into a float four-vector array."""
    return np.array([t, x, y, z], dtype=float)


def minkowski_dot(a, b):
    """g_{mu nu} a^mu b^nu = -a0 b0 + a.b for the (-,+,+,+) metric."""
    a = np.asarray(a)
    b = np.asarray(b)
    return -a[..., 0] * b[..., 0] + np.sum(a[..., 1:] * b[..., 1:], axis=-1)


def lower_index(p):
    """Covariant components p_mu = g_{mu nu} p^nu."""
    p = np.asarray(p)
    out = p.copy().astype(p.dtype if np.iscomplexobj(p) else float)
    out[..., 0] = -out[..., 0]
    return out


def _unbatched(x):
    """A 0-d result as a Python float, as for a single four-vector."""
    return x if x.ndim else float(x)


def _any(mask):
    """Whether `mask` holds in any row; a plain bool for a single row."""
    return bool(mask.any()) if getattr(mask, "ndim", 0) else bool(mask)


def _first(values, mask):
    """The first entry of `values` where `mask` holds, in row order."""
    return np.ravel(values)[np.argmax(np.ravel(mask))]


# Row-wise products over leading batch axes (the first three as stacked
# matmuls).  They round each row exactly as np.dot, `matrix @ vector`,
# np.linalg.norm and a scalar complex product round a single one, so batched
# and one-at-a-time results agree bit for bit.

def _dot(a, b):
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _matvec(matrix, v):
    return (matrix @ v[..., None])[..., 0]


def _norm(v):
    return np.sqrt(_dot(v.real, v.real) + _dot(v.imag, v.imag))


def _cmul(x, y):
    """x * y rounded as a scalar complex product: numpy's array loop may fuse
    its multiply-adds, which moves the last bit."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    parts = out.view(float).reshape(out.shape + (2,))
    np.subtract(x.real * y.real, x.imag * y.imag, out=parts[..., 0])
    np.add(x.real * y.imag, x.imag * y.real, out=parts[..., 1])
    return out


def _finite(value, message):
    """value if every entry of it is finite, else NonfiniteResult(message)."""
    if not np.isfinite(value).all():
        raise NonfiniteResult(message)
    return value


def _max_residual(diff):
    """Max |entry| of a residual array or a list of equal-shape arrays or scalars,
    0.0 when empty; any NaN entry makes it NaN, so no check passes on a NaN."""
    return float(np.abs(diff).max(initial=0.0))


def mass_of(p):
    """Rest mass sqrt(-p.p) of subluminal four-momenta p of shape (..., 4).

    Raises ZeroEnergy if any row has p0 = 0 and SuperluminalMomentum if any
    row has p.p > 0 beyond tolerance.  An exactly lightlike p with p0 != 0
    has mass 0.0.  A single four-vector gives a float.
    """
    p = np.asarray(p, dtype=float)
    p0 = p[..., 0][()]  # a numpy scalar for a single four-vector
    if _any(p0 == 0.0):
        raise ZeroEnergy("four-momentum has p0 = 0; no rest frame branch")
    sq = p * p
    pp = sq[..., 1:].sum(axis=-1) - p0 * p0  # minkowski_dot(p, p)
    spacelike = pp > ATOL_ALGEBRA * np.maximum(1.0, sq.sum(axis=-1))
    if _any(spacelike):
        raise SuperluminalMomentum(
            f"p.p = {_first(pp, spacelike):g} > 0; momentum is spacelike")
    return _unbatched(np.sqrt(np.maximum(-pp, 0.0)))


def energy_sign(p):
    """sign(p0), written phi_p below; the branch label of the energy.

    Takes momenta of shape (..., 4); a single four-vector gives a float.
    """
    p0 = np.asarray(p, dtype=float)[..., 0][()]
    if _any(p0 == 0.0):
        raise ZeroEnergy("four-momentum has p0 = 0; energy sign undefined")
    return _unbatched(np.sign(p0))


def gamma(index):
    """Dirac matrix gamma^index for index in {0, 1, 2, 3}; gamma5 is GAMMA5.

    The returned arrays are read-only module constants.
    """
    if index in (0, 1, 2, 3):
        return _GAMMAS[index]
    raise ValueError(f"no gamma matrix with index {index!r}")


def slash(p):
    """Contraction gamma^mu p_mu (index lowered with the metric).

    Accepts complex components, e.g. Fourier transforms of potentials, and
    leading batch axes: p of shape (..., 4) gives matrices (..., 4, 4).
    For real momenta slash(p) @ slash(p) = -(p.p) I4.
    """
    p = np.asarray(p)[..., None, None]
    return (-p[..., 0, :, :] * GAMMA0 + p[..., 1, :, :] * GAMMA1
            + p[..., 2, :, :] * GAMMA2 + p[..., 3, :, :] * GAMMA3)


def dirac_adjoint(m):
    """Adjoint with respect to the spinor metric: gamma^0 M^dagger gamma^0.

    Leading batch axes are kept: m of shape (..., 4, 4).
    """
    m = np.asarray(m)
    return GAMMA0 @ m.conj().swapaxes(-1, -2) @ GAMMA0


def bar(psi):
    """Row adjoint psi^dagger gamma^0 of a bispinor column, a (4, k) block
    or a stack (..., 4, k) of blocks.

    gamma^0 = diag(1, 1, -1, -1) only negates components 2 and 3 of the
    conjugate; the + 0.0 then folds -0.0 to +0.0, as the sums of the dense
    product do, so the bits are those of psi^dagger @ GAMMA0.  The result
    is C-ordered like that product's, because a later matmul's sums follow
    the memory layout of its operands."""
    psi = np.conjugate(psi)  # a new array, negated in place below
    if psi.ndim > 1:
        psi = psi.swapaxes(-1, -2)
    if psi.shape[-1:] != (4,):
        raise ValueError("a bispinor has four components")
    lower = psi[..., 2:]
    np.negative(lower, out=lower)
    return np.add(psi, 0.0, dtype=complex, order="C")


def pauli_dot(v3):
    """2x2 matrix v . sigma for spatial 3-vectors of shape (..., 3)."""
    v3 = np.asarray(v3)
    return (v3 @ _SIGMA_ROWS).reshape(v3.shape[:-1] + (2, 2))
