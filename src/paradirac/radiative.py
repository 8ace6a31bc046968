"""Photon-mediated endpoints: vacuum-polarization potential, hydrogenic
level shifts, the anomalous moment, and current identities.

Everything here is finite and regularization-free: the vacuum-polarization
potential is evaluated through its spectral representation, the anomalous
moment through the Feynman-parameter form of the vertex at zero momentum
transfer (the electron mass cancels), and the axial/vector identities are
checked spectrally on finite mode superpositions.  Units are natural with
energies in MeV; distances are MeV^-1.

Every quadrature is a fixed composite Gauss-Legendre rule whose error
estimate is its difference from the same rule with doubled nodes; the module
needs numpy alone.

Sign conventions: metric (-,+,+,+); field tensor F^{0j} = E^j,
F^{jk} = eps^{jkl} B^l; totally antisymmetric eps^{0123} = +1.  With these,
the contraction eps^{mnrs} F_mn F_rs evaluates to -8 E.B (computed, never
assumed).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (
    ATOL_SHELL,
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    FINE_STRUCTURE,
    GAMMA5,
    GAMMA_STACK,
    I4,
    MEV_TO_MHZ,
    METRIC,
    TWO_PI,
    _finite,
    _max_residual,
    dirac_adjoint,
    lower_index,
)
from .errors import (
    MassMismatch,
    NonfiniteResult,
    NonpositiveRadius,
    QuadratureNonconvergence,
    UnsupportedState,
)

# ---------------------------------------------------------------------------
# field configurations and the antisymmetric symbol


def _determinant_symbol():
    """Rank-4 antisymmetric symbol, eps[0,1,2,3] = +1, built from determinants:
    each permutation's entry is that of the permuted identity, the rest zero."""
    eye = np.eye(4)
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        eps[perm] = np.linalg.det(eye[list(perm)])
    return eps


_EPSILON4 = _determinant_symbol()
_EPSILON4.setflags(write=False)
# eps^{jkl} = eps^{0jkl}, the rank-3 symbol of the field tensor's B block
_LEVI3 = _EPSILON4[0, 1:, 1:, 1:]  # a read-only view


def epsilon_tensor():
    """Rank-4 antisymmetric symbol, eps[0,1,2,3] = +1, as a fresh writable
    copy of the determinant build made once at import."""
    return _EPSILON4.copy()


@dataclass(frozen=True)
class FieldConfiguration:
    """Contravariant field tensor F^{mu nu}, constant or batched (..., 4, 4)."""

    tensor: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=float)
        if t.shape[-2:] != (4, 4):
            raise ValueError("field tensor must have trailing shape (4, 4)")
        if not np.array_equal(t, -np.swapaxes(t, -1, -2)):
            raise ValueError("field tensor must be exactly antisymmetric")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "tensor", t)

    @classmethod
    def from_fields(cls, electric, magnetic):
        e = np.asarray(electric, dtype=float)
        b = np.asarray(magnetic, dtype=float)
        f = np.zeros(np.broadcast_shapes(e.shape[:-1], b.shape[:-1]) + (4, 4))
        f[..., 0, 1:] = e
        f[..., 1:, 0] = -e
        f[..., 1:, 1:] = np.einsum("jkl,...l->...jk", _LEVI3, b)
        return cls(f)

    def lowered(self):
        """F_{mu nu} = g F g for the diagonal metric."""
        return np.einsum("am,...mn,nb->...ab", METRIC, self.tensor, METRIC)


def anomaly_rhs(field: FieldConfiguration):
    """-(e^2/(4 pi)^2) eps^{mnrs} F_mn F_rs, pointwise for batched F, with e
    the elementary charge of algebra.

    The contraction is carried out by explicit index sums over the rank-4
    symbol; the proportionality to E.B is emergent, not hard-coded.
    """
    f_low = field.lowered()
    contraction = np.einsum("mnrs,...mn,...rs->...", _EPSILON4, f_low, f_low)
    return -(ELEMENTARY_CHARGE**2) / (2.0 * TWO_PI) ** 2 * contraction


# ---------------------------------------------------------------------------
# fixed quadrature rules

# Gauss-Legendre points per panel of the 1-D rules; each is checked against
# the same panels with twice the points, and the finer value is the result.
_NODES = 12

# Bound on |rule - same rule with doubled nodes| relative to the value; every
# rule below converges to roundoff far inside it.
_RULE_RTOL = 1e-10

# The U(r) spectral integrals are cut where e^{-2 m r (t - 1)} has fallen to
# e^{-40} (about 4e-18) of its value at the threshold t = 1.
_DECAY = 40.0


def _legendre_recurrence(n: int, x):
    """P_n(x) and P_n'(x) from the three-term recurrence."""
    previous, value = np.ones_like(x), x
    for k in range(1, n):
        previous, value = value, ((2 * k + 1) * x * value - k * previous) / (k + 1)
    return value, n * (x * value - previous) / (x * x - 1.0)


@functools.cache
def _legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], by Golub-Welsch.

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence, refined by one Newton step on P_n; the weights are
    2 / ((1 - x^2) P_n'(x)^2), normalized to sum to 2.  numpy.linalg is
    loaded by `import numpy`, where numpy.polynomial would cost an import of
    several ms on every cold run.
    """
    k = np.arange(1.0, nodes)
    off_diagonal = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))
    value, slope = _legendre_recurrence(nodes, x)
    x = x - value / slope
    _, slope = _legendre_recurrence(nodes, x)
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    # the rule is symmetric about 0; impose it on the rounded values
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return x, w * (2.0 / w.sum())


def _doubled_rule(integrand, edges, what: str):
    """Composite Gauss-Legendre integral over the panels `edges`, with _NODES
    and with 2 * _NODES points per panel: (finer value, their difference).

    Raises QuadratureNonconvergence when the difference exceeds _RULE_RTOL
    of the finer value.
    """
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    coarse, fine = (
        float((half * w).ravel() @ integrand((lo + half * (x + 1.0)).ravel()))
        for x, w in (_legendre(_NODES), _legendre(2 * _NODES))
    )
    err = abs(fine - coarse)
    if not err <= _RULE_RTOL * abs(fine):
        raise QuadratureNonconvergence(f"{what} quadrature failed to converge")
    return fine, err


# ---------------------------------------------------------------------------
# Uehling potential and hydrogenic shifts

def uehling_ratio(r: float) -> float:
    """U(r) divided by the bare Coulomb -Z alpha / r: the screening profile.

    (2 alpha / 3 pi) * integral_1^inf dt e^{-2 m r t} (1 + 1/(2t^2))
    sqrt(t^2 - 1)/t^2.  With t = 1 + v^2 the sqrt(t - 1) endpoint becomes a
    smooth factor v, and e^{-2 m r} leaves the integral.  The v panels halve
    in width towards v = 0, so that both the v ~ 1 structure and the
    1/sqrt(2 m r) decay are resolved at every radius.
    """
    if r <= 0.0:
        raise NonpositiveRadius("the potential is defined for r > 0")
    two_mr = 2.0 * ELECTRON_MASS * r
    v_max = _finite(math.sqrt(_DECAY / two_mr), f"the screening-profile rule overflows at r = {r:g}")
    halvings = max(3, math.ceil(math.log2(4.0 * v_max)))
    edges = v_max * np.concatenate(([0.0], 0.5 ** np.arange(halvings, -1, -1)))

    def integrand(v):
        v2 = v * v
        s = 1.0 / (1.0 + v2)  # 1/t
        return 2.0 * (v2 * s) * (np.sqrt(2.0 + v2) * s) * (1.0 + 0.5 * s * s) * np.exp(-two_mr * v2)

    fine = _doubled_rule(integrand, edges, "screening-profile")[0]
    return 2.0 * FINE_STRUCTURE / (3.0 * np.pi) * math.exp(-two_mr) * fine


def uehling_potential(r: float, Z: float) -> float:
    """Vacuum-polarization correction to the Coulomb potential, in MeV.

    U(r) = -(Z alpha / r) * uehling_ratio(r): a short-range attractive
    deepening of the Coulomb well, screened beyond the Compton scale.
    """
    return uehling_ratio(r) * -(Z * FINE_STRUCTURE / r)


def uehling_potential_hyperbolic(r: float, Z: float) -> float:
    """Independent realization through t = cosh(theta).

    Same potential, different integrand and integration variable:
    e^{-2 m r} integral_0^inf dtheta e^{-2 m r (cosh theta - 1)} tanh^2(theta)
    (1 + 1/(2 cosh^2 theta)), on uniform panels of width at most one and at
    least eight of them, which resolves the 1/sqrt(2 m r) width at theta = 0.
    """
    if r <= 0.0:
        raise NonpositiveRadius("the potential is defined for r > 0")
    two_mr = 2.0 * ELECTRON_MASS * r
    theta_max = _finite(math.acosh(1.0 + _DECAY / two_mr), f"the hyperbolic-form rule overflows at r = {r:g}")
    edges = np.linspace(0.0, theta_max, max(8, math.ceil(theta_max)) + 1)

    def integrand(theta):
        ch = np.cosh(theta)
        sech = 1.0 / ch
        return np.exp(-two_mr * (ch - 1.0)) * (1.0 + 0.5 * sech * sech) * np.tanh(theta) ** 2

    fine = _doubled_rule(integrand, edges, "hyperbolic-form")[0]
    return -(Z * FINE_STRUCTURE / r) * (2.0 * FINE_STRUCTURE / (3.0 * np.pi)) * math.exp(-two_mr) * fine


def _check_nuclear_charge(Z: float):
    if not (Z > 0.0 and math.isfinite(Z)):
        raise ValueError("nuclear charge Z must be positive and finite")


def bohr_radius(Z: float) -> float:
    _check_nuclear_charge(Z)
    return 1.0 / (Z * FINE_STRUCTURE * ELECTRON_MASS)


def hydrogen_radial(n: int, l: int, Z: float):
    """Nonrelativistic hydrogenic radial function R_nl for (1,0), (2,0), (2,1).

    Normalized so integral_0^inf R^2 r^2 dr = 1; r in MeV^-1.
    """
    a = bohr_radius(Z)
    try:
        scale = a**-1.5
    except OverflowError:
        raise NonfiniteResult(f"the radial scale at Z = {Z:g} overflows") from None
    if (n, l) == (1, 0):
        return lambda r: 2.0 * scale * np.exp(-np.asarray(r, dtype=float) / a)
    if (n, l) == (2, 0):
        return lambda r: (
            scale / (2.0 * np.sqrt(2.0))
            * (2.0 - np.asarray(r, dtype=float) / a)
            * np.exp(-np.asarray(r, dtype=float) / (2.0 * a))
        )
    if (n, l) == (2, 1):
        return lambda r: (
            scale / (2.0 * np.sqrt(6.0))
            * (np.asarray(r, dtype=float) / a)
            * np.exp(-np.asarray(r, dtype=float) / (2.0 * a))
        )
    raise UnsupportedState(f"radial function for (n, l) = ({n}, {l}) not provided")


# R_nl^2 = a^-3 sum_k c_k (r/a)^k e^{-beta r/a}, written out for each level in
# scope: (n, l) -> (beta, (c_0, c_1, ...)).  Kept apart from hydrogen_radial,
# which the fixed-grid oracle evaluates pointwise.
_RADIAL_DENSITY = {
    (1, 0): (2.0, (4.0,)),
    (2, 0): (1.0, (0.5, -0.5, 0.125)),
    (2, 1): (1.0, (0.0, 0.0, 1.0 / 24.0)),
}


class UehlingShift(NamedTuple):
    """Level shift with its unit conversion and quadrature metadata."""

    mev: float
    mhz: float
    est_error_mev: float
    panels: int


def uehling_shift(n: int, l: int, Z: float) -> UehlingShift:
    """First-order shift integral_0^inf R_nl^2 U(r) r^2 dr, in MeV and MHz.

    The r integral is taken first and in closed form: with t = cosh(theta),
    integral_0^inf dr r R_nl^2 e^{-2 m r t} = (1/a) sum_k c_k (k+1)!/s^{k+2}
    with s = beta + 2 m a t.  That leaves one spectral integral,

        shift = -(2 alpha / 3 pi) (Z alpha)^2 m integral_0^inf dtheta
                tanh^2(theta) (1 + 1/(2 cosh^2 theta)) sum_k c_k (k+1)!/s^{k+2},

    taken on unit-width theta panels out to where s has grown 1e9-fold, so
    that the cut-off tail is below 1e-18 of the value.  `panels` is the node
    count of the reported rule; `est_error_mev` its difference from the rule
    with half the nodes.
    """
    try:
        beta, coeffs = _RADIAL_DENSITY[(n, l)]
    except KeyError:
        raise UnsupportedState(f"radial density for (n, l) = ({n}, {l}) not provided") from None
    _check_nuclear_charge(Z)
    zeta = Z * FINE_STRUCTURE
    scale = -2.0 * FINE_STRUCTURE / (3.0 * np.pi) * zeta * zeta * ELECTRON_MASS
    overflow = f"the shift at Z = {Z:g} overflows"
    # checked before the rule too: where the scale overflows, theta_max can
    _finite(scale * MEV_TO_MHZ, overflow)
    # 1/s = q / (beta q + cosh theta) with q = 1/(2 m a): finite for any finite Z
    q = 0.5 * zeta
    weights = [math.factorial(k + 1) * c for k, c in enumerate(coeffs)]

    def integrand(theta):
        ch = np.cosh(theta)
        sech = 1.0 / ch
        inv_s = q / (beta * q + ch)
        density = sum(c * inv_s ** (k + 2) for k, c in enumerate(weights))
        return np.tanh(theta) ** 2 * (1.0 + 0.5 * sech * sech) * density

    theta_max = math.acosh(1e9 * (1.0 + beta * q))
    edges = np.linspace(0.0, theta_max, math.ceil(theta_max) + 1)
    fine, err = _doubled_rule(integrand, edges, "shift")
    mev = scale * fine
    return UehlingShift(mev=mev, mhz=_finite(mev * MEV_TO_MHZ, overflow), est_error_mev=abs(scale) * err,
                        panels=2 * _NODES * (len(edges) - 1))


def uehling_shift_fixed_grid(n: int, l: int, Z: float, segments: int = 24) -> float:
    """Composite 12-node Gauss-Legendre oracle for the shift, in MeV.

    Deliberately independent of uehling_shift: the r integral is outermost,
    on fixed panels, with R_nl from hydrogen_radial and U(r) evaluated
    pointwise in the t-form (uehling_potential) instead of the closed-form
    radial integral under a theta rule.  Doubling `segments` probes convergence.
    """
    if segments < 1:  # no panel would sum to 0.0
        raise ValueError(f"segments must be at least 1, got {segments!r}")
    radial = hydrogen_radial(n, l, Z)
    x, w = np.polynomial.legendre.leggauss(12)
    r_max = 20.0 / ELECTRON_MASS
    edges = np.linspace(0.0, r_max, segments + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        for xi, wi in zip(x, w):
            r = mid + half * xi
            total += wi * half * radial(r) ** 2 * uehling_potential(r, Z) * r * r
    return total


# ---------------------------------------------------------------------------
# anomalous moment

def _f2_quadrature(alpha: float):
    """Nested fixed Gauss-Legendre rule for the Feynman-parameter vertex integral.

    At zero momentum transfer the fermion mass cancels and the integrand
    reduces to 2z/(1-z) on the triangle 0 < y < 1-z, 0 < z < 1.  Each z node
    carries a _NODES-point y rule on (0, 1 - z); the inner integral is then
    the polynomial 2z, so the rule is exact up to roundoff.  Returns (value,
    error estimate, node count) as _doubled_rule does for the z rule.
    """

    def inner(z):
        x, w = _legendre(_NODES)
        half = 0.5 * (1.0 - z)[:, None]  # y nodes half * (x + 1) on (0, 1 - z)
        return (half * w * (2.0 * z / (1.0 - z))[:, None]).sum(axis=1)

    val, err = _doubled_rule(inner, np.array([0.0, 1.0]), "vertex")
    scale = alpha / (2.0 * np.pi)
    return scale * val, scale * err, 2 * _NODES * _NODES


# ---------------------------------------------------------------------------
# spectral current identities

def _divergence(outer, insert):
    """Samples of the concatenated bilinear of i slash(dp) G, G = insert, from window blocks
    (npoints, 4, 4, 4) with the i p_mu of d_mu exp(i p.x) on the bra rows, mu first.  As (k, l) and
    (l, k) match alike, the ket side's sum against x is the conjugate of the bra side's against dirac_adjoint(x)."""
    x = GAMMA_STACK @ insert
    return np.einsum("xmab,mab->x", outer, x) + np.einsum("xmab,mab->x", outer, dirac_adjoint(x)).conj()


def vector_divergence_check(state, points) -> float:
    """Max |d_mu J^mu| of the concatenated vector current, evaluated spectrally.

    Each surviving pair contributes i wbar_k slash(dp) w_l, which vanishes
    identically because slash(p) w = -nu w on both branches and the pair
    frequencies match; the return value is the roundoff residual.
    """
    from .states import _concatenated_outer

    with np.errstate(all="ignore"):  # NaN samples give a NaN residual, which fails
        outer = _concatenated_outer(state, points, state.coeff[:, None] * (1j * lower_index(state.p[:, 0])))
        return _max_residual(_divergence(outer, I4))


def axial_divergence_tree(state, mass: float, points):
    """Spectral (lhs, rhs) sample arrays of the tree-level axial identity.

    lhs = d_mu J5^mu with J5 the concatenated axial current; rhs is the
    concatenated pseudoscalar density times -2i mass.  For a state of sharp
    tau frequency nu the exact relation is lhs = (2 i nu) * density, so lhs
    equals rhs on the backward subspace (nu = -mass) and equals -rhs on the
    forward one; callers compare on the subspace they prepared.  Every mode
    must carry the mass to ATOL_SHELL (relative), else MassMismatch; a
    non-finite sample raises NonfiniteResult.
    """
    if (np.abs(state.mass - mass) > ATOL_SHELL * max(1.0, mass)).any():
        raise MassMismatch("state carries a mass different from the sharp value")
    from .states import _concatenated_outer

    channels = np.concatenate([np.ones((len(state.coeff), 1)), 1j * lower_index(state.p[:, 0])], axis=1)
    with np.errstate(all="ignore"):  # an overflowing sample is refused
        outer = _concatenated_outer(state, points, state.coeff[:, None] * channels)
        density, lhs = np.einsum("xab,ab->x", outer[:, 0], GAMMA5), _divergence(outer[:, 1:], GAMMA5)
        return _finite((lhs, -2j * mass * density), "the axial divergence samples are not finite")


# ---------------------------------------------------------------------------
# result records

def _record(quantity: str, value: float, units: str, est_error: float, panels: int) -> dict:
    return {"quantity": quantity, "value": value, "units": units, "est_error": est_error,
            "quadrature_panels": panels}


def shift_record(n: int, l: int, Z: float) -> dict:
    res = uehling_shift(n, l, Z)
    return _record(f"uehling_shift_n{n}_l{l}_Z{Z:g}", res.mhz, "MHz", res.est_error_mev * MEV_TO_MHZ, res.panels)


def f2_record(alpha: float = FINE_STRUCTURE) -> dict:
    value, err, panels = _f2_quadrature(alpha)
    return _record("a_e", value, "dimensionless", err, panels)


def anomaly_record(electric, magnetic) -> dict:
    value = float(anomaly_rhs(FieldConfiguration.from_fields(electric, magnetic))) + 0.0
    _finite(value, "the contraction eps^{mnrs} F_mn F_rs overflows")
    return _record("axial_anomaly_rhs", value, "MeV^4", 0.0, 0)
