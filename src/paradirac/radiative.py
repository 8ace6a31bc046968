"""Photon-mediated endpoints: propagators, vacuum-polarization potential,
hydrogenic level shifts, the anomalous moment, and current identities.

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
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (
    ATOL_ALGEBRA,
    ATOL_SHELL,
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    FINE_STRUCTURE,
    GAMMA5,
    I4,
    MEV_TO_MHZ,
    METRIC,
    TWO_PI,
    minkowski_dot,
    slash,
)
from .errors import (
    MassMismatch,
    NonfiniteResult,
    NonpositiveRadius,
    OnLightCone,
    OnMassShell,
    QuadratureNonconvergence,
    UnsupportedState,
)
from .states import SpectralState, bilinear_concatenated

# ---------------------------------------------------------------------------
# field configurations and the antisymmetric symbol

_LEVI3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI3[_i, _j, _k] = 1.0
    _LEVI3[_j, _i, _k] = -1.0
_LEVI3.setflags(write=False)


def epsilon_tensor():
    """Rank-4 antisymmetric symbol, eps[0,1,2,3] = +1, built from determinants."""
    eye = np.eye(4)
    eps = np.zeros((4, 4, 4, 4))
    for mu in range(4):
        for nu in range(4):
            for rho in range(4):
                for sig in range(4):
                    eps[mu, nu, rho, sig] = np.linalg.det(eye[[mu, nu, rho, sig]])
    return eps


_EPSILON4 = epsilon_tensor()
_EPSILON4.setflags(write=False)


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

    @property
    def electric(self):
        return self.tensor[..., 0, 1:].copy()

    @property
    def magnetic(self):
        return 0.5 * np.einsum("ljk,...jk->...l", _LEVI3, self.tensor[..., 1:, 1:])

    def lowered(self):
        """F_{mu nu} = g F g for the diagonal metric."""
        return np.einsum("am,...mn,nb->...ab", METRIC, self.tensor, METRIC)


def anomaly_rhs(field: FieldConfiguration, charge: float = ELEMENTARY_CHARGE):
    """-(charge^2/(4 pi)^2) eps^{mnrs} F_mn F_rs, pointwise for batched F.

    The contraction is carried out by explicit index sums over the rank-4
    symbol; the proportionality to E.B is emergent, not hard-coded.
    """
    f_low = field.lowered()
    contraction = np.einsum("mnrs,...mn,...rs->...", _EPSILON4, f_low, f_low)
    return -(charge**2) / (2.0 * TWO_PI) ** 2 * contraction


# ---------------------------------------------------------------------------
# propagators and sourced potentials

def photon_propagator(k) -> float:
    """Momentum-space photon kernel 1/k.k; poles are excluded, not smeared."""
    k = np.asarray(k, dtype=float)
    kk = float(minkowski_dot(k, k))
    if abs(kk) < ATOL_ALGEBRA * max(1.0, float(k @ k)):
        raise OnLightCone("photon kernel evaluated on the light cone")
    return 1.0 / kk


def self_potential(j_fourier, charge: float = ELEMENTARY_CHARGE):
    """Potential sourced by a momentum-space current: A~(k) = charge J~(k)/k.k.

    Preserves transversality: k.A~ = 0 whenever k.J~ = 0.
    """

    def a_fourier(k):
        k = np.asarray(k, dtype=float)
        return charge * np.asarray(j_fourier(k), dtype=complex) * photon_propagator(k)

    return a_fourier


def substitution_propagator(r, mbar: float):
    """Mass-shifted fermion kernel (mbar I - slash(r)) / (mbar^2 + r.r).

    Satisfies (mbar I - slash(r)) (mbar I + slash(r)) = (mbar^2 + r.r) I
    since slash(r)^2 = -(r.r) I.
    """
    if mbar <= 0.0:
        raise ValueError("substitution mass must be positive")
    r = np.asarray(r, dtype=float)
    denom = mbar**2 + float(minkowski_dot(r, r))
    if abs(denom) < ATOL_ALGEBRA * max(1.0, mbar**2, float(r @ r)):
        raise OnMassShell("substitution kernel evaluated on its mass shell")
    return (mbar * I4 - slash(r)) / denom


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

def uehling_ratio(r: float, m_e: float = ELECTRON_MASS, alpha: float = FINE_STRUCTURE) -> float:
    """U(r) divided by the bare Coulomb -Z alpha / r: the screening profile.

    (2 alpha / 3 pi) * integral_1^inf dt e^{-2 m r t} (1 + 1/(2t^2))
    sqrt(t^2 - 1)/t^2.  With t = 1 + v^2 the sqrt(t - 1) endpoint becomes a
    smooth factor v, and e^{-2 m r} leaves the integral.  The v panels halve
    in width towards v = 0, so that both the v ~ 1 structure and the
    1/sqrt(2 m r) decay are resolved at every radius.
    """
    if r <= 0.0:
        raise NonpositiveRadius("the potential is defined for r > 0")
    two_mr = 2.0 * m_e * r
    v_max = math.sqrt(_DECAY / two_mr)
    if not math.isfinite(v_max):
        raise NonfiniteResult(f"the screening-profile rule overflows at r = {r:g}")
    halvings = max(3, math.ceil(math.log2(4.0 * v_max)))
    edges = v_max * np.concatenate(([0.0], 0.5 ** np.arange(halvings, -1, -1)))

    def integrand(v):
        v2 = v * v
        s = 1.0 / (1.0 + v2)  # 1/t
        return 2.0 * (v2 * s) * (np.sqrt(2.0 + v2) * s) * (1.0 + 0.5 * s * s) * np.exp(-two_mr * v2)

    fine = _doubled_rule(integrand, edges, "screening-profile")[0]
    return 2.0 * alpha / (3.0 * np.pi) * math.exp(-two_mr) * fine


def uehling_potential(r: float, Z: float, m_e: float = ELECTRON_MASS,
                      alpha: float = FINE_STRUCTURE) -> float:
    """Vacuum-polarization correction to the Coulomb potential, in MeV.

    U(r) = -(Z alpha / r) * uehling_ratio(r): a short-range attractive
    deepening of the Coulomb well, screened beyond the Compton scale.
    """
    if r <= 0.0:
        raise NonpositiveRadius("the potential is defined for r > 0")
    return -(Z * alpha / r) * uehling_ratio(r, m_e, alpha)


def uehling_potential_hyperbolic(r: float, Z: float, m_e: float = ELECTRON_MASS,
                                 alpha: float = FINE_STRUCTURE) -> float:
    """Independent realization through t = cosh(theta).

    Same potential, different integrand and integration variable:
    e^{-2 m r} integral_0^inf dtheta e^{-2 m r (cosh theta - 1)} tanh^2(theta)
    (1 + 1/(2 cosh^2 theta)), on uniform panels of width at most one and at
    least eight of them, which resolves the 1/sqrt(2 m r) width at theta = 0.
    """
    if r <= 0.0:
        raise NonpositiveRadius("the potential is defined for r > 0")
    two_mr = 2.0 * m_e * r
    theta_max = math.acosh(1.0 + _DECAY / two_mr)
    if not math.isfinite(theta_max):
        raise NonfiniteResult(f"the hyperbolic-form rule overflows at r = {r:g}")
    edges = np.linspace(0.0, theta_max, max(8, math.ceil(theta_max)) + 1)

    def integrand(theta):
        ch = np.cosh(theta)
        sech = 1.0 / ch
        return np.exp(-two_mr * (ch - 1.0)) * (1.0 + 0.5 * sech * sech) * np.tanh(theta) ** 2

    fine = _doubled_rule(integrand, edges, "hyperbolic-form")[0]
    return -(Z * alpha / r) * (2.0 * alpha / (3.0 * np.pi)) * math.exp(-two_mr) * fine


def bohr_radius(Z: float, m_e: float = ELECTRON_MASS, alpha: float = FINE_STRUCTURE) -> float:
    return 1.0 / (Z * alpha * m_e)


def hydrogen_radial(n: int, l: int, Z: float, m_e: float = ELECTRON_MASS,
                    alpha: float = FINE_STRUCTURE):
    """Nonrelativistic hydrogenic radial function R_nl for (1,0), (2,0), (2,1).

    Normalized so integral_0^inf R^2 r^2 dr = 1; r in MeV^-1.
    """
    a = bohr_radius(Z, m_e, alpha)
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


def uehling_shift(n: int, l: int, Z: float, m_e: float = ELECTRON_MASS,
                  alpha: float = FINE_STRUCTURE) -> UehlingShift:
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
    zeta = Z * alpha
    scale = -2.0 * alpha / (3.0 * np.pi) * zeta * zeta * m_e
    overflow = NonfiniteResult(f"the shift at Z = {Z:g} overflows")
    # checked before the rule too: where the scale overflows, theta_max can
    if not math.isfinite(scale * MEV_TO_MHZ):
        raise overflow
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
    if not math.isfinite(mev * MEV_TO_MHZ):
        raise overflow
    return UehlingShift(mev=mev, mhz=mev * MEV_TO_MHZ, est_error_mev=abs(scale) * err,
                        panels=2 * _NODES * (len(edges) - 1))


def uehling_shift_fixed_grid(n: int, l: int, Z: float, segments: int = 24,
                             m_e: float = ELECTRON_MASS,
                             alpha: float = FINE_STRUCTURE) -> float:
    """Composite 12-node Gauss-Legendre oracle for the shift, in MeV.

    Deliberately independent of uehling_shift: the r integral is outermost,
    on fixed panels, with R_nl from hydrogen_radial and U(r) evaluated
    pointwise in the t-form (uehling_potential) instead of the closed-form
    radial integral under a theta rule.  Doubling `segments` probes convergence.
    """
    radial = hydrogen_radial(n, l, Z, m_e, alpha)
    x, w = np.polynomial.legendre.leggauss(12)
    r_max = 20.0 / m_e
    edges = np.linspace(0.0, r_max, segments + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        for xi, wi in zip(x, w):
            r = mid + half * xi
            total += wi * half * radial(r) ** 2 * uehling_potential(r, Z, m_e, alpha) * r * r
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


def f2_anomalous_moment(alpha: float = FINE_STRUCTURE) -> float:
    """One-loop anomalous moment F2(0) by 2D quadrature; analytically alpha/2pi."""
    return _f2_quadrature(alpha)[0]


# ---------------------------------------------------------------------------
# spectral current identities

def vector_divergence_check(state: SpectralState, points) -> float:
    """Max |d_mu J^mu| of the concatenated vector current, evaluated spectrally.

    Each surviving pair contributes i wbar_k slash(dp) w_l, which vanishes
    identically because slash(p) w = -nu w on both branches and the pair
    frequencies match; the return value is the roundoff residual.
    """
    samples = bilinear_concatenated(state, lambda dp: 1j * slash(dp), points)
    return float(np.abs(samples).max()) if samples.size else 0.0


def axial_divergence_tree(state: SpectralState, mass: float, points):
    """Spectral (lhs, rhs) sample arrays of the tree-level axial identity.

    lhs = d_mu J5^mu with J5 the concatenated axial current; rhs is the
    concatenated pseudoscalar density times -2i mass.  For a state of sharp
    tau frequency nu the exact relation is lhs = (2 i nu) * density, so lhs
    equals rhs on the backward subspace (nu = -mass) and equals -rhs on the
    forward one; callers compare on the subspace they prepared.  Every mode
    must carry the mass to ATOL_SHELL (relative), else MassMismatch.
    """
    if (np.abs(state.mass - mass) > ATOL_SHELL * max(1.0, mass)).any():
        raise MassMismatch("state carries a mass different from the sharp value")
    lhs = bilinear_concatenated(state, lambda dp: 1j * slash(dp) @ GAMMA5, points)
    rhs = -2j * mass * bilinear_concatenated(state, GAMMA5, points)
    return lhs, rhs


# ---------------------------------------------------------------------------
# result records

def shift_record(n: int, l: int, Z: float) -> dict:
    res = uehling_shift(n, l, Z)
    return {
        "quantity": f"uehling_shift_n{n}_l{l}_Z{Z:g}",
        "value": res.mhz,
        "units": "MHz",
        "est_error": res.est_error_mev * MEV_TO_MHZ,
        "quadrature_panels": res.panels,
    }


def f2_record(alpha: float = FINE_STRUCTURE) -> dict:
    value, err, panels = _f2_quadrature(alpha)
    return {
        "quantity": "a_e",
        "value": value,
        "units": "dimensionless",
        "est_error": err,
        "quadrature_panels": panels,
    }


def anomaly_record(electric, magnetic, charge: float = ELEMENTARY_CHARGE) -> dict:
    value = float(anomaly_rhs(FieldConfiguration.from_fields(electric, magnetic), charge)) + 0.0
    if not math.isfinite(value):
        raise NonfiniteResult("the contraction eps^{mnrs} F_mn F_rs overflows")
    return {
        "quantity": "axial_anomaly_rhs",
        "value": value,
        "units": "MeV^4",
        "est_error": 0.0,
        "quadrature_panels": 0,
    }
