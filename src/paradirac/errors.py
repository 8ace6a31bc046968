"""Exception types raised by the numerics layer.

All of these derive from ValueError so that callers who do not care about the
fine distinctions can catch the usual thing.  Each class marks one specific
precondition of the kinematics or of a quadrature.
"""


class SuperluminalMomentum(ValueError):
    """Four-momentum with p.p > 0 (spacelike) where a timelike one is required."""


class ZeroEnergy(ValueError):
    """Four-momentum with vanishing time component; the energy sign is undefined."""


class MasslessState(ValueError):
    """Exactly lightlike momentum where the rest-frame construction needs m > 0."""


class NonUnitSpin(ValueError):
    """Spin four-vector with s.s != +1."""


class BoxMismatch(ValueError):
    """Two states quantized with different box edges cannot be combined."""


class DegenerateInterval(ValueError):
    """Evolution over a zero parameter-time interval."""


class SubspaceViolation(ValueError):
    """Operation restricted to the positive-frequency subspace got something else."""


class UnresolvedDelta(ValueError):
    """No lattice node satisfies the conservation delta within tolerance."""


class ForwardSingular(ValueError):
    """Unscreened Coulomb kernel evaluated at zero momentum transfer."""


class GridIncompatible(ValueError):
    """Kernel matrix shape does not match the spectral basis."""


class OnLightCone(ValueError):
    """Photon kernel 1/k.k taken at a momentum transfer with k.k = 0 within tolerance."""


class OnMassShell(ValueError):
    """Two-body kernel evaluated at its pole within tolerance."""


class NonpositiveRadius(ValueError):
    """Radial coordinate must be strictly positive."""


class UnsupportedState(ValueError):
    """Hydrogenic (n, l) outside the implemented table."""


class QuadratureNonconvergence(ValueError):
    """A fixed quadrature rule differs from the same rule with doubled nodes by
    more than the relative bound it must meet."""


class NonfiniteResult(ValueError):
    """Finite arguments whose result overflows, or is otherwise not finite, in
    double precision."""


class MassMismatch(ValueError):
    """Modes of unequal rest mass where a sharp-mass state is required."""


class NoDominantEigenvalue(ValueError):
    """The two eigenvalues of largest magnitude tie within tolerance."""
