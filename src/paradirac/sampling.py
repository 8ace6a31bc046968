"""Seeded random generators for momenta, modes, and spectral states.

Every generator takes an explicit ``numpy.random.Generator`` so that the
verification suites and the test-suite are reproducible bit for bit: the
same seed always yields the same states, hence the same residuals.
"""

from __future__ import annotations

import numpy as np

from .algebra import TWO_PI, _dot, _finite, _norm, mass_of
from .states import Mode, SpectralState, Subspace, _label_rows

# default mass for generated modes, in the natural MeV units used throughout
DEFAULT_MASS = 1.0


def random_unit_vector(rng):
    """Isotropic point on the 2-sphere."""
    v = rng.normal(size=3)
    n = np.linalg.norm(v)
    while n < 1e-12:  # essentially never; guards the degenerate draw
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
    return v / n


def _check_draw(mass, phi=None, subspace=None):
    if not 0.0 < mass < np.inf:  # NaN fails both comparisons; checked before any draw
        raise ValueError(f"mass must be positive and finite, got {mass}")
    if phi not in (None, 1, -1):
        raise ValueError(f"phi must be +1, -1 or None, got {phi!r}")
    if subspace not in (None, Subspace.S_PLUS, Subspace.S_MINUS):
        raise ValueError(f"subspace must be Subspace.S_PLUS, Subspace.S_MINUS or None, got {subspace!r}")


def _sign(rng):
    return 1 if rng.integers(0, 2) == 0 else -1


def _on_shell(phi, pvec, mass):
    """Four-momenta of spatial parts pvec (..., 3) and energy phi sqrt(m^2 + p.p);
    an energy that overflows raises NonfiniteResult."""
    with np.errstate(all="ignore"):  # an overflowing m^2 or p.p gives an infinite energy, refused here
        try:
            square = mass**2
        except OverflowError:  # a Python float's square past the float range
            square = np.inf
        energy = _finite(phi * np.sqrt(square + _dot(pvec, pvec)), "mode fields must be finite")
    return np.concatenate((np.expand_dims(energy, -1), pvec), axis=-1)


def _unit_doublets(normals):
    """Unit spin doublets of normals (..., 4): the real parts, then the imaginary."""
    a = normals[..., :2] + 1j * normals[..., 2:4]
    return a / _norm(a)[..., None]


def random_timelike_momentum(rng, mass=DEFAULT_MASS, phi=None, p_scale=1.0):
    """On-shell four-momentum with rest mass ``mass`` and energy sign ``phi``.

    phi=None draws the energy sign uniformly; p_scale sets the spatial
    momentum spread (normal components with that standard deviation).  An
    overflowing energy raises NonfiniteResult.
    """
    _check_draw(mass, phi)
    if phi is None:
        phi = _sign(rng)
    return _on_shell(phi, rng.normal(scale=p_scale, size=3), mass)


def random_spin_coefficients(rng):
    """Normalized complex doublet of spin coefficients."""
    return _unit_doublets(rng.normal(size=4))


def random_spinor_draws(rng, count: int):
    """The inputs of the spinors suite as arrays: the stream of a loop that
    calls, per draw k, random_timelike_momentum with phi = (-1)^k, two
    random_spin_coefficients, and random_unit_vector on every tenth draw.

    Returns p (count, 4), phi (count,), a_u and a_v (count, 2) and the spin
    directions (count // 10 rounded up, 3).  One block of normals, sliced
    per draw, is the same stream as those calls make one at a time, and
    their arithmetic runs on the stacked draws.
    """
    draw = np.arange(count)
    tenth = draw % 10 == 0
    sizes = np.where(tenth, 14, 11)
    starts = np.cumsum(sizes) - sizes
    normals = rng.normal(size=int(sizes.sum()))
    rows = normals[starts[:, None] + np.arange(11)]
    spin_dirs = normals[starts[tenth, None] + np.arange(11, 14)]
    phi = np.where(draw % 2 == 0, 1.0, -1.0)
    p = _on_shell(phi, rows[:, :3], DEFAULT_MASS)
    return p, phi, _unit_doublets(rows[:, 3:7]), _unit_doublets(rows[:, 7:]), spin_dirs / _norm(spin_dirs)[:, None]


def _mode_draws(rng, branch, phi, p_scale, size):
    """One mode's draws in stream order, [branch, phi, normals]: each sign where it
    is None, the momentum's three normals (times p_scale), then size - 3 more."""
    if branch is None:
        branch = _sign(rng)
    if phi is None:
        phi = _sign(rng)
    return [branch, phi, *rng.normal(scale=p_scale, size=3).tolist(), *rng.normal(size=size - 3).tolist()]


def random_mode(rng, mass=DEFAULT_MASS, branch=None, phi=None, p_scale=1.0):
    """Single random plane-wave mode."""
    _check_draw(mass, phi)
    row = np.array(_mode_draws(rng, branch, phi, p_scale, 7))
    return Mode(_on_shell(row[1], row[2:5], mass), int(row[0]), _unit_doublets(row[5:]))


def _signed_modes(rng, branch, phi, mass=DEFAULT_MASS, p_scale=1.0):
    """The Modes of len(branch) random_mode calls with the given signs, one per
    entry of branch and phi: their normals are one (n, 7) block, and
    _on_shell and _unit_doublets round each row as for one mode."""
    _check_draw(mass)
    if not set(phi) <= {1, -1}:
        raise ValueError(f"phi must be +1 or -1, got {phi!r}")
    normals = rng.normal(size=(len(branch), 7))
    p = _on_shell(np.array(phi, dtype=float), 0.0 + p_scale * normals[:, :3], mass)  # normal(scale=) is 0 + scale z
    return list(map(Mode, p, branch, _unit_doublets(normals[:, 3:])))


def random_state(rng, n_modes=4, mass=DEFAULT_MASS, subspace=None, p_scale=1.0):
    """Superposition of ``n_modes`` random modes with random coefficients, in
    the 2 pi box.

    subspace=Subspace.S_PLUS restricts to branch*sign(p0) = +1 (mixing both
    energy signs), S_MINUS to -1; None mixes all four (branch, sign) cells.
    Each mode draws as random_mode, then its coefficient; no Mode is built.  An
    overflowing momentum raises NonfiniteResult.
    """
    _check_draw(mass, subspace=subspace)
    rows = []
    for _ in range(n_modes):
        phi = None if subspace is None else _sign(rng)
        branch = None if subspace is None else (phi if subspace is Subspace.S_PLUS else -phi)
        rows.append(_mode_draws(rng, branch, phi, p_scale, 9))
    rows = np.array(rows).reshape(-1, 11)
    p = _on_shell(rows[:, 1], rows[:, 2:5], mass)
    with np.errstate(all="ignore"):  # mass_of's sums of squares may overflow for a finite p
        labels = _label_rows(p, _unit_doublets(rows[:, 5:9]), rows[:, 0], mass_of(p))
    return SpectralState._from_rows(rows[:, 9] + 1j * rows[:, 10], labels, TWO_PI)
