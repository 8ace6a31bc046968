"""Seeded random generators for momenta, modes, and spectral states.

Every generator takes an explicit ``numpy.random.Generator`` so that the
verification suites and the test-suite are reproducible bit for bit: the
same seed always yields the same states, hence the same residuals.
"""

from __future__ import annotations

import numpy as np

from .algebra import TWO_PI, _dot, _norm, four_vector
from .states import Mode, SpectralState, Subspace

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


def random_timelike_momentum(rng, mass=DEFAULT_MASS, phi=None, p_scale=1.0):
    """On-shell four-momentum with rest mass ``mass`` and energy sign ``phi``.

    phi=None draws the energy sign uniformly; p_scale sets the spatial
    momentum spread (normal components with that standard deviation).
    """
    if phi is None:
        phi = 1 if rng.integers(0, 2) == 0 else -1
    pvec = rng.normal(scale=p_scale, size=3)
    e = phi * np.sqrt(mass**2 + pvec @ pvec)
    return four_vector(e, *pvec)


def random_spin_coefficients(rng):
    """Normalized complex doublet of spin coefficients."""
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    return a / np.linalg.norm(a)


def random_spinor_draws(rng, count: int):
    """The inputs of the spinors suite as arrays: the stream of a loop that
    calls, per draw k, random_timelike_momentum with phi = (-1)^k, two
    random_spin_coefficients, and random_unit_vector on every tenth draw.

    Returns p (count, 4), phi (count,), a_u and a_v (count, 2) and the spin
    directions (count // 10 rounded up, 3).  One block of normals, sliced
    per draw, is the same stream as those calls make one at a time, and the
    arithmetic is rounded as theirs is; a change to any of them must be
    made here too.
    """
    draw = np.arange(count)
    tenth = draw % 10 == 0
    sizes = np.where(tenth, 14, 11)
    starts = np.cumsum(sizes) - sizes
    normals = rng.normal(size=int(sizes.sum()))
    rows = normals[starts[:, None] + np.arange(11)]
    spin_dirs = normals[starts[tenth, None] + np.arange(11, 14)]
    phi = np.where(draw % 2 == 0, 1.0, -1.0)
    pvec = rows[:, :3]
    energy = phi * np.sqrt(DEFAULT_MASS**2 + _dot(pvec, pvec))
    p = np.concatenate([energy[:, None], pvec], axis=1)
    a_u, a_v = (rows[:, j:j + 2] + 1j * rows[:, j + 2:j + 4] for j in (3, 7))
    a_u, a_v = (a / _norm(a)[:, None] for a in (a_u, a_v))
    return p, phi, a_u, a_v, spin_dirs / _norm(spin_dirs)[:, None]


def random_mode(rng, mass=DEFAULT_MASS, branch=None, phi=None, p_scale=1.0):
    """Single random plane-wave mode."""
    if branch is None:
        branch = 1 if rng.integers(0, 2) == 0 else -1
    p = random_timelike_momentum(rng, mass=mass, phi=phi, p_scale=p_scale)
    return Mode(p=p, branch=branch, a=random_spin_coefficients(rng))


def random_state(
    rng,
    n_modes=4,
    mass=DEFAULT_MASS,
    subspace=None,
    box_edge=TWO_PI,
    p_scale=1.0,
):
    """Superposition of ``n_modes`` random modes with random coefficients.

    subspace=Subspace.S_PLUS restricts to branch*sign(p0) = +1 (mixing both
    energy signs), S_MINUS to -1; None mixes all four (branch, sign) cells.
    """
    terms = []
    for _ in range(n_modes):
        if subspace is None:
            branch, phi = None, None
        else:
            phi = 1 if rng.integers(0, 2) == 0 else -1
            want = 1 if subspace is Subspace.S_PLUS else -1
            branch = want * phi
        mode = random_mode(rng, mass=mass, branch=branch, phi=phi, p_scale=p_scale)
        coeff = rng.normal() + 1j * rng.normal()
        terms.append((coeff, mode))
    return SpectralState(terms=tuple(terms), box_edge=box_edge)
