"""Seeded input generators for the benchmark workloads.

Everything here draws from a ``numpy.random.Generator`` built from the
command-line seed, and from nothing else: the generators do not use
``paradirac.sampling``, so changes there cannot change the inputs.  The
spectral generators return raw arrays; turning them into ``Mode`` objects is
library work that the workloads time.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# MeV; equal to paradirac.algebra.ELECTRON_MASS, the CLI's default mass.
ELECTRON_MASS = 0.51099895

# log10(p / m_e) range of the Mott momenta.  The top of it is where the
# kinematics lose precision, and the benchmark must keep showing that.
MOTT_LOG_RANGE = (-3.0, 4.0)
MOTT_STRATA = 8
# Range of the Mott angle counts, drawn by strata too, so that every cycle
# holds cheap and dear tables alike.
MOTT_ANGLES = (40, 200)

# (state label, Z) points of the uehling reference table.
UEHLING_GRID = tuple(
    (state, z) for state in ("1s", "2s", "2p") for z in (1, 2, 3, 6, 10, 20, 40, 80)
)

# One cycle of the CLI argv stream.  The weights put mott, uehling and verify
# each at 20% or more of warm busy time, and keep p50 inside the mott group
# and p90 inside the uehling group of the sorted latencies.
CLI_CYCLE = (
    ("mott",) * 8 + ("uehling",) * 5 + ("verify",)
    + ("g2",) * 2 + ("anomaly",) * 2 + ("propagate-demo",) * 2
)

MASSES = (0.5, 1.0, 2.0)

# spectral_large sizes: modes of state a (b has twice as many) and of the
# Moller momenta, modes of the current state, and two-body terms.
LARGE_MODES = 250
LARGE_CURRENT_MODES = 100
LARGE_TWO_TERMS = 200
LARGE_S2_TERMS = 80


class CliOp(NamedTuple):
    command: str
    argv: list
    meta: dict


def cli_pass(rng, cycles) -> list[CliOp]:
    """``cycles`` shuffled cycles of CLI invocations with seeded arguments.
    The uehling points walk seeded permutations of UEHLING_GRID, so a pass
    of 24 or more uehling ops covers the whole grid."""
    grid = _grid_walk(rng)
    return [op for _ in range(cycles) for op in cli_cycle(rng, grid)]


def _grid_walk(rng):
    while True:
        for index in rng.permutation(len(UEHLING_GRID)):
            yield UEHLING_GRID[int(index)]


def cli_cycle(rng, uehling_points) -> list[CliOp]:
    """One shuffled cycle of CLI invocations; uehling takes its (state, Z)
    points from the ``uehling_points`` iterator."""
    strata = iter(rng.permutation(MOTT_STRATA))
    count_strata = iter(rng.permutation(MOTT_STRATA))
    ops = []
    for command in rng.permutation(np.array(CLI_CYCLE)):
        command = str(command)
        if command == "mott":
            lo, hi = MOTT_LOG_RANGE
            u = lo + (hi - lo) * (next(strata) + rng.random()) / MOTT_STRATA
            p_mag = float(ELECTRON_MASS * 10.0**u)
            z = int(rng.integers(1, 93))
            first, last = float(rng.uniform(0.5, 10.0)), float(rng.uniform(170.0, 180.0))
            lo, hi = MOTT_ANGLES
            count = lo + int((hi - lo) * (next(count_strata) + rng.random()) / MOTT_STRATA)
            argv = ["mott", f"--p-mag={p_mag!r}", f"--Z={z}",
                    f"--angles={first!r}:{last!r}:{count}"]
            meta = {"p_mag": p_mag, "Z": z, "first": first, "last": last, "count": count}
        elif command == "uehling":
            state, z = next(uehling_points)
            argv = ["uehling", f"--state={state}", f"--Z={z}"]
            meta = {"state": state, "Z": z}
        elif command == "verify":
            seed = int(rng.integers(0, 10**6))
            argv = ["verify", "--suite=all", f"--seed={seed}"]
            meta = {"seed": seed}
        elif command == "g2":
            alpha = float(10.0 ** rng.uniform(-4.0, 0.0))
            argv = ["g2", f"--alpha={alpha!r}"]
            meta = {"alpha": alpha}
        elif command == "anomaly":
            e_field = [float(v) for v in rng.normal(scale=5.0, size=3)]
            b_field = [float(v) for v in rng.normal(scale=5.0, size=3)]
            argv = ["anomaly", "--E=" + ",".join(map(repr, e_field)),
                    "--B=" + ",".join(map(repr, b_field))]
            meta = {"E": e_field, "B": b_field}
        else:
            seed = int(rng.integers(0, 10**6))
            dtau = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0))
            which = int(rng.choice([-1, 1]))
            modes = int(rng.integers(2, 9))
            argv = ["propagate-demo", f"--seed={seed}", f"--dtau={dtau!r}",
                    f"--which={which}", f"--modes={modes}"]
            meta = {"dtau": dtau, "which": which, "modes": modes}
        ops.append(CliOp(command, argv, meta))
    return ops


# ---------------------------------------------------------------------------
# spectral states from raw arrays

def on_shell(rng, mass, phi):
    pvec = rng.normal(size=3)
    return np.array([phi * np.sqrt(mass * mass + pvec @ pvec), *pvec])


def spin_pair(rng):
    return rng.normal(size=2) + 1j * rng.normal(size=2)


def coefficients(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def mode_labels(rng, n, repeat=0.25, forward=False, share=None, share_frac=0.0):
    """n raw (p, branch, a) labels.

    About ``repeat`` of them copy an earlier label exactly, so state
    construction merges them.  ``forward`` keeps every label in S+ as
    positive-energy u modes.  With ``share``, about ``share_frac`` of the
    labels reuse a (p, branch) from that list with fresh spin coefficients,
    so inner products against it have overlapping momenta.
    """
    out = []
    for i in range(n):
        if i and rng.random() < repeat:
            p, branch, a = out[int(rng.integers(i))]
            out.append((p.copy(), branch, a.copy()))
            continue
        if share and rng.random() < share_frac:
            p, branch, _ = share[int(rng.integers(len(share)))]
            out.append((p.copy(), branch, spin_pair(rng)))
            continue
        mass = MASSES[int(rng.integers(len(MASSES)))]
        phi = 1 if forward else int(rng.choice([-1, 1]))
        branch = 1 if forward else int(rng.choice([-1, 1]))
        out.append((on_shell(rng, mass, phi), branch, spin_pair(rng)))
    return out


def rotated(rng, p, min_angle=0.1):
    """Same p0 and |p|, new direction at least min_angle from the old one."""
    pmag = np.linalg.norm(p[1:])
    axis = p[1:] / pmag
    while True:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        if direction @ axis < np.cos(min_angle):
            return np.array([p[0], *(pmag * direction)])


def two_body_terms(rng, n_terms, forward=False, repeat=0.25):
    """Raw (coeff, x label, y label) triples drawn from a pool of n_terms/4
    single-particle labels, so partners recur; about ``repeat`` of the
    triples copy an earlier pair of labels exactly."""
    pool = mode_labels(rng, max(2, n_terms // 4), repeat=0.0, forward=forward)
    pairs = []
    for i in range(n_terms):
        if i and rng.random() < repeat:
            pairs.append(pairs[int(rng.integers(i))])
        else:
            pairs.append((int(rng.integers(len(pool))), int(rng.integers(len(pool)))))
    coeffs = coefficients(rng, n_terms)
    return [(coeffs[k], pool[ix], pool[iy]) for k, (ix, iy) in enumerate(pairs)]


def scattered(rng, terms):
    """Final-state triples: every x label rotated on its energy shell, so
    term pairs with a common partner carry a Born transition; an unrotated
    label would ask for the forward-singular Coulomb transform."""
    return [(complex(rng.normal() + 1j * rng.normal()), (rotated(rng, x[0]), x[1], spin_pair(rng)), y)
            for _, x, y in terms]


def evolution(rng):
    tau = float(rng.normal())
    dtau = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0))
    return tau, tau + dtau, int(rng.choice([-1, 1]))


def large_cycle(rng) -> dict:
    """Inputs for one cycle of spectral_large: hundreds of modes and terms.
    The sizes are fixed, so the seed changes values and not the work."""
    n, m = LARGE_MODES, LARGE_CURRENT_MODES
    a_labels = mode_labels(rng, n)
    b_labels = mode_labels(rng, 2 * n, share=a_labels, share_frac=0.5)
    incident = mode_labels(rng, 1, forward=True)[0]
    initial = two_body_terms(rng, LARGE_S2_TERMS, forward=True)
    return {
        "a": (coefficients(rng, n), a_labels),
        "b": (coefficients(rng, 2 * n), b_labels),
        "evolve": evolution(rng),
        "current": (coefficients(rng, m), mode_labels(rng, m)),
        "points": rng.normal(size=(8, 4)),
        "two": two_body_terms(rng, LARGE_TWO_TERMS),
        "two_b": two_body_terms(rng, LARGE_TWO_TERMS),
        "two_current": two_body_terms(rng, LARGE_S2_TERMS),
        "two_evolve": evolution(rng),
        "s2": (initial, scattered(rng, initial), int(rng.integers(1, 93)), int(rng.integers(1, 93))),
        "moller": (incident, [rotated(rng, incident[0]) for _ in range(LARGE_MODES)],
                   int(rng.integers(1, 93))),
    }


def small_op(rng) -> dict:
    """Inputs for one spectral_small pipeline op: a 2-8 mode state."""
    k = int(rng.integers(2, 9))
    x, y = mode_labels(rng, 2, repeat=0.0, forward=True)
    fx = (rotated(rng, x[0]), 1, spin_pair(rng))
    return {
        "state": (coefficients(rng, k), mode_labels(rng, k)),
        "evolve": evolution(rng),
        "points": rng.normal(size=(8, 4)),
        "s2": (x, y, fx, int(rng.integers(1, 93))),
        "moller": [rotated(rng, x[0]) for _ in range(4)],
    }
