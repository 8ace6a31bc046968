"""Library output digest for the output-identity step of CI.

Run as ``python tests/digest.py OUT.npz`` with the tree under test on
PYTHONPATH; the same copy of this file runs on the base commit and on the
head, and both must print the same hash.  It builds seeded one- and
two-particle states from Modes, with repeated rows and -0.0 components, and
hashes the arrays of the states, their free evolutions and antisymmetrized
pairs (the dtype, shape and bytes of coeff, p, branch, a and mass, with the
box edge and exchange tag), the repr of their inner products, the same
fields but a of the states' C/P/T/TPC images, the first-order two-particle
S-matrix of forward states, the residuals of the exchange check
and of the conjugation and free-equation checks (in the 2 pi box), the bytes
of seeded field tensors, and the S-matrix of one 200-term pair of forward
states over 8 shared partners.  It also hashes, at default arguments, every
function that reads the electron mass, alpha, e or the 2 pi box from
algebra: the Uehling ratio and both potential forms at a few radii, the
shifts and the fixed-grid oracle for 1s, 2s and 2p, hydrogenic radial
samples and Bohr radii, the Rutherford cross-sections over a few angles, the
screened Coulomb transform, first-order Moller states on elastic shells,
mutual-scattering amplitudes and anomaly records.  The spin coefficients a
of the C/P/T/TPC images and their inner products with the state (a spinor
route to the images rounds a, the label maps do not), the marginal currents
of the forward states, the spectral vector divergence residual (with its
current's scale), and the Mott cross-sections and ratios over those angles
(a Mott table enumerates its spin amplitudes where it took a trace, which
moves the roundoff digits) are saved to OUT.npz apart, for approx.py to
compare within 1e-12 of each array's largest base entry.  It uses only names
the base commit has, and builds its (anti)symmetrized pairs in other boxes
through TwoParticleState.  pytest does not collect this file.
"""

import hashlib
import sys
import numpy as np
from paradirac.propagate import elastic_shell, free_evolve, influence_conjugation_check, moller_first_order
from paradirac.radiative import (FieldConfiguration, anomaly_record, bohr_radius, hydrogen_radial,
                                 uehling_potential, uehling_potential_hyperbolic, uehling_ratio,
                                 uehling_shift, uehling_shift_fixed_grid, vector_divergence_check)
from paradirac.sampling import random_mode, random_spin_coefficients, random_state, random_timelike_momentum
from paradirac.scattering import coulomb_ft, coulomb_potential, mott_dcs, mott_ratio, rutherford_dcs, zero_potential
from paradirac.states import (Mode, SpectralState, charge_conjugate, concatenated_current,
                              free_equation_residual, inner_product, parity, time_reverse, tpc)
from paradirac.twobody import (TwoParticleState, exchange_residual, mutual_scattering_amplitude,
                               potential_from_transition, s2_first_order, two_conjugation_check, two_currents)

digest = hashlib.sha256()
approx = {}  # arrays compared by tolerance, not hashed


def exchange_pair(psi, chi, box, exchange="fermionic"):
    """antisymmetrize (or, bosonic, symmetrize) of psi and chi in the box."""
    rt = 1.0 / np.sqrt(2.0)
    return TwoParticleState(((rt, psi, chi), (-rt if exchange == "fermionic" else rt, chi, psi)), exchange, box)


def mode_fields(mode):
    return repr((repr(mode), mode.p.tobytes(), mode.a.tobytes(), mode.mass.hex()))


def state_fields(state, names=("coeff", "p", "branch", "a", "mass")):
    arrays = [(x.dtype.str, x.shape, x.tobytes()) for x in map(state.__getattribute__, names)]
    return repr((arrays, state.box_edge.hex(), getattr(state, "exchange", None)))


for seed in range(8):
    rng = np.random.default_rng(seed)
    pool = [random_mode(rng, mass=float(m)) for m in rng.choice([1.0, 2.0], 24)]
    # twin labels that differ only in the signs of their zeros
    for phi, branch in ((1.0, 1), (-1.0, 1), (1.0, -1)):
        for zero in (0.0, -0.0):
            pool.append(Mode([phi * 1.25, 0.75, zero, -zero], branch,
                             [complex(0.6, zero), complex(zero, 0.8)]))
    # each Mode's fields, and those of its twins built from a Python
    # list and from a strided view
    for mode in pool:
        for twin in (mode, Mode(mode.p.tolist(), mode.branch, mode.a.tolist()),
                     Mode(np.repeat(mode.p, 2)[::2], mode.branch, np.repeat(mode.a, 3)[::3])):
            digest.update(mode_fields(twin).encode())
    n = 64
    picks = rng.integers(0, len(pool), (n, 2))
    picks[n * 3 // 4:] = picks[:n // 4]  # a quarter of the rows repeat
    coeffs = (rng.normal(size=n) + 1j * rng.normal(size=n)).tolist()
    box = 1.5 + seed
    states = [SpectralState([(c, pool[k]) for c, (k, _) in zip(coeffs, picks)], box),
              TwoParticleState([(c, pool[k], pool[l]) for c, (k, l) in zip(coeffs, picks)],
                               "none", box)]
    for state in states:
        for term in state.terms:
            for mode in term[1:]:
                digest.update(mode_fields(mode).encode())
        for image in (state, free_evolve(state, 0.0, 0.7, 1), free_evolve(state, 0.3, -0.4, -1)):
            digest.update(state_fields(image).encode())
            digest.update(repr(inner_product(state, image)).encode())
        for f in (charge_conjugate, parity, time_reverse, tpc):
            image = f(state)
            digest.update(state_fields(image, ("coeff", "p", "branch", "mass")).encode())
            approx[f"{f.__name__} {seed} {state.width} a"] = image.a
            approx[f"{f.__name__} {seed} {state.width} inner_product"] = np.array(inner_product(state, image))
    for k, l in picks[:8]:
        pair = exchange_pair(pool[k], pool[l], box)
        digest.update(state_fields(pair).encode())
        digest.update(repr(inner_product(pair, states[1])).encode())
    # the first-order S-matrix and the marginal currents of forward
    # states: final rows rotate an x or a y label on its energy
    # shell, relabel its spins, or repeat an incident row, so that
    # Born terms of both particles and <f|i> are live
    forward = [random_mode(rng, mass=float(m), branch=1, phi=1) for m in rng.choice([1.0, 2.0], 12)]

    def rotated(mode):
        p = elastic_shell(mode.p, [rng.uniform(0.2, 2.5)], n_azimuth=1)[0]
        return Mode(p, 1, random_spin_coefficients(rng))

    n = 16
    picks = rng.integers(0, len(forward), (n, 2))
    picks[n * 3 // 4:] = picks[:n // 4]
    coeffs = (rng.normal(size=n) + 1j * rng.normal(size=n)).tolist()
    initial = TwoParticleState([(c, forward[k], forward[l]) for c, (k, l) in zip(coeffs, picks)],
                               "none", box)
    final = []
    for c, (k, l) in zip(coeffs, picks):
        x, y = forward[k], forward[l]
        final += [(c, rotated(x), y), (-c, x, rotated(y)), (c, x, y),
                  (1j * c, Mode(x.p, 1, random_spin_coefficients(rng)), y)]
    final = TwoParticleState(final, "none", box)
    pairs = [exchange_pair(forward[k], forward[l], box) for k, l in picks[:4]]
    pairs += [exchange_pair(rotated(forward[k]), forward[l], box) for k, l in picks[:4]]
    shared = coulomb_potential(1.0, mu=0.3)
    source = potential_from_transition(forward[0], rotated(forward[0]), 0.7)
    for pots in ((shared, shared), (coulomb_potential(1.0, mu=0.3), coulomb_potential(-2.0, mu=0.7)),
                 (shared, zero_potential()), (zero_potential(), shared), (source, source)):
        for state_i, state_f in ((initial, final), (final, initial), (initial, initial),
                                 *zip(pairs[:4], pairs[4:])):
            digest.update(repr(s2_first_order(state_i, state_f, pots)).encode())
    points = rng.normal(size=(5, 4))
    for k, state in enumerate((initial, final, *pairs)):
        for particle, current in enumerate(two_currents(state, points), 1):
            approx[f"two_currents {seed} {k} J{particle}"] = current.values
    # the residual checks, each one max |entry| over its samples
    for k, l in picks[:4]:
        for exchange in ("fermionic", "bosonic"):
            pair = exchange_pair(forward[k], forward[l], box, exchange)
            digest.update(repr(exchange_residual(pair)).encode())
    momenta = [random_timelike_momentum(rng, mass=float(m)) for m in rng.choice([1.0, 2.0], 6)]
    digest.update(repr(influence_conjugation_check(rng.normal(size=4), 0.9, momenta)).encode())
    digest.update(repr(two_conjugation_check((rng.normal(size=4), rng.normal(size=4)), -0.6,
                                             list(zip(momenta[:3], momenta[3:])))).encode())
    divergent = random_state(rng, n_modes=8, mass=1.0)
    approx[f"vector_divergence_check {seed}"] = np.array([
        vector_divergence_check(divergent, points), np.abs(concatenated_current(divergent, points).values).max()])
    for mode in pool[:8]:
        digest.update(repr(free_equation_residual(mode, rng.normal(size=4), rng.normal())).encode())
    # field tensors, whose magnetic block goes through the rank-3 symbol
    field = FieldConfiguration.from_fields(rng.normal(size=(7, 3)), rng.normal(size=(7, 3)))
    digest.update(field.tensor.tobytes())
# one larger S-matrix case: 200 forward terms over 8 shared partners
# (relabelled in the final rows, so that their overlaps are not 1),
# x of masses 1 and 2, and final rows that rotate every fourth x on
# its energy shell and draw the others anew, so that most of the
# partner-joined pairs break the frequency or the energy delta
rng = np.random.default_rng(8)
partners = [random_mode(rng, mass=1.0, branch=1, phi=1) for _ in range(8)]
relabelled = [Mode(y.p, 1, random_spin_coefficients(rng)) for y in partners]
xs = [random_mode(rng, mass=float(m), branch=1, phi=1) for m in rng.choice([1.0, 2.0], 200)]
initial, final = [], []
for k, x in enumerate(xs):
    initial.append((complex(*rng.normal(size=2)), x, partners[k % 8]))
    if k % 4 == 0:
        x = Mode(elastic_shell(x.p, [rng.uniform(0.2, 2.5)], n_azimuth=1)[0], 1,
                 random_spin_coefficients(rng))
    else:
        x = random_mode(rng, mass=float(rng.choice([1.0, 2.0])), branch=1, phi=1)
    final.append((complex(*rng.normal(size=2)), x, relabelled[k % 8]))
initial, final = TwoParticleState(initial, "none", 3.5), TwoParticleState(final, "none", 3.5)
shared = coulomb_potential(1.0, mu=0.3)
source = potential_from_transition(xs[0], final.terms[0][1], 0.7)
for pots in ((shared, shared), (shared, coulomb_potential(-2.0, mu=0.7)), (source, source)):
    digest.update(repr(s2_first_order(initial, final, pots)).encode())
# the functions that take the electron mass, alpha, e and the 2 pi
# box from algebra, at their default arguments
for r in (1e-3, 0.3, 2.0, 40.0):
    digest.update(repr((uehling_ratio(r), uehling_potential(r, 1.0),
                        uehling_potential_hyperbolic(r, 3.0))).encode())
radii = np.linspace(1.0, 2000.0, 9)
for n, l in ((1, 0), (2, 0), (2, 1)):
    digest.update(repr((uehling_shift(n, l, 1.0), uehling_shift(n, l, 10.0),
                        uehling_shift_fixed_grid(n, l, 1.0))).encode())
    digest.update(hydrogen_radial(n, l, 1.0)(radii).tobytes() + hydrogen_radial(n, l, 3.0)(radii).tobytes())
digest.update(repr((bohr_radius(1.0), bohr_radius(92.0))).encode())
kappa = np.radians([0.5, 30.0, 90.0, 150.0, 180.0])
for p_mag in (0.01, 0.51099895, 30.0, 5e7):
    for z in (1.0, 92.0):
        digest.update(np.asarray(rutherford_dcs(p_mag, kappa, z)).tobytes())
        for f in (mott_dcs, mott_ratio):
            approx[f"{f.__name__} {p_mag} {z}"] = f(p_mag, kappa, z)
    approx[f"mott_ratio {p_mag} 30 deg"] = np.asarray(mott_ratio(p_mag, kappa[1]))
rng = np.random.default_rng(9)
digest.update(coulomb_ft(rng.normal(size=(6, 4)), 2.0, mu=0.3).tobytes())
for mass in (1.0, 0.51099895):
    incident = random_mode(rng, mass=mass, branch=1, phi=1)
    outs = elastic_shell(incident.p, [0.4, 1.3, 2.9], n_azimuth=3)
    for pot in (coulomb_potential(2.0, mu=0.3), coulomb_potential(1.0)):
        digest.update(state_fields(moller_first_order(incident, pot, outs)).encode())
in1 = random_mode(rng, branch=1, phi=1, p_scale=0.4)
in2 = random_mode(rng, mass=2.0, branch=1, phi=1, p_scale=0.3)
out1 = Mode(elastic_shell(in1.p, [0.8], n_azimuth=1)[0], 1, random_spin_coefficients(rng))
out2 = Mode(in2.p + (in1.p - out1.p), 1, random_spin_coefficients(rng))
digest.update(repr((mutual_scattering_amplitude(in1, out1, in2, out2),
                    mutual_scattering_amplitude(in2, out2, in1, out1))).encode())
for electric, magnetic in (([1, 2, 3], [0.5, -1, 2]), (rng.normal(size=3), rng.normal(size=3))):
    digest.update(repr(anomaly_record(electric, magnetic)).encode())
print(digest.hexdigest())
np.savez(sys.argv[1], **approx)
