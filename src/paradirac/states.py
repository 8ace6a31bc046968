"""Box-normalized plane-wave modes and finite spectral superpositions.

A Mode is one plane-wave solution of the free parameter-time Dirac equation

    (1/i) d psi / d tau + gamma^mu (1/i) d psi / d x^mu = 0,

labelled by a timelike four-momentum p, a branch (+1 for the u block, -1 for
the v block) and a complex spin coefficient pair a:

    psi(x, tau) = (block(p) @ a) / L^2 * exp[i (p.x + branch phi_p m_p tau)].

The box edge L replaces the (2 pi)^2 of continuum normalization; momenta are
treated as exact lattice labels, so distinct momenta are orthogonal and equal
momenta overlap through the spinor metric (+1 for u modes, -1 for v modes).

Frequency in tau is nu = branch * phi_p * m_p.  States with nu = +m span the
subspace S+, states with nu = -m span S-; the discrete symmetry maps below
permute the branches accordingly.
"""

from __future__ import annotations

import copy
import enum
import json
import math
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (
    ATOL_ALGEBRA,
    GAMMA0,
    GAMMA1,
    GAMMA2,
    GAMMA3,
    GAMMA5,
    GAMMA_STACK,
    TWO_PI,
    gamma,
    lower_index,
    minkowski_dot,
    _dot,
    _matvec,
    _row_kinematics,
)
from .errors import BoxMismatch, MasslessState
from .spinors import _block, _decompose


class Subspace(enum.Enum):
    """The two invariant subspaces of free evolution."""

    S_PLUS = "S+"
    S_MINUS = "S-"


@dataclass(frozen=True)
class Mode:
    """One box-normalized plane-wave mode (p, branch, spin coefficients).

    label_key = (branch, p bytes, a bytes) uses the bytes of p + 0.0 and
    a + 0.0, so -0.0 equals 0.0 as in array_equal.  The checks and the
    kinematics (mass, phi) run on Python floats, bit for bit as mass_of and
    energy_sign.
    """

    p: np.ndarray
    branch: int
    a: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        a = np.array(self.a, dtype=complex)
        if p.shape != (4,):
            raise ValueError("momentum must be a four-vector")
        if a.shape != (2,):
            raise ValueError("spin coefficients must be a complex pair")
        momentum = p.tolist()
        if not all(map(math.isfinite, momentum + a.view(float).tolist())):
            raise ValueError("mode fields must be finite")
        branch = int(self.branch)
        if branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        m, phi = _row_kinematics(*momentum)
        if m == 0.0:
            raise MasslessState("modes require strictly timelike momenta")
        p.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "label_key", (branch, (p + 0.0).tobytes(), (a + 0.0).tobytes()))

    @property
    def frequency(self):
        """Tau frequency nu = branch phi_p m_p."""
        return self.branch * self.phi * self.mass

    @property
    def energy(self):
        return abs(self.p[0])

    def amplitude_spinor(self):
        """The bispinor factor block(p) @ a (box factor 1/L^2 not included)."""
        return _block(self.p, self.mass, self.branch == 1) @ self.a


def overlap_join(keys_a, keys_b):
    """Index arrays (i, j), the rows of one (2, m) array, of the pairs with
    keys_a[i] == keys_b[j] in all-pairs order: i ascending, then j ascending."""
    index: dict = {}
    for j, key in enumerate(keys_b):
        index.setdefault(key, []).append(j)
    pairs = [(i, j) for i, key in enumerate(keys_a) for j in index.get(key, ())]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T


def classify_subspace(mode: Mode) -> Subspace:
    """S+ for modes evolving as exp(+i m tau), S- for exp(-i m tau)."""
    return Subspace.S_PLUS if mode.branch * mode.phi > 0 else Subspace.S_MINUS


def plane_wave_value(mode: Mode, x, tau, box_edge=TWO_PI):
    """Value of the mode wavefunction at events x (..., 4) and parameter times tau (...)."""
    return _plane_waves(mode.p, mode.frequency, mode.amplitude_spinor(), x, tau, box_edge)


def _plane_waves(p, nu, spinors, x, tau, box_edge):
    """spinors * exp[i (p.x + nu tau)] / L^2, broadcast over the leading axes."""
    phase = np.exp(1j * (minkowski_dot(p, np.asarray(x, dtype=float)) + nu * tau))
    return spinors * (phase / box_edge**2)[..., None]


def coordinate_velocity(mode: Mode):
    """dt/dtau along constant phase: +m/E on branch +1, -m/E on branch -1.

    Independent of the energy sign phi_p.
    """
    return mode.branch * mode.mass / mode.energy


def free_equation_residual(mode: Mode, x, tau, box_edge=TWO_PI):
    """Finite-difference residual of the free parameter-time wave equation.

    Every mode satisfies (1/i) d_tau psi + gamma^mu (1/i) d_mu psi = 0
    identically, so the returned max-norm measures only the truncation and
    roundoff of the central differences at the step 1e-3.
    """
    event = np.append(np.asarray(x, dtype=float), tau)
    d = _central_differences(lambda e: plane_wave_value(mode, e[:, :4], e[:, 4], box_edge), event, 1e-3)
    total = d[4, 0] / 1j + sum(gamma(mu) @ (d[mu, 0] / 1j) for mu in range(4))
    return float(np.abs(total).max())


def _row_bytes(rows):
    """One bytes key per row of a real (n, k) array; the + 0.0 makes -0.0
    equal 0.0, as in Mode's keys."""
    rows = np.ascontiguousarray(rows, dtype=float) + 0.0
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel().tolist()


class TermContainer:
    """Terms c_k (mode_k1 (x) ... (x) mode_kw) of width w, as a struct of arrays.

    The arrays are coeff (n,), p (n, w, 4), branch (n, w) and a (n, w, 2),
    with the mass (n, w) of every mode; they are the only copy of the
    labels.  The arrays are read-only and no attribute can be reassigned,
    so the cached join keys stay valid.  Rows with equal labels merge on
    construction, keyed on the row bytes of (p + 0.0, a + 0.0, branch), so
    -0.0 equals 0.0 as in array_equal: coefficients add in input order at
    the first occurrence and zero sums drop.  The state maps work on the
    arrays in one batched pass.

    `terms` views the rows as (coeff, Mode, ...) tuples, building Modes per read.
    """

    width = 1

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _load(self, terms, box_edge, **fields):
        """Construct from (coeff, Mode, ...) tuples in a box of edge
        box_edge; fields are the further attributes of the subclass."""
        if box_edge <= 0.0:
            raise ValueError("box edge must be positive")
        vars(self).update(fields, box_edge=float(box_edge))
        coeffs, modes, keys = [], [], []
        for coeff, *row in terms:
            if len(row) != self.width or not all(isinstance(m, Mode) for m in row):
                raise TypeError("terms must be (coefficient" + ", Mode" * self.width + ") tuples")
            coeffs.append(complex(coeff))
            modes += row
            keys.append(tuple([m.label_key for m in row]))
        shape = (len(coeffs), self.width)
        branch, mass = np.array([(m.branch, m.mass) for m in modes]).reshape(shape + (2,)).T
        self._merge(keys, np.array(coeffs, dtype=complex), (
            np.array([m.p for m in modes]).reshape(shape + (4,)), branch.T.astype(int),
            np.array([m.a for m in modes]).reshape(shape + (2,)), mass.T))

    def _derive(self, coeff, p, branch, a, mass):
        """A state of the same kind and box on new label arrays, with `mass`
        the mass_of(p) that every caller already holds.  Checks in batch
        what Mode.__post_init__ checks, with the same error classes."""
        if not (np.isfinite(p).all() and np.isfinite(a).all()):
            raise ValueError("mode fields must be finite")
        if not (np.abs(branch) == 1).all():
            raise ValueError("branch must be +1 or -1")
        if (mass == 0.0).any():
            raise MasslessState("modes require strictly timelike momenta")
        rows = np.concatenate((p, a.view(float), branch[..., None]), axis=-1, dtype=float)
        out = copy.copy(self)
        out._merge(_row_bytes(rows.reshape(len(rows), 9 * self.width)), coeff, (p, branch, a, mass))
        return out

    def _subset(self, index, coeff):
        """The labels at [index] (rows, or rows and columns) with new coefficients."""
        out = copy.copy(self)
        out._store(coeff, [x[index] for x in (self.p, self.branch, self.a, self.mass)])
        return out

    def _merge(self, keys, coeff, labels):
        """Store the rows merged on their keys; labels are the arrays
        (p, branch, a, mass)."""
        first = dict.fromkeys(keys)
        if len(first) < len(keys):
            ids = {key: i for i, key in enumerate(first)}
            group = np.fromiter(map(ids.__getitem__, keys), dtype=np.intp, count=len(keys))
            # ids count up in order of first occurrence
            rows = np.searchsorted(np.maximum.accumulate(group), np.arange(len(first)))
            later = np.ones(len(group), dtype=bool)
            later[rows] = False
            summed = coeff[rows]
            np.add.at(summed, group[later], coeff[later])
            coeff, labels = summed, [x[rows] for x in labels]
        self._store(coeff, labels)

    def _store(self, coeff, labels):
        if not coeff.all():
            keep = coeff != 0.0
            coeff, labels = coeff[keep], [x[keep] for x in labels]
        p, branch, a, mass = labels
        for value in (coeff, p, branch, a, mass):
            value.setflags(write=False)
        vars(self).update(coeff=coeff, p=p, branch=branch, a=a, mass=mass, _overlap_keys={})

    @property
    def terms(self):
        """The rows as (coeff, Mode, ...) tuples, a view over the arrays."""
        return _TermsView(self)

    @property
    def is_empty(self):
        return not len(self.coeff)

    @property
    def phi(self):
        """Energy signs, shape (n, w); no p0 is zero in a container."""
        return np.sign(self.p[..., 0])

    @property
    def frequency(self):
        """Tau frequencies nu = branch phi m, shape (n, w)."""
        return self.branch * self.phi * self.mass

    def spinors(self):
        """Amplitude spinors block(p) @ a, shape (n, w, 4)."""
        return _matvec(_block(self.p, self.mass, self.branch == 1), self.a)

    def overlap_keys(self, col=0):
        """(branch, bytes of p + 0.0) of the modes in column `col`, in row order."""
        if col not in self._overlap_keys:
            self._overlap_keys[col] = list(zip(self.branch[:, col].tolist(),
                                               _row_bytes(self.p[:, col])))
        return self._overlap_keys[col]

    def overlaps(self, i, other, j, col=0):
        """branch a* . a' of column `col` for rows i here and rows j of `other`:
        the box overlap of the two modes where their overlap keys are equal."""
        return self.branch[i, col] * _dot(self.a[i, col].conj(), other.a[j, col])


class _TermsView(Sequence):
    """Read-only (coeff, Mode, ...) rows of a TermContainer: len() reads the row
    count, and an index, a slice (a tuple) or iteration builds the rows it reads."""

    def __init__(self, state):
        self._state = state

    def __len__(self):
        return len(self._state.coeff)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        s, k = self._state, range(len(self))[index]
        return (complex(s.coeff[k]), *map(Mode, s.p[k], s.branch[k].tolist(), s.a[k]))


class SpectralState(TermContainer):
    """Finite superposition sum_k c_k * mode_k over one quantization box.

    The terms are held in the arrays of a TermContainer of width 1: equal
    labels (-0.0 equal to 0.0) merge on construction and vanishing
    coefficients drop, so the rows are a canonical sparse spectral
    representation.  `terms` views them as (coeff, Mode) tuples, built on
    each read; the maps below never build a Mode.
    """

    def __init__(self, terms, box_edge=TWO_PI):
        self._load(terms, box_edge)

    def value(self, x, tau):
        """Wavefunction value sum_k c_k f_k(x, tau)."""
        waves = _plane_waves(self.p, self.frequency, self.spinors(), x, tau, self.box_edge)[:, 0]
        return sum((c * f for c, f in zip(self.coeff.tolist(), waves)), np.zeros(4, dtype=complex))


def single_mode_state(mode: Mode, coeff=1.0, box_edge=TWO_PI) -> SpectralState:
    return SpectralState(((complex(coeff), mode),), box_edge)


# ---------------------------------------------------------------------------
# discrete symmetries
#
# Each map sends a plane-wave mode to another plane-wave mode; the transformed
# spinor is re-expressed in the block basis of the image momentum, which is
# exact because the maps commute with the free equation.  Spatial momenta
# always flip; `flip` also flips the energy and the branch.  Flipping signs
# leaves mass_of(p) bit for bit as it was, so the image keeps the state's mass.

def _transform(state: SpectralState, matrix, conjugate, flip) -> SpectralState:
    spinor = state.spinors()
    if conjugate:
        spinor = spinor.conj()
    spinor = _matvec(matrix, spinor)
    q = state.p * np.array([-1.0 if flip else 1.0, -1.0, -1.0, -1.0])
    branch = -state.branch if flip else state.branch
    a = _decompose(_block(q, state.mass, branch == 1), branch, spinor)
    return state._derive(state.coeff.conj() if conjugate else state.coeff, q, branch, a, state.mass)


def charge_conjugate(state: SpectralState) -> SpectralState:
    """Antilinear map psi -> i gamma^2 psi*(x, -tau); momentum and branch flip."""
    return _transform(state, 1j * GAMMA2, True, True)


def parity(state: SpectralState) -> SpectralState:
    """Linear map psi -> gamma^0 psi(t, -x, tau); spatial momentum flips."""
    return _transform(state, GAMMA0, False, False)


def time_reverse(state: SpectralState) -> SpectralState:
    """Antilinear map psi -> i gamma^1 gamma^3 psi*(-t, x, -tau)."""
    return _transform(state, 1j * GAMMA1 @ GAMMA3, True, False)


def tpc(state: SpectralState) -> SpectralState:
    """Linear composite map psi -> -i gamma^5 psi(-x, tau).

    Sends u modes at p to v modes at -p and conversely, exchanging the two
    tau-frequency subspaces' particle/antiparticle labels.
    """
    return _transform(state, -1j * GAMMA5, False, True)


# ---------------------------------------------------------------------------
# inner products and concatenated currents

def inner_product(state_a: SpectralState, state_b: SpectralState):
    """Box inner product integral d^4x of bar(psi_a) psi_b at fixed tau.

    Distinct lattice momenta are orthogonal; equal momenta contract through
    the spinor metric, +a*.b on the u branch and -a*.b on the v branch, and
    mixed branches vanish.  The result does not depend on tau.

    The sum is a join on the overlap keys: each term of state_a meets only
    its matches in state_b, in the order of the all-pairs loop.
    """
    if state_a.box_edge != state_b.box_edge:
        raise BoxMismatch("states quantized in different boxes")
    i, j = overlap_join(state_a.overlap_keys(), state_b.overlap_keys())
    if not len(i):
        return 0j
    total = 0.0j
    for ca, cb, overlap in zip(state_a.coeff[i].tolist(), state_b.coeff[j].tolist(),
                               state_a.overlaps(i, state_b, j).tolist()):
        total += np.conj(ca) * cb * overlap
    return total


class Pairs(NamedTuple):
    """Surviving pairs (k[i], l[i]) of a bilinear with their weights; the
    indices point into the rows of the amplitude spinors and momenta, both
    of shape (n, 4)."""

    k: np.ndarray
    l: np.ndarray
    weight: np.ndarray
    spinors: np.ndarray
    momenta: np.ndarray


def _concatenated_pair_arrays(state: SpectralState) -> Pairs:
    """The pairs of concatenated_pairs, in the same order, by one test
    |nu_k - nu_l| <= ATOL_ALGEBRA max(1, |nu_k|, |nu_l|) over the n x n
    frequency grid; the test is not transitive, so it cannot bucket by
    frequency."""
    nu = state.frequency[:, 0]
    scale = np.maximum(1.0, np.maximum(np.abs(nu)[:, None], np.abs(nu)[None, :]))
    k, l = np.nonzero(np.abs(nu[:, None] - nu[None, :]) <= ATOL_ALGEBRA * scale)
    weight = np.conj(state.coeff[k]) * state.coeff[l] / state.box_edge**4
    return Pairs(k, l, weight, state.spinors()[:, 0], state.p[:, 0])


def concatenated_pairs(state: SpectralState):
    """Mode pairs surviving the tau-concatenation integral of a bilinear.

    Yields (weight, dp, w_bra, w_ket) for each ordered pair (k, l) whose tau
    frequencies match; weight = conj(c_k) c_l / L^4 and dp = p_l - p_k.  The
    overall scale T_tau of the concatenation integral is carried symbolically
    by the caller.
    """
    k, l, weight, spinors, momenta = _concatenated_pair_arrays(state)
    yield from zip(weight, momenta[l] - momenta[k], spinors[k], spinors[l])


# entries of the phase matrix per block of pairs in pair_sum
_PHASE_BLOCK = 1 << 16


def pair_sum(pairs: Pairs, insert, points):
    """sum over pairs of weight bar(w_k) insert w_l exp(i dp.x), dp = p_l - p_k,
    with insert as for bilinear_concatenated.  Per block of pairs, one einsum
    gives the sandwiches and one matrix exp(i points @ dp_lowered^T) the phases.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not callable(insert):
        stack = np.asarray(insert, dtype=complex)
        insert = lambda dp: np.broadcast_to(stack, (len(dp), *stack.shape))  # noqa: E731
    spinors, momenta = pairs.spinors, pairs.momenta
    bars = spinors.conj() @ GAMMA0
    step = max(1, _PHASE_BLOCK // points.shape[0])
    out = 0.0
    for start in range(0, max(len(pairs.k), 1), step):
        k, l = pairs.k[start:start + step], pairs.l[start:start + step]
        dp = momenta[l] - momenta[k]
        sandwich = np.einsum("pi,p...ij,pj->p...", bars[k], insert(dp), spinors[l])
        shape = sandwich.shape[1:]
        weighted = pairs.weight[start:start + step, None] * sandwich.reshape(len(k), math.prod(shape))
        out = out + np.exp(1j * (points @ lower_index(dp).T)) @ weighted
    return out.reshape(points.shape[0], *shape)


class CurrentField(NamedTuple):
    """Current samples and the symbolic concatenation scale they carry."""

    values: np.ndarray
    scale: str


def bilinear_concatenated(state: SpectralState, insert, points):
    """sum over surviving pairs of w_bar_k @ insert @ w_l exp(i dp.x).

    insert may be a (4, 4) matrix, a stack of them with shape (..., 4, 4),
    or a function of the pair transfers dp, shape (P, 4), that returns
    per-pair matrices (P, ..., 4, 4); returns complex samples of shape
    (npoints, ...).  Values are in units of T_tau (the symbolic
    tau-concatenation scale).  The batched kernel pair_sum does the sum.
    """
    return pair_sum(_concatenated_pair_arrays(state), insert, points)


def pair_current(pairs: Pairs, points) -> CurrentField:
    """Real vector current of a hermitian pair set: pair_sum with gamma^mu
    inserted; an imaginary part beyond roundoff raises AssertionError."""
    raw = pair_sum(pairs, GAMMA_STACK, points)
    if raw.size and np.abs(raw.imag).max() > 1e-10 * max(1.0, np.abs(raw).max()):
        raise AssertionError("vector current acquired an imaginary part")
    return CurrentField(values=raw.real, scale="T_tau")


def concatenated_current(state: SpectralState, points) -> CurrentField:
    """Vector current J^mu(x) = integral d tau bar(psi) gamma^mu psi.

    Only equal-frequency mode pairs survive the tau integral; the values are
    reported in units of the symbolic concatenation scale T_tau.
    """
    return pair_current(_concatenated_pair_arrays(state), points)


def _central_differences(f, points, step):
    """4th-order central differences of f along each coordinate axis: f maps
    an (N, D) array of points to N samples, and the result d has
    d[mu, n] = d_mu f at points[n]."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    shifted = []
    for mu in range(points.shape[1]):
        for k in (-2, -1, 1, 2):
            block = points.copy()
            block[:, mu] += k * step
            shifted.append(block)
    values = f(np.vstack(shifted))
    f_m2, f_m1, f_p1, f_p2 = values.reshape(-1, 4, len(points), *values.shape[1:]).swapaxes(0, 1)
    return (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * step)


def _divergence_fd(current, points, step):
    """4th-order central-difference d_mu J^mu at each point, where current
    maps an (N, 4) array of points to (N, 4) real samples."""
    d = _central_differences(current, points, step)
    return sum(d[mu, :, mu] for mu in range(4))


def current_divergence_fd(state: SpectralState, points, step=1e-3):
    """Finite-difference divergence d_mu J^mu at each point (4th order central).

    Returns the samples; the identity value is zero for equal-frequency
    superpositions, so the magnitude measures the discretization residual.
    """
    return _divergence_fd(lambda x: concatenated_current(state, x).values, points, step)


# ---------------------------------------------------------------------------
# serialization
#
# Both wire formats write a mode as the record {p, branch, a}, a as [re, im]
# pairs.  A spectral state is a JSON list of mode records with L appended; term
# coefficients are folded into the spin coefficients, lossless for the wavefunction.

def mode_to_record(p, branch, a) -> dict:
    """The wire record of the mode label (p, branch, a)."""
    return {"p": [float(c) for c in p], "branch": int(branch),
            "a": [[float(z.real), float(z.imag)] for z in a]}


def mode_from_record(record) -> Mode:
    """The Mode of one wire record."""
    a = np.array([complex(re, im) for re, im in record["a"]])
    return Mode(np.array(record["p"], dtype=float), int(record["branch"]), a)


def state_to_json(state: SpectralState) -> str:
    return json.dumps([{**mode_to_record(p, branch, coeff * a), "L": state.box_edge} for coeff, p, branch, a
                       in zip(state.coeff.tolist(), state.p[:, 0], state.branch[:, 0], state.a[:, 0])])


def state_from_json(text: str) -> SpectralState:
    items = json.loads(text)
    if not isinstance(items, list):
        raise ValueError("spectral state JSON must be a list of mode records")
    terms = []
    box = None
    for item in items:
        edge = float(item["L"])
        if box is None:
            box = edge
        elif edge != box:
            raise BoxMismatch("mode records disagree on the box edge")
        terms.append((1.0 + 0.0j, mode_from_record(item)))
    return SpectralState(tuple(terms), TWO_PI if box is None else box)
