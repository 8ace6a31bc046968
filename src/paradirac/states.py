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
import functools
import itertools
import math
import operator
import struct
from collections.abc import Sequence
from dataclasses import FrozenInstanceError
from typing import NamedTuple

import numpy as np

from .algebra import (
    ATOL_ALGEBRA,
    GAMMA0,
    GAMMA_STACK,
    I2,
    SIGMA,
    TWO_PI,
    gamma,
    lower_index,
    minkowski_dot,
    _dot,
    _finite,
    _matvec,
    _max_residual,
)
from .errors import BoxMismatch, MasslessState, NonfiniteResult, SuperluminalMomentum, ZeroEnergy
from .spinors import _block


class Subspace(enum.Enum):
    """The two invariant subspaces of free evolution."""

    S_PLUS = "S+"
    S_MINUS = "S-"


class _Frozen:
    """Attributes are set once, through vars(self) or object.__setattr__, on construction."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _label_rows(p, a, branch, mass):
    """The batched label check: the rows (..., 10) a Mode packs, and its
    checks, for computed labels p (..., 4), a (..., 2), branch and mass (...);
    a non-finite field raises NonfiniteResult.  Every caller makes branch +-1
    (C/P/T negate checked branches), so it is not checked."""
    rows = np.concatenate((p, a.view(float), branch[..., None], mass[..., None]), axis=-1)
    _finite(rows[..., :8], "mode fields must be finite")
    # unlike a Mode's, a NaN mass passes: C/P/T keep checked masses, and Moller
    # nodes and random_state draws take theirs from finite on-shell momenta
    if not mass.all():
        raise MasslessState("modes require strictly timelike momenta")
    return rows


class _built_once(functools.cached_property):
    """cached_property without the lock Python 3.11's takes on each miss: the
    value is built on first read and stored on the instance, where later
    reads find it."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        object.__setattr__(instance, self.attrname, value)  # a non-data descriptor: the instance's value wins
        return value


_pack_row = struct.Struct("10d").pack
_unpack_double = struct.Struct("d").unpack_from


class Mode(_Frozen):
    """One box-normalized plane-wave mode (p, branch, spin coefficients).

    Construction is the one scalar label check (_label_rows is the batched
    one): shapes, finite fields, the branch, then mass_of's checks and bits,
    a massless p and a mass that is not finite, in that order.  A Mode holds
    only its checked row _row, the 10 floats (p, a as re/im pairs, branch,
    mass) packed into 80 bytes.  Its five fields are read from those bytes
    on first read: p and a as read-only views, branch, mass and the energy
    sign phi as Python numbers.  Equality is identity.
    """

    def __init__(self, p, branch, a):
        p = np.asarray(p, dtype=float)
        a = np.asarray(a, dtype=complex)
        if p.shape != (4,):
            raise ValueError("momentum must be a four-vector")
        if a.shape != (2,):
            raise ValueError("spin coefficients must be a complex pair")
        p0, x, y, z = p.tolist()
        a0, a1 = a.tolist()
        re0, im0, re1, im1 = a0.real, a0.imag, a1.real, a1.imag
        # a finite sum has finite terms; finite fields whose sum overflows pass the per-field test
        if not math.isfinite(p0 + x + y + z + re0 + im0 + re1 + im1) and not all(
                map(math.isfinite, (p0, x, y, z, re0, im0, re1, im1))):
            raise ValueError("mode fields must be finite")
        if branch not in (1, -1):  # tested before int(), which a NaN or infinite branch makes raise
            raise ValueError("branch must be +1 or -1")
        if p0 == 0.0:
            raise ZeroEnergy("four-momentum has p0 = 0; no rest frame branch")
        # mass_of's sums run left to right (numpy's over 4 terms); its tolerance refuses only pp > 0
        tt, xx, yy, zz = p0 * p0, x * x, y * y, z * z
        pp = ((xx + yy) + zz) - tt
        if pp > 0.0 and pp > ATOL_ALGEBRA * max(1.0, ((tt + xx) + yy) + zz):
            raise SuperluminalMomentum(f"p.p = {pp:g} > 0; momentum is spacelike")
        if pp >= 0.0:  # mass_of's mass 0.0
            raise MasslessState("modes require strictly timelike momenta")
        if not pp > -math.inf:  # squares that overflow: p.p = inf - inf or -inf
            raise NonfiniteResult("mode mass is not finite")
        # object.__setattr__ keeps the row in the instance's inline values, where
        # Python 3.11+ builds no __dict__: one object less for the cyclic GC to count
        object.__setattr__(self, "_row", _pack_row(p0, x, y, z, re0, im0, re1, im1, int(branch), math.sqrt(-pp)))

    @_built_once
    def p(self):
        return np.frombuffer(self._row, float, 4)  # read-only: bytes are immutable

    @_built_once
    def a(self):
        return np.frombuffer(self._row, complex, 2, 32)

    @_built_once
    def branch(self):
        return int(_unpack_double(self._row, 64)[0])

    @_built_once
    def mass(self):
        return _unpack_double(self._row, 72)[0]

    @_built_once
    def phi(self):
        return 1.0 if _unpack_double(self._row)[0] > 0.0 else -1.0

    def __repr__(self):
        return f"Mode(p={self.p!r}, branch={self.branch!r}, a={self.a!r})"

    @property
    def frequency(self):
        """Tau frequency nu = branch phi_p m_p."""
        return self.branch * self.phi * self.mass

    def amplitude_spinor(self):
        """The bispinor factor block(p) @ a (box factor 1/L^2 not included)."""
        return _block(self.p, self.mass, self.phi, self.branch == 1) @ self.a


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


def plane_wave_value(mode: Mode, x, tau):
    """Value of the mode wavefunction in the 2 pi box at events x (..., 4) and
    parameter times tau (...)."""
    return _plane_waves(mode.p, mode.frequency, mode.amplitude_spinor(), x, tau, TWO_PI)


def _plane_waves(p, nu, spinors, x, tau, box_edge):
    """spinors * exp[i (p.x + nu tau)] / L^2, broadcast over the leading axes."""
    phase = np.exp(1j * (minkowski_dot(p, np.asarray(x, dtype=float)) + nu * tau))
    return spinors * (phase / box_edge**2)[..., None]


def free_equation_residual(mode: Mode, x, tau):
    """Finite-difference residual of the free parameter-time wave equation.

    Every mode satisfies (1/i) d_tau psi + gamma^mu (1/i) d_mu psi = 0
    identically, so the returned max-norm measures only the truncation and
    roundoff of the central differences at the step 1e-3.
    """
    event = np.append(np.asarray(x, dtype=float), tau)
    d = _central_differences(lambda e: plane_wave_value(mode, e[:, :4], e[:, 4]), event, 1e-3)
    total = d[4, 0] / 1j + sum(gamma(mu) @ (d[mu, 0] / 1j) for mu in range(4))
    return _max_residual(total)


# coefficient types that np.array(..., dtype=complex) converts as complex() does
_PLAIN_NUMBERS = frozenset((float, complex, np.float64, np.complex128))


def _row_bytes(rows):
    """One bytes key per row of a real (n, k) array; the + 0.0 makes -0.0
    equal 0.0."""
    rows = np.ascontiguousarray(rows, dtype=float) + 0.0
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel().tolist()


class TermContainer(_Frozen):
    """Terms c_k (mode_k1 (x) ... (x) mode_kw) of width w, as a struct of arrays.

    The arrays are coeff (n,), p (n, w, 4), branch (n, w) and a (n, w, 2),
    with the mass (n, w) of every mode; they are the only copy of the
    labels.  The arrays are read-only and no attribute can be reassigned,
    so the cached join keys stay valid.  Rows with equal labels merge on
    construction: _fill keys it on _row_bytes of (p + 0.0,
    a + 0.0, branch), so -0.0 equals 0.0 as in array_equal: coefficients add
    in input order at the first occurrence and zero sums drop.  A non-finite
    coefficient, given or summed, raises NonfiniteResult.  The state maps
    work on the arrays in one batched pass.  Built from Modes, the label
    rows are the Modes' packed bytes (Mode._row), checked on construction,
    joined into one buffer.

    `terms` views the rows as (coeff, Mode, ...) tuples, building Modes per read.
    """

    width = 1

    def _load(self, terms, box_edge, **fields):
        """Construct from (coeff, Mode, ...) tuples, through _fill, in a few
        passes: the coefficients convert in one call when all are plain
        numbers, and the modes' packed rows join into one buffer, column
        after column, copied once into term order for width 2.  Bad terms
        raise the error a term-by-term read would raise first."""
        terms = tuple(terms)
        try:
            coeffs, *cols = zip(*terms, strict=True) if terms else [()] * (self.width + 1)
        except (TypeError, ValueError):  # a term that does not unpack, or terms of unequal widths
            cols = ()
        modes = list(itertools.chain.from_iterable(cols))  # column after column
        if len(cols) != self.width or not all(map(isinstance, modes, itertools.repeat(Mode))):
            message = "terms must be (coefficient" + ", Mode" * self.width + ") tuples"
            for coeff, *row in terms:
                if len(row) != self.width or not all(map(isinstance, row, itertools.repeat(Mode))):
                    raise TypeError(message)
                complex(coeff)
            raise TypeError(message)
        if _PLAIN_NUMBERS.issuperset(map(type, coeffs)):
            coeffs = np.array(coeffs, dtype=complex)  # the bits complex() gives each
        else:
            coeffs = [complex(coeff) for coeff in coeffs]
        rows = np.frombuffer(b"".join(map(operator.attrgetter("_row"), modes))).reshape(self.width, -1, 10)
        self._fill(coeffs, np.ascontiguousarray(rows.swapaxes(0, 1)), box_edge, **fields)

    def _fill(self, coeff, rows, box_edge, **fields):
        """The one constructor: coefficients (n,) and the n * w label rows of their
        modes, checked already by Mode (given labels) or _label_rows (computed
        labels), merged on their keys; fields are the subclass's own."""
        if not 0.0 < box_edge < math.inf:  # NaN fails both comparisons
            raise ValueError(f"box edge must be positive and finite, got {box_edge}")
        coeff = np.asarray(coeff, dtype=complex)
        rows = np.asarray(rows, dtype=float).reshape(len(coeff), self.width, 10)
        vars(self).update(fields, box_edge=float(box_edge))
        keys = _row_bytes(rows[..., :9].reshape(len(coeff), 9 * self.width))
        labels = (rows[..., :4], rows[..., 8].astype(int), rows[..., 4:8].view(complex), rows[..., 9])
        first = dict.fromkeys(keys)
        if len(first) < len(keys):
            ids = {key: i for i, key in enumerate(first)}
            group = np.fromiter(map(ids.__getitem__, keys), dtype=np.intp, count=len(keys))
            # ids count up in order of first occurrence
            rows = np.searchsorted(np.maximum.accumulate(group), np.arange(len(first)))
            later = np.ones(len(group), dtype=bool)
            later[rows] = False
            summed = coeff[rows]
            with np.errstate(all="ignore"):  # an overflowing sum raises in _store
                np.add.at(summed, group[later], coeff[later])
            coeff, labels = summed, [x[rows] for x in labels]
        self._store(coeff, labels)
        return self

    @classmethod
    def _from_rows(cls, coeff, rows, box_edge, **fields):
        """A new container, through _fill."""
        return object.__new__(cls)._fill(coeff, rows, box_edge, **fields)

    def _subset(self, index, coeff):
        """The labels at [index] (rows, or rows and columns) with new coefficients."""
        out = copy.copy(self)
        out._store(coeff, [x[index] for x in (self.p, self.branch, self.a, self.mass)])
        return out

    def _store(self, coeff, labels):
        _finite(coeff, "term coefficients must be finite")
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
        return _matvec(_block(self.p, self.mass, self.phi, self.branch == 1), self.a)

    def overlap_keys(self, *cols):
        """One key per row over the modes in columns `cols` (every column if
        none is given), in row order: (branch, bytes of p + 0.0) for one
        column, the tuple of the cached per-column keys for several."""
        cols = cols or tuple(range(self.width))
        if cols not in self._overlap_keys:
            self._overlap_keys[cols] = list(
                zip(self.branch[:, cols[0]].tolist(), _row_bytes(self.p[:, cols[0]])) if len(cols) == 1
                else zip(*map(self.overlap_keys, cols)))
        return self._overlap_keys[cols]

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


def single_mode_state(mode: Mode, coeff=1.0) -> SpectralState:
    return SpectralState(((complex(coeff), mode),))


# ---------------------------------------------------------------------------
# discrete symmetries
#
# Each map takes a block at p to a block at the image momentum times a
# constant 2x2 spin matrix, so it acts on the labels alone.  With the blocks
# u(p) = K[(m+E)I; phi p.sigma], v(p) = K[phi p.sigma; (m+E)I], p~ = (p0, -p)
# and i sigma2 = [[0, 1], [-1, 0]]:
#   P: gamma^0 u(p) = u(p~) and gamma^0 v(p) = -v(p~), so a' = branch a;
#   TPC: -i gamma^5 takes each block at p to the other block at -p times -i, so a' = -i a;
#   C: i gamma^2 (u a)* = v(-p)(-i sigma2 a*) and i gamma^2 (v a)* = u(-p)(i sigma2 a*),
#      so a' = -branch i sigma2 a*;
#   T: i gamma^1 gamma^3 (w a)* = w(p~)(-sigma2 a*) for either block w, so a' = -sigma2 a*.
# The spin matrices hold only 0, +-1 and +-i, so the image is exact.  Spatial momenta
# always flip; `flip` also flips the energy and the branch.  Flipping signs leaves
# mass_of(p) bit for bit as it was, so the image keeps the state's mass.

def _transform(state: SpectralState, spin, conjugate, flip) -> SpectralState:
    """The image labels; the antilinear maps conjugate a and the coefficients."""
    q = state.p * np.array([-1.0 if flip else 1.0, -1.0, -1.0, -1.0])
    spin = np.where(state.branch[..., None, None] > 0, *spin)  # spin[0] on u rows, spin[1] on v rows
    a = _matvec(spin, state.a.conj() if conjugate else state.a)
    return copy.copy(state)._fill(state.coeff.conj() if conjugate else state.coeff,
                                  _label_rows(q, a, -state.branch if flip else state.branch, state.mass),
                                  state.box_edge)


def charge_conjugate(state: SpectralState) -> SpectralState:
    """Antilinear map psi -> i gamma^2 psi*(x, -tau); momentum and branch flip."""
    return _transform(state, (-1j * SIGMA[1], 1j * SIGMA[1]), True, True)


def parity(state: SpectralState) -> SpectralState:
    """Linear map psi -> gamma^0 psi(t, -x, tau); spatial momentum flips."""
    return _transform(state, (I2, -I2), False, False)


def time_reverse(state: SpectralState) -> SpectralState:
    """Antilinear map psi -> i gamma^1 gamma^3 psi*(-t, x, -tau)."""
    return _transform(state, (-SIGMA[1],) * 2, True, False)


def tpc(state: SpectralState) -> SpectralState:
    """Linear composite map psi -> -i gamma^5 psi(-x, tau).

    Sends u modes at p to v modes at -p and conversely, exchanging the two
    tau-frequency subspaces' particle/antiparticle labels.
    """
    return _transform(state, (-1j * I2,) * 2, False, True)


# ---------------------------------------------------------------------------
# inner products and concatenated currents

def inner_product(state_a: TermContainer, state_b: TermContainer) -> complex:
    """Box inner product integral d^4x of bar(psi_a) psi_b at fixed tau, of
    terms of any width: the overlaps of the tensor factors multiply.

    Distinct lattice momenta are orthogonal; equal momenta contract through
    the spinor metric, +a*.b on the u branch and -a*.b on the v branch, and
    mixed branches vanish.  States of different widths (particle numbers)
    are orthogonal.  The result does not depend on tau.

    The sum is a join on the overlap keys of all columns: each term of
    state_a meets only its matches in state_b, in all-pairs order, and a
    zero overlap product adds nothing to the Python complex sum.  A sum that
    is not finite raises NonfiniteResult.
    """
    if state_a.box_edge != state_b.box_edge:
        raise BoxMismatch("states quantized in different boxes")
    i, j = overlap_join(state_a.overlap_keys(), state_b.overlap_keys())
    total = 0j
    if not len(i):
        return total
    # Python's product per pair: on few terms it beats an array product's numpy calls
    products = state_a.overlaps(i, state_b, j, 0).tolist()
    for col in range(1, state_a.width):
        products = map(operator.mul, products, state_a.overlaps(i, state_b, j, col).tolist())
    for ca, cb, ov in zip(state_a.coeff[i].tolist(), state_b.coeff[j].tolist(), products):
        if ov:
            total += ca.conjugate() * cb * ov
    return _finite(total, "the inner product sum is not finite")


def _frequencies_match(nu_k, nu_l):
    """|nu_k - nu_l| <= ATOL_ALGEBRA max(1, |nu_k|, |nu_l|), broadcast: the
    pairs of tau frequencies that survive the tau-concatenation integral.
    The test is not transitive, so it cannot bucket by frequency."""
    scale = np.maximum(1.0, np.maximum(np.abs(nu_k), np.abs(nu_l)))
    return np.abs(nu_k - nu_l) <= ATOL_ALGEBRA * scale


def _require_width(state, width):
    if state.width != width:
        raise TypeError(f"a {('one', 'two')[width - 1]}-particle state is required, "
                        f"not terms of width {state.width}")


def concatenated_pairs(state: SpectralState):
    """Mode pairs surviving the tau-concatenation integral of a bilinear.

    Yields (weight, dp, w_bra, w_ket) for each ordered pair (k, l) whose tau
    frequencies match; weight = conj(c_k) c_l / L^4 and dp = p_l - p_k.  The
    overall scale T_tau of the concatenation integral is carried symbolically
    by the caller.  The pairs come from one n x n grid of frequency tests.
    """
    _require_width(state, 1)
    k, l = np.nonzero(_frequencies_match(state.frequency, state.frequency.T))
    weight = np.conj(state.coeff[k]) * state.coeff[l] / state.box_edge**4
    spinors, momenta = state.spinors()[:, 0], state.p[:, 0]
    yield from zip(weight, momenta[l] - momenta[k], spinors[k], spinors[l])


def _window_outer(group, nu, bra, ket, momenta, points, box_edge):
    """sum over the row pairs (k, l) of one group with matching tau frequencies
    of bar(f_k) (x) g_l, f_k = bra_k exp(i p_k.x) / L^2 and g_l the same of
    ket_l: shape (npoints, c, 4, d, 4) for rows bra (n, c, 4), ket (n, d, 4).
    Sorted by (group, nu), a row's matches form one window, its chain of
    neighbour matches if the chain's ends match, else by bisection.  A window's
    ket rows, and the bra rows whose window it is, each sum to one field per
    point: O(npoints n) work, not O(pairs)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    order = np.lexsort((nu, group))
    nu, group, n = nu[order], group[order], len(order)
    cut = np.ones(n + 1, dtype=bool)
    cut[1:n] = (group[1:] != group[:-1]) | ~_frequencies_match(nu[1:], nu[:-1])
    runs, ends = cut[:n].nonzero()[0], cut[1:].nonzero()[0]  # chain starts and ends
    clique = _frequencies_match(nu[runs], nu[ends]).all()
    chain = cut[:n].cumsum() - 1
    momenta = momenta[order] - momenta[order[runs[chain]]]  # the chain's first p cancels in each pair
    if not clique:
        # bisect toward each row's chain start and end; near always matches
        row = near = np.tile(np.arange(n), 2)
        far = np.concatenate((runs[chain], ends[chain]))
        while (near != far).any():
            mid = (near + far + (far > near)) // 2  # strictly past near, at most far
            ok = _frequencies_match(nu[mid], nu[row])
            near, far = np.where(ok, mid, near), np.where(ok, far, mid - np.sign(far - near))
        # the window ends never decrease along the sorted rows
        runs = np.flatnonzero(np.r_[True, np.diff(near.reshape(2, n)).any(axis=0)])
        windows = (near.reshape(2, n)[:, runs] + [[0], [1]]).T.ravel()  # [lo, hi) pairs
    rows = bra if ket is bra else np.concatenate((bra, ket), axis=1)
    # the columns (4c,) first and the n sorted rows last, so that reduceat sums along a contiguous axis
    size, rows = 4 * ket.shape[1], np.ascontiguousarray(rows[order].reshape(n, 4 * rows.shape[1]).T)
    with np.errstate(all="ignore"):  # an overflowing phase or sum gives NaN samples, for the caller to refuse
        fields = np.exp(1j * (points @ lower_index(momenta).T))[:, None] * rows
        sums = np.add.reduceat(fields, runs, axis=2).swapaxes(1, 2)
        # reduceat sums [lo, hi) at the even entries of windows; the zero pad allows hi = n
        kets = sums[..., -size:] if clique else np.add.reduceat(
            np.pad(fields[:, -size:], ((0, 0), (0, 0), (0, 1))), windows, axis=2)[..., ::2].swapaxes(1, 2)
        outer = sums[..., :4 * bra.shape[1]].conj().swapaxes(1, 2) @ kets / box_edge**4
        return outer.reshape(len(points), *bra.shape[1:], *ket.shape[1:]) * GAMMA0.diagonal()[:, None, None]


def _concatenated_outer(state: SpectralState, points, channels=None):
    """_window_outer in one group: ket rows c_l w_l, bra rows channels (n, c) times w_l or the ket rows."""
    _require_width(state, 1)
    spinors = state.spinors()
    with np.errstate(all="ignore"):  # an overflowing row gives NaN samples, for the caller to refuse
        ket = state.coeff[:, None, None] * spinors
        bra = ket if channels is None else channels[..., None] * spinors
    return _window_outer(np.zeros(len(ket), dtype=np.intp), state.frequency[:, 0], bra, ket,
                         state.p[:, 0], points, state.box_edge)[:, :, :, 0]


class CurrentField(NamedTuple):
    """Current samples and the symbolic concatenation scale they carry."""

    values: np.ndarray
    scale: str


def bilinear_concatenated(state: SpectralState, insert, points):
    """sum over surviving pairs of w_bar_k @ insert @ w_l exp(i dp.x).

    insert may be a (4, 4) matrix or a stack of them with shape (..., 4, 4);
    returns complex samples of shape (npoints, ...) in units of T_tau (the
    symbolic tau-concatenation scale).  A non-finite one raises NonfiniteResult.
    """
    outer = _concatenated_outer(state, points)[:, 0]
    return _finite(np.einsum("xab,...ab->x...", outer, insert), "the concatenated bilinear is not finite")


def _vector_current(outer) -> CurrentField:
    """Real vector current of a hermitian window outer sum (npoints, 4, 4); a
    non-finite sample raises NonfiniteResult, an imaginary part AssertionError."""
    raw = np.einsum("xab,mab->xm", outer, GAMMA_STACK)
    size = _finite(_max_residual(raw), "the vector current is not finite")  # NaN or inf if any sample is
    if _max_residual(raw.imag) > 1e-10 * max(1.0, size):
        raise AssertionError("vector current acquired an imaginary part")
    return CurrentField(values=raw.real, scale="T_tau")


def concatenated_current(state: SpectralState, points) -> CurrentField:
    """Vector current J^mu(x) = integral d tau bar(psi) gamma^mu psi.

    Only equal-frequency mode pairs survive the tau integral; the values are
    reported in units of the symbolic concatenation scale T_tau.
    """
    return _vector_current(_concatenated_outer(state, points)[:, 0])


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


def current_divergence_fd(state: SpectralState, points):
    """Finite-difference divergence d_mu J^mu at each point (4th order central,
    step 2e-3).

    Returns the samples; the identity value is zero for equal-frequency
    superpositions, so the magnitude measures the discretization residual.
    """
    d = _central_differences(lambda x: concatenated_current(state, x).values, points, 2e-3)
    return sum(d[mu, :, mu] for mu in range(4))
