"""Momentum-block spinors: orthonormality, projectors, spin machinery."""

import numpy as np
import pytest

from paradirac.algebra import I2, I4, GAMMA5, bar, four_vector, minkowski_dot, slash
from paradirac.errors import MasslessState, NonUnitSpin, SuperluminalMomentum, ZeroEnergy
from paradirac.sampling import (
    random_spin_coefficients,
    random_spinor_draws,
    random_timelike_momentum,
    random_unit_vector,
)
from paradirac.spinors import (
    boost_spin,
    branch_block,
    branch_projector,
    chirality_projector,
    decompose_in_block,
    helicity_operator,
    lambda_u,
    lambda_v,
    spin_projector,
    u_block,
    v_block,
)
from paradirac.verify import DEFAULT_TOLS, SUITE_NAMES, suite_spinors


def _draws(rng, count=60):
    for k in range(count):
        yield random_timelike_momentum(rng, phi=1 if k % 2 == 0 else -1)


class TestOrthonormality:
    def test_u_and_v_blocks(self, rng):
        for p in _draws(rng):
            ub, vb = u_block(p), v_block(p)
            assert np.abs(bar(ub) @ ub - I2).max() <= 1e-12
            assert np.abs(bar(vb) @ vb + I2).max() <= 1e-12
            assert np.abs(bar(ub) @ vb).max() <= 1e-12
            assert np.abs(bar(vb) @ ub).max() <= 1e-12

    def test_ultrarelativistic_stability(self):
        # cancellation-prone regime: |p| huge against the rest mass
        p = four_vector(np.hypot(1.0, 3e7), 3e7, 0.0, 0.0)
        ub, vb = u_block(p), v_block(p)
        assert np.abs(bar(ub) @ ub - I2).max() <= 1e-9
        assert np.abs(bar(vb) @ vb + I2).max() <= 1e-9

    def test_rest_frame_blocks(self):
        p = four_vector(1.7, 0.0, 0.0, 0.0)
        ub, vb = u_block(p), v_block(p)
        assert np.abs(ub[:2] - I2).max() <= 1e-15 and np.abs(ub[2:]).max() <= 1e-15
        assert np.abs(vb[2:] - I2).max() <= 1e-15 and np.abs(vb[:2]).max() <= 1e-15


class TestProjectors:
    def test_outer_products(self, rng):
        for p in _draws(rng):
            ub, vb = u_block(p), v_block(p)
            assert np.abs(ub @ bar(ub) - lambda_u(p)).max() <= 1e-12
            assert np.abs(vb @ bar(vb) + lambda_v(p)).max() <= 1e-12

    def test_completeness_and_idempotence(self, rng):
        for p in _draws(rng, count=20):
            lu, lv = lambda_u(p), lambda_v(p)
            assert np.abs(lu + lv - I4).max() <= 1e-12
            assert np.abs(lu @ lu - lu).max() <= 1e-12
            assert np.abs(lv @ lv - lv).max() <= 1e-12
            assert np.abs(lu @ lv).max() <= 1e-12

    def test_closed_form(self, rng):
        for p in _draws(rng, count=20):
            m = np.sqrt(-minkowski_dot(p, p))
            phi = np.sign(p[0])
            assert np.abs(lambda_u(p) - (m * I4 - phi * slash(p)) / (2 * m)).max() <= 1e-12

    def test_frequency_eigenrelation(self, rng):
        # slash(p) w = -nu w with nu = branch * phi * m, uniformly in branch
        for p in _draws(rng, count=20):
            m = np.sqrt(-minkowski_dot(p, p))
            phi = np.sign(p[0])
            for branch in (1, -1):
                blk = branch_block(p, branch)
                nu = branch * phi * m
                assert np.abs(slash(p) @ blk + nu * blk).max() <= 1e-11 * max(1.0, m)


class TestBranchDecomposition:
    def test_roundtrip_pure_branch(self, rng):
        for p in _draws(rng, count=10):
            for branch in (1, -1):
                a = random_spin_coefficients(rng)
                w = branch_block(p, branch) @ a
                assert np.abs(decompose_in_block(p, branch, w) - a).max() <= 1e-12

    def test_rejects_mixed_spinor(self, rng):
        p = random_timelike_momentum(rng, phi=1)
        w = u_block(p) @ np.array([1.0, 0.0]) + v_block(p) @ np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            decompose_in_block(p, +1, w)

    def test_branch_dispatch(self, rng):
        p = random_timelike_momentum(rng)
        assert np.array_equal(branch_block(p, 1), u_block(p))
        assert np.array_equal(branch_block(p, -1), v_block(p))
        assert np.array_equal(branch_projector(p, 1), lambda_u(p))
        assert np.array_equal(branch_projector(p, -1), lambda_v(p))
        with pytest.raises(ValueError):
            branch_block(p, 0)

    @pytest.mark.parametrize("branch", [0, 7, -2, 0.5])
    def test_projector_rejects_other_branches(self, rng, branch):
        p = random_timelike_momentum(rng)
        with pytest.raises(ValueError, match="branch must be"):
            branch_projector(p, branch)
        with pytest.raises(ValueError, match="branch must be"):
            branch_block(p, branch)


class TestSpinMachinery:
    def test_boost_spin_constraints(self, rng):
        for p in _draws(rng, count=20):
            s = boost_spin(random_unit_vector(rng), p)
            assert abs(minkowski_dot(p, s)) <= 1e-10 * max(1.0, float(np.dot(p, p)))
            assert abs(minkowski_dot(s, s) - 1.0) <= 1e-10 * max(1.0, float(np.dot(s, s)))

    def test_boost_spin_at_rest(self):
        p = four_vector(0.9, 0.0, 0.0, 0.0)
        n = np.array([0.0, 0.6, 0.8])
        s = boost_spin(n, p)
        assert abs(s[0]) <= 1e-15
        assert np.abs(s[1:] - n).max() <= 1e-15

    def test_spin_projector_properties(self, rng):
        for p in _draws(rng, count=15):
            s = boost_spin(random_unit_vector(rng), p)
            sig = spin_projector(s)
            assert np.abs(sig @ sig - sig).max() <= 1e-12
            assert np.abs(sig @ lambda_u(p) - lambda_u(p) @ sig).max() <= 1e-12
            assert abs(np.trace(sig @ lambda_u(p)) - 1.0) <= 1e-12

    def test_spin_projector_extreme_boost(self):
        # the unit-norm gate must not trip on cancellation at high energy,
        # and idempotence holds to machine precision relative to the entry
        # scale (the absolute residual grows as |s|^2 by conditioning)
        p = four_vector(np.hypot(1.0, 4e6), 0.0, 4e6, 0.0)
        s = boost_spin(np.array([0.0, 1.0, 0.0]), p)
        sig = spin_projector(s)
        scale = max(1.0, float(np.abs(sig).max()) ** 2)
        assert np.abs(sig @ sig - sig).max() <= 1e-12 * scale

    def test_spin_projector_rejects_non_unit(self):
        with pytest.raises(NonUnitSpin):
            spin_projector(four_vector(0.0, 0.5, 0.0, 0.0))

    def test_chirality_projectors(self):
        pl, pr = chirality_projector(-1), chirality_projector(+1)
        assert np.abs(pl + pr - I4).max() == 0.0
        assert np.abs(pl @ pl - pl).max() <= 1e-15
        assert np.abs(pl @ pr).max() <= 1e-15
        assert np.abs(GAMMA5 @ pr - pr).max() <= 1e-15
        assert np.abs(GAMMA5 @ pl + pl).max() <= 1e-15

    def test_helicity_operator(self, rng):
        for p in _draws(rng, count=10):
            h = helicity_operator(p)
            assert np.abs(h @ h - I4).max() <= 1e-12
            assert np.abs(h @ lambda_u(p) - lambda_u(p) @ h).max() <= 1e-12
            assert np.abs(h @ GAMMA5 - GAMMA5 @ h).max() <= 1e-12


def _batch(rng, n=50):
    return np.array([random_timelike_momentum(rng, mass=10.0 ** rng.uniform(-1.0, 1.0),
                                              p_scale=10.0 ** rng.uniform(-2.0, 3.0))
                     for _ in range(n)])


class TestBatched:
    """Momenta of shape (n, 4) give the row-by-row blocks bit for bit."""

    def test_blocks_and_projectors_equal_rows(self, rng):
        p = _batch(rng)
        for fn in (u_block, v_block, lambda_u, lambda_v):
            assert np.array_equal(fn(p), [fn(row) for row in p]), fn.__name__
        for branch in (1, -1):
            assert np.array_equal(branch_block(p, branch), [branch_block(row, branch) for row in p])
            assert np.array_equal(branch_projector(p, branch),
                                  [branch_projector(row, branch) for row in p])

    def test_decomposition_equals_rows(self, rng):
        p = _batch(rng)
        a = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
        for branch in (1, -1):
            w = np.einsum("nij,nj->ni", branch_block(p, branch), a)
            batch = decompose_in_block(p, branch, w)
            assert np.array_equal(batch, [decompose_in_block(q, branch, x) for q, x in zip(p, w)])
            assert np.abs(batch - a).max() <= 1e-10 * np.abs(a).max()

    def test_spin_machinery_equals_rows(self, rng):
        p = _batch(rng)
        s_hat = rng.normal(size=(50, 3))
        s = boost_spin(s_hat, p)
        assert np.array_equal(s, [boost_spin(h, q) for h, q in zip(s_hat, p)])
        assert np.array_equal(spin_projector(s), [spin_projector(row) for row in s])

    def test_carried_mass_matches_default(self, rng):
        p = _batch(rng)
        m = np.sqrt(-minkowski_dot(p, p))
        for fn in (u_block, v_block, lambda_u, lambda_v):
            assert np.abs(fn(p, m) - fn(p)).max() <= 1e-12 * np.abs(fn(p)).max()

    def test_carried_mass_survives_rounding(self):
        # at |p|/m = 1e8 the rounded p0 makes p lightlike to mass_of
        p = four_vector(np.hypot(1.0, 1e8), 0.0, 0.0, 1e8)
        with pytest.raises(MasslessState):
            lambda_u(p)
        lu = lambda_u(p, 1.0)
        assert np.abs(lu @ lu - lu).max() <= 1e-8 * np.abs(lu).max() ** 2

    @pytest.mark.parametrize("bad,error", [
        (four_vector(1.0, 0.0, 3.0, 0.0), SuperluminalMomentum),
        (four_vector(2.0, 0.0, 0.0, 2.0), MasslessState),
        (four_vector(0.0, 0.5, 0.0, 0.0), ZeroEnergy),
    ])
    def test_one_bad_row_raises_its_scalar_error(self, rng, bad, error):
        p = _batch(rng)
        p[31] = bad
        for fn in (u_block, v_block, lambda_u, lambda_v):
            with pytest.raises(error):
                fn(bad)
            with pytest.raises(error):
                fn(p)
        with pytest.raises(error):
            decompose_in_block(p, 1, np.ones((50, 4), dtype=complex))

    def test_one_row_off_the_branch_raises(self, rng):
        p = _batch(rng)
        w = np.einsum("nij,nj->ni", u_block(p), np.ones((50, 2)))
        w[5] += v_block(p[5]) @ np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="branch subspace"):
            decompose_in_block(p, 1, w)


def _suite_spinors_loop(rng, count):
    """The spinors suite one draw at a time, as it ran before it was batched:
    the reference for the draws and the arithmetic of verify.suite_spinors."""
    worst = [0.0] * 13
    for k in range(count):
        phi = 1 if k % 2 == 0 else -1
        p = random_timelike_momentum(rng, phi=phi)
        m = np.sqrt(-minkowski_dot(p, p))
        ub, vb = u_block(p), v_block(p)
        found = [
            bar(ub) @ ub - I2, bar(vb) @ vb + I2, bar(ub) @ vb, bar(vb) @ ub,
            ub @ bar(ub) - lambda_u(p), vb @ bar(vb) + lambda_v(p),
            lambda_u(p) + lambda_v(p) - I4,
            slash(p) @ ub + phi * m * ub, slash(p) @ vb - phi * m * vb,
        ]
        a_u = random_spin_coefficients(rng)
        a_v = random_spin_coefficients(rng)
        w = ub @ a_u + 0.6 * vb @ a_v
        rebuilt = ub @ (bar(ub) @ w) + vb @ (-(bar(vb) @ w))
        pure = branch_block(p, +1) @ decompose_in_block(p, +1, ub @ a_u)
        found.append(max(np.abs(rebuilt - w).max(), np.abs(pure - ub @ a_u).max()))
        if k % 10 == 0:
            sig = spin_projector(boost_spin(random_unit_vector(rng), p))
            found += [sig @ sig - sig, sig @ lambda_u(p) - lambda_u(p) @ sig,
                      np.trace(sig @ lambda_u(p)) - 1.0]
        for i, value in enumerate(found):
            worst[i] = max(worst[i], float(np.abs(value).max()))
    return worst


class TestSpinorDraws:
    @pytest.mark.parametrize("seed,count", [(0, 1000), (3, 95)])
    def test_equal_the_per_draw_calls(self, seed, count):
        p, phi, a_u, a_v, dirs = random_spinor_draws(np.random.default_rng(seed), count)
        rng = np.random.default_rng(seed)
        for k in range(count):
            assert phi[k] == (1 if k % 2 == 0 else -1)
            assert np.array_equal(p[k], random_timelike_momentum(rng, phi=phi[k]))
            assert np.array_equal(a_u[k], random_spin_coefficients(rng))
            assert np.array_equal(a_v[k], random_spin_coefficients(rng))
            if k % 10 == 0:
                assert np.array_equal(dirs[k // 10], random_unit_vector(rng))
        assert len(dirs) == -(-count // 10)


class TestBatchedSuite:
    @pytest.mark.parametrize("seed,count", [(0, 1000), (1, 95), (7, 30)])
    def test_residuals_equal_the_draw_by_draw_loop(self, seed, count):
        # same seeded stream, same rounding: the residuals agree bit for bit
        stream = [seed, SUITE_NAMES.index("spinors")]
        batched = suite_spinors(np.random.default_rng(stream), DEFAULT_TOLS["spinors"], count)
        loop = _suite_spinors_loop(np.random.default_rng(stream), count)
        assert [check.residual for check in batched] == loop
