"""The suites of `paradirac verify`: their shape, NaN residuals, and their stacked work.

Each suite maps its check names to residuals, and run_suite pairs them with
a tolerance.  Each check reduces its residuals once, through
algebra._max_residual, never by a Python max() fold: max(0.0, nan) is 0.0,
so a fold drops a NaN and its check passes.  Each NaN test below puts a NaN
into one fold of a suite and requires that check, and no other, to read NaN
and fail.  The last tests pin the work that the suites do once or in stacks:
the constant algebra checks, the draws of modes and the filter evolutions.
"""

import collections
import dataclasses

import numpy as np

from paradirac import propagate, sampling, scattering, spinors, states, twobody, verify
from paradirac.algebra import GAMMA_STACK


def _assert_only_these_fail(checks, names):
    failed = {check.name: check.residual for check in checks if not check.passed}
    assert set(failed) == set(names)
    assert all(np.isnan(resid) for resid in failed.values())


def _nan_on_call(fn, which, make_nan):
    """fn, except that call number `which` (1-based) returns make_nan(result)."""
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        result = fn(*args, **kwargs)
        return make_nan(result) if len(calls) == which else result
    return patched


def test_algebra_folds_keep_a_nan_draw(monkeypatch):
    # the third of the 8 slash(p) draws is NaN
    nan_momentum = _nan_on_call(sampling.random_timelike_momentum, 3, lambda p: np.full_like(p, np.nan))
    monkeypatch.setattr(sampling, "random_timelike_momentum", nan_momentum)
    _assert_only_these_fail(verify.run_suite("algebra", seed=0), [
        "slash(p)^2 + p.p (8 random timelike p)", "slash(p) self-adjoint under bar (8 draws)"])


def test_spinor_batches_keep_a_nan_batch(monkeypatch):
    # only the second of the four batches reads NaN
    name = "u-block orthonormality ubar u - 1"
    nan_batch = _nan_on_call(verify._spinor_residuals, 2, lambda resids: {**resids, name: float("nan")})
    monkeypatch.setattr(verify, "_spinor_residuals", nan_batch)
    _assert_only_these_fail(verify.run_suite("spinors", seed=0), [name])


def test_branch_roundtrip_keeps_a_nan_second_operand(monkeypatch):
    # the block decomposition feeds only `pure - u_a`, the second operand
    monkeypatch.setattr(spinors, "decompose_in_block",
                        lambda p, branch, w: np.full(w.shape[:-1] + (2,), complex(np.nan, np.nan)))
    _assert_only_these_fail(verify.run_suite("spinors", seed=0), ["branch decomposition roundtrip"])


def test_moller_check_keeps_nan_amplitudes(monkeypatch):
    s1_amplitude = scattering.s1_amplitude
    monkeypatch.setattr(scattering, "s1_amplitude",
                        lambda *args: dataclasses.replace(s1_amplitude(*args), value=complex(np.nan, 0.0)))
    _assert_only_these_fail(verify.run_suite("propagate", seed=0),
                            ["first Born node matches reduced amplitude"])


def test_current_reality_keeps_a_nan_component(monkeypatch):
    # only the mu = 2 column of the stacked gamma^mu bilinear reads NaN
    bilinear = states.bilinear_concatenated

    def nan_for_mu_2(state, insert, points):
        values = bilinear(state, insert, points)
        if insert is GAMMA_STACK:
            values[:, 2] = complex(np.nan, np.nan)
        return values
    monkeypatch.setattr(states, "bilinear_concatenated", nan_for_mu_2)
    _assert_only_these_fail(verify.run_suite("currents", seed=0), ["concatenated current reality"])


# checks per suite, in report order
_SUITE_SIZES = {"algebra": 39, "spinors": 13, "propagate": 22, "twobody": 13, "currents": 8}


def test_suites_map_unique_names_to_float_residuals():
    # a label that a later check overwrites in the suite's dict shrinks its count
    assert tuple(_SUITE_SIZES) == verify.SUITE_NAMES
    for index, name in enumerate(verify.SUITE_NAMES):
        residuals = getattr(verify, f"suite_{name}")(np.random.default_rng([0, index]))
        assert type(residuals) is dict and len(residuals) == _SUITE_SIZES[name]
        assert all(type(label) is str and isinstance(resid, float) for label, resid in residuals.items())
        # run_suite pairs the same residuals, in order, with one tolerance
        checks = verify.run_suite(name, seed=0, tol=0.5)
        assert [(check.name, check.residual) for check in checks] == list(residuals.items())
        assert {check.tol for check in checks} == {0.5}


def test_constant_algebra_checks_are_computed_once_and_copied():
    # the 36 checks of the gamma constants come first, equal at every seed
    first = verify.suite_algebra(np.random.default_rng([0, 0]))
    constant = list(first.items())[:36]
    assert constant == list(verify._constant_algebra_checks.__wrapped__().items())
    first["anticommutator (0,0) + 2 g^00"] = float("nan")
    del first["gamma5 anticommutes with gamma^1"]
    second = verify.suite_algebra(np.random.default_rng([1, 0]))
    assert list(second.items())[:36] == constant and len(second) == 39


def test_suites_draw_and_evolve_in_stacks(monkeypatch):
    # one run of every suite, counted: the filter checks evolve four 4-row
    # states, the two-body suite draws its same-sign modes in two blocks and
    # each of its two exchange checks makes one value call for its 8 events
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(sampling, "random_mode", counted("random_mode", sampling.random_mode))
    monkeypatch.setattr(propagate, "free_evolve", counted("free_evolve", propagate.free_evolve))
    monkeypatch.setattr(twobody.TwoParticleState, "value", counted("value", twobody.TwoParticleState.value))
    verify.run_suites(verify.SUITE_NAMES, seed=0)
    assert dict(calls) == {"random_mode": 6, "free_evolve": 18, "value": 2}
