"""Tests of the benchmark itself: seeded inputs, output checks, span statistics.

    python3 -m pytest bench -q
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_S, normalized  # noqa: E402
from tracing import Untraced, percentile, self_times, span_stats  # noqa: E402

from paradirac import cli, states, twobody  # noqa: E402
from paradirac.scattering import ReducedAmplitude  # noqa: E402


def _equal(a, b):
    """Structural equality for nested inputs holding numpy arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return a == b


def _cli_pass(rng):
    return inputs.cli_pass(rng, 2)


@pytest.mark.parametrize("make", [_cli_pass, inputs.large_cycle, inputs.small_op])
def test_generators_repeat_for_a_seed(make):
    first = make(np.random.default_rng(7))
    assert _equal(first, make(np.random.default_rng(7)))
    assert not _equal(first, make(np.random.default_rng(8)))


def test_cli_cycles_keep_their_mix_and_full_mott_range():
    ops = inputs.cli_pass(np.random.default_rng(3), 5)
    width = (inputs.MOTT_LOG_RANGE[1] - inputs.MOTT_LOG_RANGE[0]) / inputs.MOTT_STRATA
    size = len(inputs.CLI_CYCLE)
    for start in range(0, len(ops), size):
        cycle = ops[start:start + size]
        assert sorted(op.command for op in cycle) == sorted(inputs.CLI_CYCLE)
        logs = sorted(np.log10(op.meta["p_mag"] / inputs.ELECTRON_MASS) for op in cycle if op.command == "mott")
        assert logs[0] < inputs.MOTT_LOG_RANGE[0] + width and logs[-1] > inputs.MOTT_LOG_RANGE[1] - width
    points = [(op.meta["state"], op.meta["Z"]) for op in ops if op.command == "uehling"]
    assert sorted(points[:len(inputs.UEHLING_GRID)]) == sorted(inputs.UEHLING_GRID)


def test_large_inputs_repeat_a_quarter_of_labels():
    inp = inputs.large_cycle(np.random.default_rng(11))
    coeffs, labels = inp["a"]
    kept = checks.merged(list(zip(coeffs, labels)))
    assert 0.15 < 1 - len(kept) / len(labels) < 0.35


# ---------------------------------------------------------------------------
# CLI checks

def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _reference():
    with open(os.path.join(HERE, "uehling_ref.json")) as handle:
        return json.load(handle)


def _bump_json(stdout, path, factor):
    record = json.loads(stdout)
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] *= factor
    return json.dumps(record)


def test_mott_check_accepts_output_and_rejects_perturbed_columns():
    meta = {"p_mag": 2.0, "Z": 6, "first": 5.0, "last": 175.0, "count": 12}
    code, out = _cli(["mott", "--p-mag=2.0", "--Z=6", "--angles=5.0:175.0:12"])
    assert code == 0 and checks.check_mott(out, meta) is None
    lines = out.splitlines()
    kappa, dcs, ratio = lines[4].split(",")
    for row in (f"{kappa},{dcs},{float(ratio) * (1 + 1e-8):.12e}",
                f"{kappa},{float(dcs) * (1 + 1e-8):.12e},{ratio}"):
        bad = "\n".join(lines[:4] + [row] + lines[5:]) + "\n"
        assert checks.check_mott(bad, meta) is not None
    assert checks.check_mott("\n".join(lines[:-1]) + "\n", meta) is not None


def test_uehling_g2_anomaly_checks_reject_perturbed_values():
    code, out = _cli(["uehling", "--state=2p", "--Z=10"])
    meta = {"state": "2p", "Z": 10}
    assert code == 0 and checks.check_uehling(out, meta, _reference()) is None
    assert checks.check_uehling(_bump_json(out, ["value"], 1 + 1e-5), meta, _reference()) is not None

    _, out = _cli(["g2", "--alpha=0.01"])
    assert checks.check_g2(out, {"alpha": 0.01}) is None
    assert checks.check_g2(_bump_json(out, ["value"], 1 + 1e-3), {"alpha": 0.01}) is not None

    meta = {"E": [1.0, -2.0, 0.5], "B": [0.3, 0.1, 4.0]}
    _, out = _cli(["anomaly", "--E=1.0,-2.0,0.5", "--B=0.3,0.1,4.0"])
    assert checks.check_anomaly(out, meta) is None
    assert checks.check_anomaly(_bump_json(out, ["value"], 1 + 1e-9), meta) is not None


def test_verify_check_rejects_a_failed_line_or_exit_code():
    code, out = _cli(["verify", "--suite=algebra"])
    assert code == 0 and checks.check_verify(out, code) is None
    assert checks.check_verify(out, 1) is not None
    first = out.splitlines()[0]
    assert checks.check_verify(out.replace(first, first[: -len("pass")] + "FAIL"), 0) is not None


def test_propagate_demo_check_rejects_wrong_survivors():
    meta = {"dtau": -0.7, "which": 1, "modes": 6}
    _, out = _cli(["propagate-demo", "--seed=4", "--dtau=-0.7", "--which=1", "--modes=6"])
    assert checks.check_propagate_demo(out, meta) is None
    record = json.loads(out)
    assert record["survivors"]
    flipped = json.loads(out)
    flipped["survivors"][0]["branch"] *= -1
    assert checks.check_propagate_demo(json.dumps(flipped), meta) is not None
    assert checks.check_propagate_demo(_bump_json(out, ["survivors", 0, "frequency"], 1 + 1e-6), meta) is not None
    assert checks.check_propagate_demo(out, dict(meta, dtau=0.7)) is not None


def test_known_defect_is_only_mott_at_the_top_of_the_range():
    op = workloads.Op("mott", None, None, {"p_mag": 2e3 * inputs.ELECTRON_MASS})
    assert workloads._Cli.explained(op)
    assert not workloads._Cli.explained(op._replace(meta={"p_mag": 0.5 * inputs.ELECTRON_MASS}))
    assert not workloads._Cli.explained(op._replace(kind="uehling"))


# ---------------------------------------------------------------------------
# spectral checks

@pytest.fixture(scope="module")
def small():
    workload = workloads.SpectralSmall(ROOT, 0, Untraced())
    for seed in range(100):  # a state with several distinct modes
        inp = inputs.small_op(np.random.default_rng(seed))
        if len(checks.merged(list(zip(*inp["state"])))) >= 4:
            return inp, workloads.small_pipeline(workload, inp)
    raise AssertionError("no seed gave four distinct modes")


def _bump_state(state):
    (c, m), *rest = state.terms
    return states.SpectralState(((c * (1 + 1e-6), m), *rest), state.box_edge)


def _bump_two(state):
    (c, mx, my), *rest = state.terms
    return twobody.TwoParticleState(((c * (1 + 1e-6), mx, my), *rest), state.exchange, state.box_edge)


PERTURB = {
    "state": _bump_state,
    "mirrored": _bump_state,
    "inner": lambda v: v + 1e-6 * max(1.0, abs(v)),
    "current": lambda v: v + 1e-6 * max(1.0, np.abs(v).max()),
    "two_i": _bump_two,
    "two_f": _bump_two,
    "two_inner": lambda v: v * (1 + 1e-6),
    "s2": lambda v: ReducedAmplitude(v.value * (1 + 1e-6), v.stripped_factors),
    "moller": lambda s: states.SpectralState(s.terms[:1] + ((s.terms[1][0] * (1 + 1e-6), s.terms[1][1]),)
                                             + s.terms[2:], s.box_edge),
}


def test_small_pipeline_passes_its_checks(small):
    inp, result = small
    assert workloads.check_small(inp, result) is None


@pytest.mark.parametrize("key", sorted(PERTURB) + ["evolved", "two_evolved"])
def test_every_spectral_check_rejects_a_perturbed_output(small, key):
    inp, result = small
    bad = dict(result)
    if key == "evolved":
        bad[key] = states.SpectralState(result["state"].terms, result["state"].box_edge)
    elif key == "two_evolved":
        bad[key] = result["two_i"]
    else:
        bad[key] = PERTURB[key](result[key])
    assert workloads.check_small(inp, bad) is not None


def test_large_only_checks_reject_perturbed_outputs(small):
    _, result = small
    state = result["state"]
    for name in ("tpc", "charge_conjugate"):
        image = getattr(states, name)(state)
        assert checks.check_mapped(image, state, name) is None
        assert checks.check_mapped(_bump_state(image), state, name) is not None
    assert checks.check_mapped(states.parity(state), state, "tpc") is not None

    raw = inputs.two_body_terms(np.random.default_rng(2), 24)
    modes = {}
    terms = tuple((c, *(modes.setdefault(id(lab), states.Mode(*lab)) for lab in (x, y))) for c, x, y in raw)
    two = twobody.TwoParticleState(terms)
    assert checks.check_two_terms(two, checks.merged_pairs(raw)) is None
    assert checks.check_two_terms(_bump_two(two), checks.merged_pairs(raw)) is not None
    points = np.random.default_rng(3).normal(size=(4, 4))
    currents = twobody.two_currents(two, points)
    assert checks.check_two_currents(currents, two, points) is None
    j1, j2 = currents
    bad = (j1, j2._replace(values=j2.values + 1e-6 * max(1.0, np.abs(j2.values).max())))
    assert checks.check_two_currents(bad, two, points) is not None


# ---------------------------------------------------------------------------
# span statistics

def test_percentile_interpolates_between_ranks():
    values = list(range(10, 0, -1))
    assert percentile(values, 50) == pytest.approx(5.5)
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile([3.0], 90) == 3.0
    assert percentile([], 50) == 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("op", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 2.0, 5.0, 0, 0),   # overlaps a
        ("c", 8.0, 12.0, 0, 0),  # ends after its parent
        ("d", 2.5, 3.0, 2, 0),   # grandchild, counted against b only
        ("op", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.5, 4.0, 0.5, 1.0])
    stats = span_stats(spans)
    assert stats["op"] == pytest.approx((2, 5.0, 5.5e6))
    assert stats["b"] == pytest.approx((1, 2.5, 3e6))


# ---------------------------------------------------------------------------
# host-speed normalization

def test_normalization_divides_by_the_local_median_reference_time():
    raw = [1.0, 2.0, 1.0, 4.0, 1.0]
    reference = [REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    assert normalized(raw, reference, window=0) == pytest.approx([1.0, 2.0, 0.5, 2.0, 0.5])
    # a window of one: medians of [1,1], [1,1,2], [1,2,2], [2,2,2], [2,2] reference units
    assert normalized(raw, reference, window=1) == pytest.approx([1.0, 2.0, 0.5, 2.0, 0.5])
    slow = [3 * REFERENCE_S] * 5
    assert normalized(raw, slow, window=2) == pytest.approx([r / 3 for r in raw])


# ---------------------------------------------------------------------------
# the loop

class _FakeWorkload:
    reference_reps = 1
    pass_ops = [
        workloads.Op("ok", lambda: 1, lambda r: None, {}),
        workloads.Op("wrong", lambda: 2, lambda r: "wrong output", {}),
        workloads.Op("raises", lambda: 1 / 0, lambda r: None, {}),
    ]


def test_loop_runs_whole_passes_and_counts_each_failing_op_once():
    samples, failures = run.run_loop(_FakeWorkload(), Untraced(), 0.0, False)
    assert [kind for kind, _, _ in samples] == ["ok", "wrong", "raises"]
    assert sorted(failures) == [1, 2]
    samples, failures = run.run_loop(_FakeWorkload(), Untraced(), 0.05, False)
    assert len(samples) > 3 and len(samples) % 3 == 0
    assert sorted(failures) == [1, 2]
