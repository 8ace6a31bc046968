"""The four benchmark workloads.

Each is a closed loop with one client: the next op starts when the previous
one has returned and been checked.  Constructing a workload is its set-up
(import, input generation, warm-up) and leaves ``pass_ops``, the fixed list
of seeded ``Op``s that the loop runs in order and repeats until its time is
up.  ``Op.run`` is the timed part and makes every call into paradirac
through ``tracer.call``; ``Op.check`` runs untimed.  ``reference_reps`` is
how many host-speed reference loops follow each op (see hostspeed.py).
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, NamedTuple

import numpy as np

import checks
import inputs

COLD_TIMEOUT_S = 120


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    meta: dict


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# CLI workloads

def check_cli(op, returncode, stdout, uehling_reference):
    if op.command == "verify":
        return checks.check_verify(stdout, returncode)
    if returncode != 0:
        return f"{op.command}: exit {returncode}"
    if op.command == "mott":
        return checks.check_mott(stdout, op.meta)
    if op.command == "uehling":
        return checks.check_uehling(stdout, op.meta, uehling_reference)
    if op.command == "g2":
        return checks.check_g2(stdout, op.meta)
    if op.command == "anomaly":
        return checks.check_anomaly(stdout, op.meta)
    return checks.check_propagate_demo(stdout, op.meta)


class _Cli:
    """Shared argv stream and checks of cli_cold and cli_warm."""

    def __init__(self, root, seed, tracer, cycles):
        self.root = root
        self.tracer = tracer
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "uehling_ref.json")) as handle:
            self.uehling_reference = json.load(handle)
        self.first_argv = {}
        self.pass_ops = []
        for cli_op in inputs.cli_pass(np.random.default_rng(seed), cycles):
            self.first_argv.setdefault(cli_op.command, cli_op.argv)
            self.pass_ops.append(Op(cli_op.command, self._runner(cli_op), self._checker(cli_op), cli_op.meta))

    def _runner(self, cli_op):
        return lambda: self.tracer.call("cli." + cli_op.command, self.invoke, cli_op.argv)

    def _checker(self, cli_op):
        def check(result):
            returncode, stdout = result
            error = check_cli(cli_op, returncode, stdout, self.uehling_reference)
            if error is None and cli_op.command == "propagate-demo":
                record = json.loads(stdout)
                self.tracer.count("propagate.modes_in", record["modes_in"])
                self.tracer.count("propagate.modes_out", record["modes_out"])
            return error
        return check

    @staticmethod
    def explained(op):
        """The known defect: Mott ratios lose precision at the top of the
        momentum range, because the kinematics cancel catastrophically."""
        return op.kind == "mott" and op.meta["p_mag"] / inputs.ELECTRON_MASS >= 1e3

    def cold(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "paradirac.cli", *argv], cwd=self.root,
            capture_output=True, text=True, timeout=COLD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def warm(self, argv):
        from paradirac import cli

        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            returncode = cli.main(argv)
        return returncode, out.getvalue()


class CliCold(_Cli):
    """One cold `python -m paradirac.cli` subprocess per op; a pass is one
    cycle, which takes about 15 s."""

    reference_reps = 40

    def __init__(self, root, seed, tracer):
        super().__init__(root, seed, tracer, cycles=1)
        self.invoke = self.cold
        self.cold(["g2"])

    def peak_rss_mb(self):
        return _peak_rss_mb(resource.RUSAGE_CHILDREN)


class CliWarm(_Cli):
    """The same argv stream through cli.main(argv) in this process; a pass
    is five cycles, so its 25 uehling ops cover the reference grid."""

    reference_reps = 8

    def __init__(self, root, seed, tracer):
        super().__init__(root, seed, tracer, cycles=5)
        self.invoke = self.warm
        for argv in (["verify", "--suite=algebra"], ["mott", "--angles=10:170:5"], ["g2"],
                     ["uehling", "--state=2p", "--Z=10"], ["anomaly", "--E=1,0,0", "--B=1,0,0"],
                     ["propagate-demo"]):
            self.warm(argv)

    def peak_rss_mb(self):
        return _peak_rss_mb(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------
# spectral workloads

class _Spectral:
    def __init__(self, root, seed, tracer):
        import paradirac  # noqa: F401  the whole package, as a library user imports it
        from paradirac import propagate, scattering, states, twobody

        self.states, self.propagate, self.twobody = states, propagate, twobody
        self.coulomb = scattering.coulomb_potential
        self.tracer = tracer
        self.pass_ops = self.make_pass(np.random.default_rng(seed))
        warm_rng = np.random.default_rng([seed, 1])
        for _ in range(5):
            small_pipeline(self, inputs.small_op(warm_rng))

    @staticmethod
    def explained(op):
        return False

    def peak_rss_mb(self):
        return _peak_rss_mb(resource.RUSAGE_SELF)

    # timed building blocks; every library call goes through the tracer

    def modes(self, labels):
        call, mode = self.tracer.call, self.states.Mode
        return [call("states.Mode", mode, p, branch, a) for p, branch, a in labels]

    def state(self, coeffs, labels):
        terms = tuple(zip(coeffs, self.modes(labels)))
        out = self.tracer.call("states.SpectralState", self.states.SpectralState, terms)
        self.tracer.count("states.terms_in", len(terms))
        self.tracer.count("states.terms_out", len(out.terms))
        return out

    def two_state(self, raw):
        """TwoParticleState from raw triples; one Mode per distinct label."""
        built = {}
        for _, x, y in raw:
            for label in (x, y):
                if id(label) not in built:
                    built[id(label)] = self.modes([label])[0]
        terms = tuple((c, built[id(x)], built[id(y)]) for c, x, y in raw)
        out = self.tracer.call("twobody.TwoParticleState", self.twobody.TwoParticleState, terms)
        self.tracer.count("twobody.terms_in", len(terms))
        self.tracer.count("twobody.terms_out", len(out.terms))
        return out

    def evolve(self, state, tau, tau_prime, which):
        out = self.tracer.call("propagate.free_evolve", self.propagate.free_evolve,
                               state, tau, tau_prime, which)
        self.tracer.count("propagate.modes_in", len(state.terms))
        self.tracer.count("propagate.modes_out", len(out.terms))
        return out

    def current(self, state, points):
        values = self.tracer.call("states.concatenated_current", self.states.concatenated_current,
                                  state, points).values
        if self.tracer.counting:
            pairs = sum(1 for _ in self.states.concatenated_pairs(state))
            self.tracer.count("states.pairs_surviving", pairs)
        return values


def _all_ok(*errors):
    return next((e for e in errors if e is not None), None)


def small_pipeline(w, inp):
    """One spectral_small op: build -> free_evolve -> parity -> inner_product
    -> concatenated_current -> antisymmetrize -> two_inner_product/two_evolve
    -> s2_first_order/moller_first_order.  Returns the outputs to check."""
    call, st, tb = w.tracer.call, w.states, w.twobody
    coeffs, labels = inp["state"]
    tau, tau_prime, which = inp["evolve"]
    x, y, fx, z = inp["s2"]
    state = w.state(coeffs, labels)
    evolved = w.evolve(state, tau, tau_prime, which)
    mirrored = call("states.parity", st.parity, state)
    inner = call("states.inner_product", st.inner_product, state, evolved)
    current = w.current(state, inp["points"])
    mx, my, mfx = w.modes([x, y, fx])
    two_i = call("twobody.antisymmetrize", tb.antisymmetrize, mx, my)
    two_f = call("twobody.antisymmetrize", tb.antisymmetrize, mfx, my)
    w.tracer.count("twobody.terms_in", 4)
    w.tracer.count("twobody.terms_out", len(two_i.terms) + len(two_f.terms))
    two_inner = call("twobody.two_inner_product", tb.two_inner_product, two_i, two_i)
    two_evolved = call("twobody.two_evolve", tb.two_evolve, two_i, tau, tau_prime, which)
    coulomb = w.coulomb(z)
    s2 = call("twobody.s2_first_order", tb.s2_first_order, two_i, two_f, (coulomb, coulomb))
    moller = call("propagate.moller_first_order", w.propagate.moller_first_order,
                  mx, coulomb, np.array(inp["moller"]))
    return {"state": state, "evolved": evolved, "mirrored": mirrored, "inner": inner,
            "current": current, "two_i": two_i, "two_f": two_f, "two_inner": two_inner,
            "two_evolved": two_evolved, "s2": s2, "moller": moller}


def check_small(inp, r):
    want = checks.merged(list(zip(*inp["state"])))
    tau, tau_prime, which = inp["evolve"]
    want_evolved = checks.evolved_terms(want, tau, tau_prime, which)
    x, y, fx, z = inp["s2"]
    anti = checks.merged_pairs([(2**-0.5, x, y), (-(2**-0.5), y, x)])
    anti_f = checks.merged_pairs([(2**-0.5, fx, y), (-(2**-0.5), y, fx)])
    return _all_ok(
        checks.check_terms(r["state"], want),
        checks.check_terms(r["evolved"], want_evolved, "free_evolve"),
        checks.check_mapped(r["mirrored"], r["state"], "parity"),
        checks.check_inner(r["inner"], want, want_evolved),
        checks.check_current(r["current"], r["state"], inp["points"]),
        checks.check_two_terms(r["two_i"], anti, "antisymmetrize", "fermionic"),
        checks.check_two_terms(r["two_f"], anti_f, "antisymmetrize", "fermionic"),
        checks.check_two_inner(r["two_inner"], anti, anti),
        checks.check_two_evolved(r["two_evolved"], anti, tau, tau_prime, which),
        checks.check_s2(r["s2"], r["two_i"], r["two_f"], z, z),
        checks.check_moller(r["moller"], x, inp["moller"], z),
    )


class SpectralSmall(_Spectral):
    """The whole pipeline on one 2-8 mode state per op; 200 ops a pass."""

    reference_reps = 1

    def make_pass(self, rng):
        return [Op("pipeline", lambda inp=inp: small_pipeline(self, inp),
                   lambda r, inp=inp: check_small(inp, r), {})
                for inp in (inputs.small_op(rng) for _ in range(200))]


class SpectralLarge(_Spectral):
    """Single library calls on states with hundreds of modes or terms; a
    pass is two cycles of 18 calls."""

    reference_reps = 8

    def make_pass(self, rng):
        return [op for _ in range(2) for op in self.cycle(inputs.large_cycle(rng))]

    def cycle(self, inp):
        call, st, tb, pr = self.tracer.call, self.states, self.twobody, self.propagate
        out = {}
        want = {key: checks.merged(list(zip(*inp[key]))) for key in ("a", "b", "current")}
        tau, tau_prime, which = inp["evolve"]
        two_tau, two_tau_prime, two_which = inp["two_evolve"]
        initial, final, z1, z2 = inp["s2"]
        incident, momenta, z = inp["moller"]

        def op(kind, key, run, check):
            def timed():
                out[key] = run()
                return out[key]
            return Op(kind, timed, check, {})

        yield op("build", "a", lambda: self.state(*inp["a"]),
                 lambda s: checks.check_terms(s, want["a"]))
        yield op("build", "b", lambda: self.state(*inp["b"]),
                 lambda s: checks.check_terms(s, want["b"]))
        yield op("inner_product", "inner", lambda: call("states.inner_product", st.inner_product,
                                                       out["a"], out["b"]),
                 lambda v: checks.check_inner(v, want["a"], want["b"]))
        for name in ("parity", "tpc", "charge_conjugate"):
            yield op(name, name, lambda name=name: call("states." + name, getattr(st, name), out["a"]),
                     lambda s, name=name: checks.check_mapped(s, out["a"], name))
        yield op("free_evolve", "evolved", lambda: self.evolve(out["a"], tau, tau_prime, which),
                 lambda s: checks.check_terms(s, checks.evolved_terms(want["a"], tau, tau_prime, which),
                                              "free_evolve"))
        yield op("build", "c", lambda: self.state(*inp["current"]),
                 lambda s: checks.check_terms(s, want["current"]))
        yield op("concatenated_current", "current", lambda: self.current(out["c"], inp["points"]),
                 lambda v: checks.check_current(v, out["c"], inp["points"]))
        for key in ("two", "two_b", "two_current"):
            yield op("two_build", key, lambda key=key: self.two_state(inp[key]),
                     lambda s, key=key: checks.check_two_terms(s, checks.merged_pairs(inp[key])))
        yield op("two_inner_product", "two_inner",
                 lambda: call("twobody.two_inner_product", tb.two_inner_product, out["two"], out["two_b"]),
                 lambda v: checks.check_two_inner(v, checks.merged_pairs(inp["two"]),
                                                  checks.merged_pairs(inp["two_b"])))
        yield op("two_evolve", "two_evolved",
                 lambda: call("twobody.two_evolve", tb.two_evolve, out["two"], two_tau, two_tau_prime, two_which),
                 lambda s: checks.check_two_evolved(s, checks.merged_pairs(inp["two"]),
                                                    two_tau, two_tau_prime, two_which))
        yield op("two_currents", "two_currents",
                 lambda: call("twobody.two_currents", tb.two_currents, out["two_current"], inp["points"]),
                 lambda v: checks.check_two_currents(v, out["two_current"], inp["points"]))
        for key, raw in (("two_i", initial), ("two_f", final)):
            yield op("two_build", key, lambda raw=raw: self.two_state(raw),
                     lambda s, raw=raw: checks.check_two_terms(s, checks.merged_pairs(raw)))
        yield op("s2_first_order", "s2",
                 lambda: call("twobody.s2_first_order", tb.s2_first_order, out["two_i"], out["two_f"],
                              (self.coulomb(z1), self.coulomb(z2))),
                 lambda v: checks.check_s2(v, out["two_i"], out["two_f"], z1, z2))
        yield op("moller_first_order", "moller",
                 lambda: call("propagate.moller_first_order", pr.moller_first_order,
                              self.modes([incident])[0], self.coulomb(z), np.array(momenta)),
                 lambda s: checks.check_moller(s, incident, momenta, z))


WORKLOADS = {
    "cli_cold": CliCold,
    "cli_warm": CliWarm,
    "spectral_large": SpectralLarge,
    "spectral_small": SpectralSmall,
}
