"""Command-line interface: verification suites and physics emitters.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments.
CSV output uses comma separators, '.' decimals, and LF line ends; JSON
output is a single top-level object per invocation with units metadata.
Identical flags and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

# each cmd_* imports the layers it runs, so a process loads only those
from .algebra import ELECTRON_MASS, FINE_STRUCTURE
from .errors import NonfiniteResult

_STATE_LABELS = {"1s": (1, 0), "2s": (2, 0), "2p": (2, 1)}
_SUITE_NAMES = ("algebra", "spinors", "propagate", "twobody", "currents")  # verify.SUITE_NAMES, without loading verify


def _parse_angles(text: str):
    """Angle grid in degrees: 'start:stop:count' or a comma list."""
    try:
        if ":" in text:
            start, stop, count = text.split(":")
            grid = np.linspace(_finite(start), _finite(stop), int(count))
        else:
            grid = np.array([_finite(v) for v in text.split(",")])
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad angle grid {text!r}: {exc}") from None
    if grid.size == 0:
        raise argparse.ArgumentTypeError("empty angle grid")
    if np.any(grid <= 0.0) or np.any(grid > 180.0):
        raise argparse.ArgumentTypeError("angles must lie in (0, 180] degrees")
    return grid


def _parse_triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values, got {text!r}")
    return [_finite(v) for v in parts]


def _finite(text: str) -> float:
    """A float argument; NaN and infinities are rejected."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _int_at_least(lowest: int, bound: str):
    """Parser type for an int argument of at least `lowest`; `bound` words
    the refusal, "must be {bound}, got {text}"."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return parse


_positive_int = _int_at_least(1, "at least 1")
_nonnegative_int = _int_at_least(0, "non-negative")


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        handle = open(out_path, "w", newline="")
    except OSError as exc:  # an --out path that cannot be opened is an invalid argument: exit 2
        raise ValueError(f"cannot write {out_path}: {exc.strerror}") from None
    with handle:
        handle.write(text)


def _emit_json(record: dict, out_path) -> int:
    # allow_nan=False: a non-finite value raises ValueError (exit 2) instead
    # of printing NaN or Infinity, which strict JSON readers reject.
    _emit(json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n", out_path)
    return 0


class _Parser(argparse.ArgumentParser):
    """An invalid argument exits 2 with one line on stderr, like any other
    invalid input; the usage text stays with --help."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paradirac",
        description="Spinor algebra, scattering, and radiative endpoint calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the named residual suites")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("--suite", choices=("all",) + _SUITE_NAMES, default="all")
    p_verify.add_argument("--seed", type=_nonnegative_int, default=0)
    p_verify.add_argument("--tol", type=_positive, default=None,
                          help="override every per-suite tolerance")

    p_mott = sub.add_parser("mott", help="angular cross-section table (CSV)")
    p_mott.set_defaults(run=cmd_mott)
    p_mott.add_argument("--p-mag", type=_positive, default=ELECTRON_MASS,
                        help="momentum magnitude in MeV (default: electron mass)")
    p_mott.add_argument("--Z", type=_positive, default=1.0)
    p_mott.add_argument("--angles", type=_parse_angles, default="3.6:176.4:50",
                        help="degrees, 'start:stop:count' or comma list, in (0, 180]")

    p_ueh = sub.add_parser("uehling", help="vacuum-polarization level shift (JSON)")
    p_ueh.set_defaults(run=cmd_uehling)
    p_ueh.add_argument("--Z", type=_positive, default=1.0)
    p_ueh.add_argument("--state", choices=sorted(_STATE_LABELS), default="2s")

    p_g2 = sub.add_parser("g2", help="anomalous moment endpoint (JSON)")
    p_g2.set_defaults(run=cmd_g2)
    p_g2.add_argument("--alpha", type=_positive, default=FINE_STRUCTURE)

    p_anom = sub.add_parser("anomaly", help="axial anomaly contraction (JSON)")
    p_anom.set_defaults(run=cmd_anomaly)
    p_anom.add_argument("--E", type=_parse_triple, required=True, metavar="Ex,Ey,Ez")
    p_anom.add_argument("--B", type=_parse_triple, required=True, metavar="Bx,By,Bz")

    p_demo = sub.add_parser("propagate-demo",
                            help="free evolution of a seeded random state (JSON)")
    p_demo.set_defaults(run=cmd_propagate_demo)
    p_demo.add_argument("--seed", type=_nonnegative_int, default=0)
    p_demo.add_argument("--dtau", type=_finite, default=1.0)
    p_demo.add_argument("--which", type=int, choices=(1, -1), default=1)
    p_demo.add_argument("--modes", type=_positive_int, default=4)

    for p_emit in (p_mott, p_ueh, p_g2, p_anom, p_demo):
        p_emit.add_argument("--out", default=None)
    return parser


def cmd_verify(args) -> int:
    from .verify import SUITE_NAMES, all_passed, format_report, run_suites

    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(names, seed=args.seed, tol=args.tol)
    sys.stdout.write(format_report(results))
    return 0 if all_passed(results) else 1


# Angles per batched Mott table.  Each row keeps a few complex temporaries
# live (4x4 for X, 4x2 and 2x4 spinor blocks, the 2x2 amplitudes), so a long
# grid is taken in slices; the benchmark's tables (at most 200 angles) are
# one slice.
_MOTT_BATCH = 200


def cmd_mott(args) -> int:
    from .scattering import mott_dcs, rutherford_dcs

    lines = ["kappa_deg,dcs,ratio_to_rutherford\n"]
    for lo in range(0, args.angles.size, _MOTT_BATCH):
        degrees = args.angles[lo:lo + _MOTT_BATCH]
        kappa = np.radians(degrees)
        # floating-point warnings off: a row that overflows or underflows to
        # 0/0 raises NonfiniteResult below instead
        with np.errstate(all="ignore"):
            dcs = mott_dcs(args.p_mag, kappa, args.Z)
            ratio = np.divide(dcs, rutherford_dcs(args.p_mag, kappa, args.Z))
        bad = ~(np.isfinite(dcs) & np.isfinite(ratio))
        if bad.any():
            raise NonfiniteResult(f"non-finite cross-section at {degrees[bad.argmax()]:g} deg")
        lines += ["%.6f,%.12e,%.12e\n" % row
                  for row in zip(degrees.tolist(), dcs.tolist(), ratio.tolist())]
    _emit("".join(lines), args.out)
    return 0


def cmd_uehling(args) -> int:
    from .radiative import shift_record

    n, l = _STATE_LABELS[args.state]
    return _emit_json(shift_record(n, l, args.Z), args.out)


def cmd_g2(args) -> int:
    from .radiative import f2_record

    return _emit_json(f2_record(alpha=args.alpha), args.out)


def cmd_anomaly(args) -> int:
    from .radiative import anomaly_record

    return _emit_json(anomaly_record(args.E, args.B), args.out)


def cmd_propagate_demo(args) -> int:
    from .propagate import free_evolve, influence_conjugation_check
    from .sampling import random_state

    rng = np.random.default_rng(args.seed)
    state = random_state(rng, n_modes=args.modes)
    evolved = free_evolve(state, 0.0, args.dtau, args.which)
    rows = (evolved.coeff, evolved.p[:, 0], evolved.branch[:, 0], evolved.frequency[:, 0])
    survivors = [{"p": p, "branch": branch, "frequency": nu, "coefficient": [c.real, c.imag]}
                 for c, p, branch, nu in zip(*(x.tolist() for x in rows))]
    record = {
        "command": "propagate-demo",
        "which": args.which,
        "dtau": args.dtau,
        "seed": args.seed,
        "modes_in": len(state.coeff),
        "modes_out": len(evolved.coeff),
        "survivors": survivors,
        "kernel_conjugation_residual": influence_conjugation_check(np.zeros(4), args.dtau,
                                                                   state.p[:, 0]),
        "units": {
            "p": "MeV",
            "frequency": "MeV",
            "dtau": "MeV^-1",
            "coefficient": "dimensionless",
            "kernel_conjugation_residual": "dimensionless",
        },
    }
    return _emit_json(record, args.out)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: in-process callers of main reuse it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"paradirac {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
