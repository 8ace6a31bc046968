"""Command-line interface: verification suites and physics emitters.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments.
CSV output uses comma separators, '.' decimals, and LF line ends; JSON
output is a single top-level object per invocation with units metadata.
Identical flags and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from .algebra import ELECTRON_MASS, FINE_STRUCTURE
from .errors import NonfiniteResult
from .propagate import free_evolve, influence_conjugation_check
from .radiative import anomaly_record, f2_record, shift_record
from .sampling import random_state
from .scattering import mott_dcs, rutherford_dcs
from .verify import SUITE_NAMES, all_passed, format_report, run_suites

_STATE_LABELS = {"1s": (1, 0), "2s": (2, 0), "2p": (2, 1)}


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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as handle:
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
    p_verify.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=_positive, default=None,
                          help="override every per-suite tolerance")

    p_mott = sub.add_parser("mott", help="angular cross-section table (CSV)")
    p_mott.add_argument("--p-mag", type=_positive, default=ELECTRON_MASS,
                        help="momentum magnitude in MeV (default: electron mass)")
    p_mott.add_argument("--Z", type=_positive, default=1.0)
    p_mott.add_argument("--angles", type=_parse_angles, default="3.6:176.4:50",
                        help="degrees, 'start:stop:count' or comma list, in (0, 180]")
    p_mott.add_argument("--out", default=None)

    p_ueh = sub.add_parser("uehling", help="vacuum-polarization level shift (JSON)")
    p_ueh.add_argument("--Z", type=_positive, default=1.0)
    p_ueh.add_argument("--state", choices=sorted(_STATE_LABELS), default="2s")
    p_ueh.add_argument("--out", default=None)

    p_g2 = sub.add_parser("g2", help="anomalous moment endpoint (JSON)")
    p_g2.add_argument("--alpha", type=_positive, default=FINE_STRUCTURE)
    p_g2.add_argument("--out", default=None)

    p_anom = sub.add_parser("anomaly", help="axial anomaly contraction (JSON)")
    p_anom.add_argument("--E", type=_parse_triple, required=True, metavar="Ex,Ey,Ez")
    p_anom.add_argument("--B", type=_parse_triple, required=True, metavar="Bx,By,Bz")
    p_anom.add_argument("--out", default=None)

    p_demo = sub.add_parser("propagate-demo",
                            help="free evolution of a seeded random state (JSON)")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--dtau", type=_finite, default=1.0)
    p_demo.add_argument("--which", type=int, choices=(1, -1), default=1)
    p_demo.add_argument("--modes", type=_positive_int, default=4)
    p_demo.add_argument("--out", default=None)

    return parser


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(names, seed=args.seed, tol=args.tol)
    sys.stdout.write(format_report(results))
    return 0 if all_passed(results) else 1


# Angles per batched Mott trace.  Each row keeps several 4x4 complex
# temporaries (256 B each) live, so a long grid is taken in slices; the
# benchmark's tables (at most 200 angles) are one slice.
_MOTT_BATCH = 200


def cmd_mott(args) -> int:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["kappa_deg", "dcs", "ratio_to_rutherford"])
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
        writer.writerows([f"{deg:.6f}", f"{d:.12e}", f"{r:.12e}"]
                         for deg, d, r in zip(degrees, dcs, ratio))
    _emit(buffer.getvalue(), args.out)
    return 0


def cmd_uehling(args) -> int:
    n, l = _STATE_LABELS[args.state]
    return _emit_json(shift_record(n, l, args.Z), args.out)


def cmd_g2(args) -> int:
    return _emit_json(f2_record(alpha=args.alpha), args.out)


def cmd_anomaly(args) -> int:
    return _emit_json(anomaly_record(args.E, args.B), args.out)


def cmd_propagate_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    state = random_state(rng, n_modes=args.modes)
    evolved = free_evolve(state, 0.0, args.dtau, args.which)
    survivors = [
        {
            "p": [float(v) for v in mode.p],
            "branch": mode.branch,
            "frequency": float(mode.frequency),
            "coefficient": [float(coeff.real), float(coeff.imag)],
        }
        for coeff, mode in evolved.terms
    ]
    record = {
        "command": "propagate-demo",
        "which": args.which,
        "dtau": args.dtau,
        "seed": args.seed,
        "modes_in": len(state.terms),
        "modes_out": len(evolved.terms),
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


_DISPATCH = {
    "verify": cmd_verify,
    "mott": cmd_mott,
    "uehling": cmd_uehling,
    "g2": cmd_g2,
    "anomaly": cmd_anomaly,
    "propagate-demo": cmd_propagate_demo,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: in-process callers of main reuse it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"paradirac {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
