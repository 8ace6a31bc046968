"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Span names are ``<module>.<public function>`` of the paradirac call the
benchmark made.  For each span S the traced run reports S.calls, S.busy_s
(summed self time) and S.p50_us (median duration).
"""

COMMANDS = ("verify", "mott", "uehling", "g2", "anomaly", "propagate-demo")

STATE_SPANS = (
    "states.Mode", "states.SpectralState", "states.inner_product", "states.parity",
    "states.tpc", "states.charge_conjugate", "states.concatenated_current",
    "propagate.free_evolve",
)
TWOBODY_SPANS = (
    "twobody.TwoParticleState", "twobody.antisymmetrize", "twobody.two_inner_product",
    "twobody.two_evolve", "twobody.two_currents", "twobody.s2_first_order",
    "propagate.moller_first_order",
)
IMPORT_METRICS = ("import.paradirac_ms", "import.paradirac.radiative_ms",
                  "import.scipy_ms", "import.numpy_ms", "cli.interp_ms")
COUNTS = ("states.terms_in", "states.terms_out", "states.pairs_surviving",
          "twobody.terms_in", "twobody.terms_out", "propagate.modes_in", "propagate.modes_out")


def per_layer():
    """[(name, unit, better)] in BENCHMARK.json order."""
    rows = []
    for span in STATE_SPANS + TWOBODY_SPANS:
        rows += [(f"{span}.calls", "count", "higher"), (f"{span}.busy_s", "s", "lower"),
                 (f"{span}.p50_us", "us", "lower")]
    for command in COMMANDS:
        rows += [(f"cli.{command}.p50_ms", "ms", "lower"), (f"cli.{command}.startup_ms", "ms", "lower")]
    rows += [(name, "ms", "lower") for name in IMPORT_METRICS]
    rows += [(name, "count", "lower") for name in COUNTS]
    rows += [("trace.ops_per_s", "1/s", "higher"), ("trace.latency_p50_ms", "ms", "lower")]
    return rows


# metric group -> (end-to-end metrics it should move, on which workloads; what it should not move)
LAYER_MAP = {
    "import.*_ms vs cli.interp_ms": (
        "cli_cold latency_p50_ms and ops_per_s; setup_s on every workload",
        "not cli_warm ops",
    ),
    "cli.<command>.p50_ms, cli.<command>.startup_ms": (
        "cli_warm ops_per_s and latency_p90_ms (verify and uehling set the tail); "
        "mott -> scattering, uehling/g2/anomaly -> radiative, verify -> verify suites, "
        "propagate-demo -> propagate/states",
        "startup_ms: cli_cold only",
    ),
    "states.* and propagate.free_evolve spans": (
        "spectral_large ops_per_s and latency",
        "must not worsen spectral_small, where states.Mode dominates",
    ),
    "twobody.* and propagate.moller_first_order spans": (
        "spectral_large ops_per_s and latency",
        "must not worsen spectral_small",
    ),
    "counts (terms_in/out, pairs_surviving, modes_in/out)": (
        "repeat exactly for a seed; merges = terms_in - terms_out",
        "change only if the algorithm's work changes",
    ),
    "trace.ops_per_s, trace.latency_p50_ms": (
        "tracing overhead = these against the untraced ops_per_s and latency_p50_ms",
        "",
    ),
}
