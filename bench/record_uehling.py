"""Record the uehling reference table that the CLI checks compare against.

Run from the repository root with the code whose values are to be
recorded; it rewrites bench/uehling_ref.json:

    python3 bench/record_uehling.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from inputs import UEHLING_GRID  # noqa: E402
from paradirac.radiative import shift_record  # noqa: E402

LEVELS = {"1s": (1, 0), "2s": (2, 0), "2p": (2, 1)}

table = {f"{state},Z={z}": shift_record(*LEVELS[state], float(z))["value"] for state, z in UEHLING_GRID}
with open(os.path.join(HERE, "uehling_ref.json"), "w") as handle:
    json.dump(table, handle, indent=1, sort_keys=True)
    handle.write("\n")
