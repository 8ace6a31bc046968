"""Compare the arrays that tests/digest.py saves apart, for the
output-identity step of CI: ``python tests/approx.py BASE.npz HEAD.npz``
exits nonzero unless both hold the same names and each head array is within
1e-12 of the largest base entry of its base array.  pytest does not collect
this file.
"""

import sys
import numpy as np
base, head = np.load(sys.argv[1]), np.load(sys.argv[2])
if base.files != head.files:
    sys.exit("library values differ in their names")
bad = [key for key in base.files
       if not np.abs(head[key] - base[key]).max(initial=0.0) <= 1e-12 * np.abs(base[key]).max(initial=0.0)]
sys.exit(f"library values differ beyond 1e-12: {bad}" if bad else 0)
