"""Parameter-time Dirac numerics.

A small numerics library for a Dirac formalism with an invariant evolution
parameter tau alongside the four spacetime coordinates: gamma-matrix algebra
and momentum-block spinors, spectral plane-wave states with their discrete
symmetries, free influence propagation, first-order scattering off external
and mutually sourced potentials, two-particle (anti)symmetrized states, and
the finite radiative endpoints (Mott factor, vacuum-polarization level
shifts, the anomalous moment, the axial anomaly contraction).

Units are natural with energies in MeV; the metric is (-,+,+,+).  Names
are imported from their layer modules (``paradirac.algebra``,
``paradirac.scattering``, ...); importing the package loads none of them.
"""

__version__ = "0.1.0"
