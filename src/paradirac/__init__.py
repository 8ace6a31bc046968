"""Parameter-time Dirac numerics.

A small numerics library for a Dirac formalism with an invariant evolution
parameter tau alongside the four spacetime coordinates: gamma-matrix algebra
and momentum-block spinors, spectral plane-wave states with their discrete
symmetries, free influence propagation, first-order scattering off external
and mutually sourced potentials, two-particle (anti)symmetrized states, and
the finite radiative endpoints (Mott factor, vacuum-polarization level
shifts, the anomalous moment, the axial anomaly contraction).

Units are natural with energies in MeV; the metric is (-,+,+,+).
"""

from .algebra import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    FINE_STRUCTURE,
    GAMMA0,
    GAMMA1,
    GAMMA2,
    GAMMA3,
    GAMMA5,
    METRIC,
    bar,
    dirac_adjoint,
    four_vector,
    gamma,
    lower_index,
    mass_of,
    minkowski_dot,
    slash,
)
from .propagate import (
    InfluenceKernel,
    elastic_shell,
    free_evolve,
    influence_conjugation_check,
    kernel_matrix,
    moller_first_order,
    semigroup_compose,
)
from .radiative import (
    FieldConfiguration,
    anomaly_rhs,
    axial_divergence_tree,
    epsilon_tensor,
    f2_anomalous_moment,
    hydrogen_radial,
    uehling_potential,
    uehling_potential_hyperbolic,
    uehling_shift,
    vector_divergence_check,
)
from .scattering import (
    ExternalPotential,
    coulomb_potential,
    mott_dcs,
    mott_factor_momentum_form,
    mott_ratio,
    rutherford_dcs,
    s1_amplitude,
    spin_averaged_amp2,
    spin_trace,
)
from .spinors import (
    chirality_projector,
    helicity_operator,
    lambda_u,
    lambda_v,
    spin_projector,
    u_block,
    v_block,
)
from .states import (
    CurrentField,
    Mode,
    SpectralState,
    Subspace,
    charge_conjugate,
    concatenated_current,
    free_equation_residual,
    inner_product,
    parity,
    plane_wave_value,
    single_mode_state,
    state_from_json,
    state_to_json,
    time_reverse,
    tpc,
)
from .twobody import (
    TwoParticleState,
    antisymmetrize,
    bs_born_step,
    bs_power_iteration,
    mutual_scattering_amplitude,
    permute_labels,
    s2_first_order,
    symmetrize,
    two_currents,
    two_evolve,
    two_inner_product,
)

__version__ = "0.1.0"
