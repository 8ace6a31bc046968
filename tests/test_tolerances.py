"""Fixed numerical tolerances: no per-call tolerance knobs, one shell tolerance."""

import functools
import importlib
import inspect

import numpy as np
import pytest

from paradirac.algebra import four_vector
from paradirac.errors import MassMismatch, UnresolvedDelta
from paradirac.propagate import moller_first_order
from paradirac.radiative import axial_divergence_tree
from paradirac.sampling import random_spin_coefficients
from paradirac.scattering import s1_amplitude, zero_potential
from paradirac.states import Mode, single_mode_state

_MODULES = ("algebra", "spinors", "states", "propagate", "scattering",
            "twobody", "radiative", "sampling", "verify")
_NUMERIC_CONTROLS = {"atol", "rtol", "freq_atol", "mass_atol", "epsrel", "step",
                     "samples", "seed", "iterations", "nodes_per_segment", "tol", "count"}


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_numeric_control_parameters_are_only_those_callers_set():
    found = set()
    for short in _MODULES:
        module = importlib.import_module(f"paradirac.{short}")
        for name, fn in _public_callables(module):
            for param in inspect.signature(fn).parameters:
                if param in _NUMERIC_CONTROLS:
                    found.add(f"{short}.{name}({param})")
    # the suite seeds and tolerance carry the CLI's --seed and --tol, and the
    # spinors suite sets its draw count; the suites take only their generator
    assert found == {
        "sampling.random_spinor_draws(count)",
        "verify.run_suite(seed)",
        "verify.run_suite(tol)",
        "verify.run_suites(seed)",
        "verify.run_suites(tol)",
    }


_PHYSICS_PARAMETERS = {"m_e", "alpha", "mass", "e", "charge", "charges", "charge1", "charge2",
                       "box_edge"}


def test_physics_parameters_are_only_those_callers_set():
    found = set()
    for short in _MODULES:
        module = importlib.import_module(f"paradirac.{short}")
        for name, fn in _public_callables(module):
            for param in inspect.signature(fn).parameters:
                if param in _PHYSICS_PARAMETERS:
                    found.add(f"{short}.{name}({param})")
    # the Uehling, Mott, Moller, first-order S-matrix, mutual-scattering and
    # anomaly functions, the plane waves, the single-mode and (anti)symmetrized
    # states and the sampled states read the electron mass, alpha, e and the
    # 2 pi box from algebra; what remains is carried data or set by verify,
    # the CLI, the sampling draws or the tests
    assert found == {
        "radiative.axial_divergence_tree(mass)",
        "radiative.f2_record(alpha)",
        "sampling.random_mode(mass)",
        "sampling.random_state(mass)",
        "sampling.random_timelike_momentum(mass)",
        "scattering.spin_averaged_amp2(mass)",
        "scattering.spin_trace(mass)",
        "spinors.lambda_u(mass)",
        "spinors.lambda_v(mass)",
        "spinors.u_block(mass)",
        "spinors.v_block(mass)",
        "twobody.bs_born_step(mass)",
        "twobody.bs_dominant_eigenpair(mass)",
        "twobody.mutual_scattering_amplitude(charge1)",
        "twobody.mutual_scattering_amplitude(charge2)",
        "twobody.potential_from_transition(charge)",
    }


# Each module's public functions and classes, and each public class's own
# public methods and properties as "Class.member".  A name that only tests
# call is a wrapper to delete unless it is a second route that a check
# compares against; a new public name is added here on purpose.
_PUBLIC_NAMES = {
    "algebra": {"bar", "dirac_adjoint", "energy_sign", "four_vector", "gamma", "lower_index", "mass_of",
                "minkowski_dot", "pauli_dot", "slash"},
    "spinors": {"boost_spin", "branch_block", "decompose_in_block", "lambda_u", "lambda_v", "spin_projector",
                "u_block", "v_block"},
    "states": {"CurrentField", "Mode", "Mode.a", "Mode.amplitude_spinor", "Mode.branch", "Mode.frequency",
               "Mode.mass", "Mode.p", "Mode.phi",
               "SpectralState", "Subspace", "TermContainer", "TermContainer.frequency",
               "TermContainer.phi", "TermContainer.spinors", "TermContainer.terms", "TermContainer.value",
               "bilinear_concatenated", "charge_conjugate", "classify_subspace", "concatenated_current",
               "concatenated_pairs", "current_divergence_fd", "free_equation_residual", "inner_product",
               "parity", "single_mode_state", "time_reverse", "tpc"},
    "propagate": {"elastic_shell", "free_evolve", "influence_conjugation_check", "moller_first_order"},
    "scattering": {"ExternalPotential", "ReducedAmplitude", "SpinSum", "coulomb_ft", "coulomb_potential",
                   "mott_dcs", "mott_ratio", "rutherford_dcs", "s1_amplitude",
                   "spin_averaged_amp2", "spin_trace", "zero_potential"},
    "twobody": {"TwoParticleState", "antisymmetrize", "bs_born_step", "bs_dominant_eigenpair", "exchange_residual",
                "mutual_scattering_amplitude", "permute_labels", "potential_from_transition", "s2_first_order",
                "symmetrize", "two_conjugation_check", "two_currents",
                "two_kernel_matrix"},
    "radiative": {"FieldConfiguration", "FieldConfiguration.from_fields", "FieldConfiguration.lowered",
                  "UehlingShift", "anomaly_record", "anomaly_rhs", "axial_divergence_tree",
                  "bohr_radius", "epsilon_tensor", "f2_record", "hydrogen_radial", "shift_record",
                  "uehling_potential", "uehling_potential_hyperbolic", "uehling_ratio", "uehling_shift",
                  "uehling_shift_fixed_grid", "vector_divergence_check"},
    "sampling": {"random_mode", "random_spin_coefficients", "random_spinor_draws", "random_state",
                 "random_timelike_momentum", "random_unit_vector"},
    "verify": {"Check", "Check.passed", "all_passed", "format_report", "run_suite", "run_suites", "suite_algebra",
               "suite_currents", "suite_propagate", "suite_spinors", "suite_twobody"},
}


_MEMBER_KINDS = (property, functools.cached_property, classmethod, staticmethod)


def test_public_names_are_the_census():
    found = {}
    for short in _MODULES:
        module = importlib.import_module(f"paradirac.{short}")
        found[short] = set()
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            found[short].add(name)
            if inspect.isclass(obj):
                found[short] |= {f"{name}.{attr}" for attr, member in vars(obj).items()
                                 if not attr.startswith("_")
                                 and (inspect.isfunction(member) or isinstance(member, _MEMBER_KINDS))}
    assert found == _PUBLIC_NAMES


def _momentum(mass, p_mag=0.5):
    return four_vector(np.hypot(mass, p_mag), 0.0, 0.0, p_mag)


_OFFSETS = pytest.mark.parametrize("offset, resolved", [(5e-10, True), (2e-9, False)])


@_OFFSETS
def test_s1_amplitude_mass_shell_boundary(offset, resolved, rng):
    a = random_spin_coefficients(rng)
    amp = s1_amplitude(_momentum(1.0), a, _momentum(1.0 + offset), a, zero_potential())
    assert ("mass_shell_mismatch" in amp.flags) is not resolved


@_OFFSETS
def test_moller_first_order_mass_shell_boundary(offset, resolved, rng):
    incident = Mode(p=_momentum(1.0), branch=1, a=random_spin_coefficients(rng))
    outs = [_momentum(1.0 + offset, p_mag=0.7)]
    if resolved:
        result = moller_first_order(incident, zero_potential(), outs)
        assert len(result.terms) == 1
    else:
        with pytest.raises(UnresolvedDelta):
            moller_first_order(incident, zero_potential(), outs)


@_OFFSETS
def test_axial_divergence_tree_mass_boundary(offset, resolved, rng):
    mode = Mode(p=_momentum(1.0 + offset), branch=-1, a=random_spin_coefficients(rng))
    state = single_mode_state(mode)
    points = rng.normal(size=(2, 4))
    if resolved:
        lhs, rhs = axial_divergence_tree(state, 1.0, points)
        assert lhs.shape == rhs.shape == (2,)
    else:
        with pytest.raises(MassMismatch):
            axial_divergence_tree(state, 1.0, points)
