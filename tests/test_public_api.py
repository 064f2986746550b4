"""The public names are pinned and importable, and the torus constructors keep their calls."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import symwave
from symwave.capacity import TorusSpec
from symwave.waveforms import CircleManifold, TorusManifold

MODULES = sorted(m.name for m in pkgutil.iter_modules(symwave.__path__, "symwave."))


# The public surface, pinned: adding or deleting a public name is a deliberate
# edit of these lists.  A module without ``__all__`` maps to None.
PACKAGE_EXPORTS = [
    "CircleManifold", "CoverPoint", "EllipsoidSpec", "GradientGraphManifold",
    "HamiltonianSpec", "LagrangianFrame", "LagrangianLift", "Shadow", "TorusManifold",
    "TorusSpec", "Trajectory", "Waveform", "argument_index_on_manifold", "circle_phase",
    "cover_phase", "deck_act", "ellipsoid_capacity", "ellipsoid_volume", "evolve",
    "flow_map", "flow_path", "form_matrix", "harmonic_hamiltonian", "inert",
    "intersection_dim", "is_lagrangian_frame", "is_quantized", "is_symplectic_matrix",
    "keller_maslov_check", "leray_index", "leray_index_transversal", "lift_from_frame",
    "lift_path", "lift_path_adaptive", "maslov_loop_index", "maslov_loop_index_adaptive",
    "morse_index", "nonsqueezing_experiment", "orthonormalize_frame", "oscillator_levels",
    "oscillator_spectrum_from_waveforms", "principal_log_trace", "quadratic_hamiltonian",
    "quartic_hamiltonian", "shadow", "shadow_area", "shadow_areas", "signature",
    "souriau_w", "sqrt_de_rham", "transport_lift", "transversal", "van_vleck_propagate",
    "vertical_lift",
]
MODULE_ALL = {
    "symwave.capacity": [
        "EllipsoidSpec", "GeneratorCheck", "QuantizationReport", "ShadowEstimate",
        "SymplectomorphismSpec", "TorusSpec", "UnquantizedTorusError",
        "apply_symplectomorphism", "ball_volume", "ellipsoid_capacity",
        "ellipsoid_volume", "ground_energy", "identity_symplectomorphism",
        "keller_maslov_check", "nonsqueezing_experiment", "oscillator_levels",
        "random_symplectomorphism", "shadow_area", "shadow_areas",
        "symplectomorphism_jacobian",
    ],
    "symwave.cli": ["ConfigError", "main"],
    "symwave.errors": None,
    "symwave.flows": [
        "HamiltonianSpec", "Trajectory", "chapman_kolmogorov_residual", "flow_map",
        "flow_path", "generating_function_check", "hamilton_jacobi_residual",
        "hamiltonian_gradient", "hamiltonian_value", "harmonic_hamiltonian",
        "quadratic_action_shortcut", "quadratic_hamiltonian", "quartic_hamiltonian",
        "two_point_action", "vector_field",
    ],
    "symwave.maslov": [
        "LagrangianLift", "deck_act", "inert", "leray_index", "leray_index_transversal",
        "lift_from_frame", "lift_path", "lift_path_adaptive", "maslov_loop_index",
        "maslov_loop_index_adaptive", "principal_log_trace", "transport_lift",
        "vertical_lift",
    ],
    "symwave.polynomials": ["Polynomial", "random_polynomial"],
    "symwave.symplectic": [
        "LagrangianFrame", "form_matrix", "frame_from_souriau", "horizontal_frame",
        "intersection_dim", "is_lagrangian_frame", "is_souriau_point",
        "is_symplectic_matrix", "orthonormalize_frame", "random_lagrangian_frame",
        "random_symmetric_unitary", "random_symplectic", "signature", "souriau_w",
        "transversal", "vertical_frame",
    ],
    "symwave.waveforms": [
        "CircleManifold", "CoverPoint", "FlowedManifold", "GradientGraphManifold", "Shadow",
        "TorusManifold", "Waveform", "argument_index_on_manifold", "chart_base",
        "chart_cocycle", "chart_index", "chart_shadow_value", "circle_phase", "cover_phase",
        "deck_covariance_check", "evolve", "horizontal_base", "is_quantized", "morse_index",
        "oscillator_spectrum_from_waveforms", "phase_defect", "shadow", "sqrt_de_rham",
        "van_vleck_propagate",
    ],
}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", None)
    assert (None if names is None else sorted(names)) == MODULE_ALL[name]
    missing = [n for n in names or () if not hasattr(module, n)]
    assert not missing


def test_package_exports_resolve():
    tree = ast.parse(inspect.getsource(symwave))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(name for _, name in imported) == PACKAGE_EXPORTS
    for module, name in imported:
        source = importlib.import_module(f"symwave.{module}")
        assert getattr(symwave, name) is getattr(source, name)


def test_torus_constructors():
    assert CircleManifold(1.5).radius == 1.5
    assert CircleManifold(radius=2).radius == 2.0
    spec = TorusSpec((1.0, 2.0), 1)
    assert (spec.radii, spec.flat_dims, spec.n) == ((1.0, 2.0), 1, 3)
    man = TorusManifold((1.0, 2.0), flat_dims=2)
    assert (man.radii, man.flat_dims, man.n) == ((1.0, 2.0), 2, 4)
