"""The public names are pinned, importable and consumed, and so is every defaulted
parameter; the torus constructors keep their calls."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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
    "TorusSpec", "Trajectory", "Waveform", "argument_index_on_manifold", "deck_act",
    "ellipsoid_capacity", "ellipsoid_volume", "evolve", "flow_map", "flow_path",
    "form_matrix", "harmonic_hamiltonian", "inert", "intersection_dim", "is_quantized",
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
    ],
    "symwave.cli": ["ConfigError", "main"],
    "symwave.errors": None,
    "symwave.flows": [
        "HamiltonianSpec", "Trajectory", "chapman_kolmogorov_residual", "flow_map",
        "flow_path", "hamilton_jacobi_residual", "harmonic_hamiltonian",
        "quadratic_action_shortcut", "quadratic_hamiltonian", "quartic_hamiltonian",
        "two_point_action",
    ],
    "symwave.maslov": [
        "LagrangianLift", "deck_act", "inert", "leray_index", "leray_index_transversal",
        "lift_from_frame", "lift_path", "lift_path_adaptive", "maslov_loop_index",
        "maslov_loop_index_adaptive", "principal_log_trace", "transport_lift",
        "vertical_lift",
    ],
    "symwave.polynomials": ["Polynomial", "random_polynomial"],
    "symwave.symplectic": [
        "LagrangianFrame", "form_matrix", "frame_from_souriau", "intersection_dim",
        "orthonormalize_frame", "random_lagrangian_frame", "random_symmetric_unitary",
        "random_symplectic", "signature", "souriau_w", "transversal", "vertical_frame",
    ],
    "symwave.waveforms": [
        "CircleManifold", "CoverPoint", "FlowedManifold", "GradientGraphManifold", "Shadow",
        "TorusManifold", "Waveform", "argument_index_on_manifold", "deck_covariance_check",
        "evolve", "is_quantized", "morse_index", "oscillator_spectrum_from_waveforms",
        "shadow", "sqrt_de_rham", "van_vleck_propagate",
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


ROOT = Path(__file__).resolve().parent.parent


def _reads(tree):
    # every name a tree reads, bare or as an attribute
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
            or isinstance(node, ast.Attribute)}


def _consumer_trees():
    # (tree, the name it defines) of each consumer: every top-level statement
    # of the commands and the other package code (the package re-exports
    # aside), the acceptance criteria and the README's python examples
    for path in sorted((ROOT / "src" / "symwave").glob("*.py")):
        if path.name != "__init__.py":
            for stmt in ast.parse(path.read_text()).body:
                yield stmt, getattr(stmt, "name", None)
    yield ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()), None
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S):
        yield ast.parse(block), None


def _consumed():
    # the names the consumer trees read (a name's own definition aside), and
    # the benchmark's traced functions (perfbench/tracing.py TARGETS)
    names = set().union(*(_reads(tree) - {own} for tree, own in _consumer_trees()))
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    targets = next(node.value for node in tracing.body if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    names |= {row.elts[1].value.split(".")[0] for row in targets.elts}
    return names


def test_every_public_name_has_a_consumer():
    # a public name is read by a command, other package code, a criterion, a
    # README example or a traced benchmark target; its own tests do not count
    pinned = set(PACKAGE_EXPORTS).union(*(names or () for names in MODULE_ALL.values()))
    unconsumed = sorted(pinned - _consumed())
    assert not unconsumed, f"public names without a consumer: {unconsumed}"


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _consumer_calls():
    # every call in the consumer trees outside the callee's own definition,
    # and in the benchmark's launcher, which runs a command through main(argv)
    trees = list(_consumer_trees())
    trees.append((ast.parse((ROOT / "perfbench" / "launch.py").read_text()), None))
    return [node for tree, own in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _callee(node) != own]


def _defaulted_parameters():
    # (the names a call reaches it by, label, position after self, name) of
    # each defaulted parameter of every module's __all__ functions and of its
    # __all__ classes' public methods and constructors, each function once; a
    # dataclass's defaulted fields are its constructor's
    found = {}

    def add(fn, name, label, bound):
        params = list(inspect.signature(fn).parameters.values())[bound:]
        found.setdefault(fn, (set(), label, params))[0].add(name)

    for module in MODULES:
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", None) or ():
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                add(obj, name, name, 0)
            elif inspect.isclass(obj):
                init = next((f for f in (obj.__init__, obj.__new__) if inspect.isfunction(f)), None)
                if init is not None:
                    add(init, name, name, 1)
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        add(fn, attr, f"{name}.{attr}", 1)
    return [(names, f"{label}({p.name})", pos, p.name)
            for names, label, params in found.values()
            for pos, p in enumerate(params) if p.default is not p.empty]


def _passes(call, pos, name):
    # whether a call writes the parameter at this position or of this name
    positional = any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > pos
    return positional or any(k.arg in (name, None) for k in call.keywords)


def test_every_parameter_has_a_consumer():
    # each defaulted parameter of the public surface is passed, by position or
    # by keyword, in a call of a command, other package code, a criterion, a
    # README example or the benchmark's launcher; a value no consumer sets is
    # the one setting every caller gets, and lives in the body
    calls = _consumer_calls()
    unset = [label for names, label, pos, name in _defaulted_parameters()
             if not any(_callee(c) in names and _passes(c, pos, name) for c in calls)]
    assert not unset, f"defaulted parameters no consumer sets: {unset}"


def test_torus_constructors():
    assert CircleManifold(1.5).radius == 1.5
    assert CircleManifold(radius=2).radius == 2.0
    spec = TorusSpec((1.0, 2.0), 1)
    assert (spec.radii, spec.flat_dims, spec.n) == ((1.0, 2.0), 1, 3)
    man = TorusManifold((1.0, 2.0), flat_dims=2)
    assert (man.radii, man.flat_dims, man.n) == ((1.0, 2.0), 2, 4)
