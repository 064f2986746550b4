"""Symplectic index calculus, capacities, and semiclassical waveforms."""

import os

# The matrices here are small, so OpenBLAS's worker threads only spin: one
# thread unless the caller set the variable.  It is read when numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .symplectic import (  # noqa: F401
    LagrangianFrame,
    form_matrix,
    orthonormalize_frame,
    souriau_w,
    transversal,
    intersection_dim,
    signature,
)
from .maslov import (  # noqa: F401
    LagrangianLift,
    deck_act,
    vertical_lift,
    lift_from_frame,
    lift_path,
    lift_path_adaptive,
    transport_lift,
    principal_log_trace,
    leray_index_transversal,
    inert,
    leray_index,
    maslov_loop_index,
    maslov_loop_index_adaptive,
)
from .capacity import (  # noqa: F401
    EllipsoidSpec,
    TorusSpec,
    ellipsoid_capacity,
    ellipsoid_volume,
    shadow_area,
    shadow_areas,
    nonsqueezing_experiment,
    keller_maslov_check,
    oscillator_levels,
)
from .flows import (  # noqa: F401
    HamiltonianSpec,
    Trajectory,
    quadratic_hamiltonian,
    harmonic_hamiltonian,
    quartic_hamiltonian,
    flow_path,
    flow_map,
)
from .waveforms import (  # noqa: F401
    CircleManifold,
    TorusManifold,
    GradientGraphManifold,
    CoverPoint,
    Waveform,
    Shadow,
    argument_index_on_manifold,
    sqrt_de_rham,
    is_quantized,
    evolve,
    shadow,
    van_vleck_propagate,
    morse_index,
    oscillator_spectrum_from_waveforms,
)
