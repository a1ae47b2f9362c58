"""Minimum-time feedback synthesis for a double integrator driven to a
circular or square terminal set, cross-verified against a brute-force
minimum-time search."""

from .characteristics import (
    Costate,
    closed_form_state,
    costate_retro,
    hamiltonian,
    numeric_retro,
    numeric_retro_dense,
    switch_tau,
    terminal_costate,
)
from .isochrone import Isochrone, isochrone_circle, isochrone_generic
from .manifold import (
    BoundaryPoint,
    Circle,
    Manifold,
    Normal,
    ParamInterval,
    RegionClass,
    Square,
    boundary_state,
    bup_params,
    classify,
    contains,
    outward_normal,
    sample_up,
    signed_distance,
    up_intervals,
)
from .model import (
    DomainError,
    HorizonExceeded,
    InsideTarget,
    Params,
    PhysicalParams,
    State,
    dynamics,
    nondimensionalize,
    parse_scenario,
)
from .oracle import (
    GridReport,
    PolicyCandidate,
    acceptance_grid,
    oracle_grid_report,
    oracle_min_time,
    oracle_policy,
)
from .simulator import Termination, Trajectory, simulate
from .synthesis import (
    SwitchingCurve,
    SynthesisResult,
    TouchAndGoCurve,
    discontinuity_loci,
    feedback,
    locus_distance,
    switching_curve_circle,
    switching_curve_square,
    touch_and_go_curves,
    value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
