"""Minimum-time feedback synthesis for a double integrator driven to a
circular or square terminal set, cross-verified against a brute-force
minimum-time search.

`import mintime` loads no module of the package.  The first read of a public
name imports all seven modules and binds every public name at once (PEP 562),
so a command that imports only the modules it runs, as `mintime.cli` does,
starts without the rest.
"""

import importlib

# Each module with the public names the package takes from it.
_PUBLIC = {
    "characteristics": ("Costate", "closed_form_state", "costate_retro", "hamiltonian",
                        "numeric_retro", "numeric_retro_dense", "terminal_costate"),
    "isochrone": ("Isochrone", "isochrone_circle", "isochrone_generic"),
    "manifold": ("BoundaryPoint", "Circle", "Manifold", "ParamInterval", "RegionClass", "Square",
                 "boundary_state", "bup_params", "classify", "contains", "sample_up",
                 "signed_distance", "up_intervals"),
    "model": ("DomainError", "HorizonExceeded", "InsideTarget", "Params", "PhysicalParams", "State",
              "nondimensionalize", "parse_scenario"),
    "oracle": ("GridReport", "PolicyCandidate", "acceptance_grid", "oracle_grid_report",
               "oracle_min_time", "oracle_policy"),
    "simulator": ("Termination", "Trajectory", "simulate"),
    "synthesis": ("SwitchingCurve", "SynthesisResult", "TouchAndGoCurve", "discontinuity_loci",
                  "feedback", "locus_distance", "switching_curve_circle", "switching_curve_square",
                  "touch_and_go_curves", "value"),
}

__all__ = sorted([*_PUBLIC, *(name for names in _PUBLIC.values() for name in names)])


def __getattr__(name: str):
    # All at once, not one name per read: the namespace is whole, with the
    # modules' own objects, before anything can rebind a name in it.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module, names in _PUBLIC.items():
        mod = namespace[module] = importlib.import_module(f"{__name__}.{module}")
        namespace.update((public, getattr(mod, public)) for public in names)
    return namespace[name]
