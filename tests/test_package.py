"""The package namespace: `import mintime` loads no module of the package,
and the first read of a public name binds every public name at once."""

import importlib
import sys

import pytest

import mintime

MODULES = ("characteristics", "isochrone", "manifold", "model", "oracle", "simulator", "synthesis")

# The public names, the seven modules included, as the eager package had them.
PUBLIC = [
    "BoundaryPoint", "Circle", "Costate", "DomainError", "GridReport", "HorizonExceeded",
    "InsideTarget", "Isochrone", "Manifold", "ParamInterval", "Params", "PhysicalParams",
    "PolicyCandidate", "RegionClass", "Square", "State", "SwitchingCurve", "SynthesisResult",
    "Termination", "TouchAndGoCurve", "Trajectory", "acceptance_grid", "boundary_state",
    "bup_params", "characteristics", "classify", "closed_form_state", "contains",
    "costate_retro", "discontinuity_loci", "feedback", "hamiltonian", "isochrone",
    "isochrone_circle", "isochrone_generic", "locus_distance", "manifold", "model",
    "nondimensionalize", "numeric_retro", "numeric_retro_dense", "oracle", "oracle_grid_report",
    "oracle_min_time", "oracle_policy", "parse_scenario", "sample_up", "signed_distance",
    "simulate", "simulator", "switching_curve_circle", "switching_curve_square", "synthesis",
    "terminal_costate", "touch_and_go_curves", "up_intervals", "value",
]


def _ours(name: str) -> bool:
    return name == "mintime" or name.startswith("mintime.")


@pytest.fixture
def fresh():
    """A second package object from a new run of mintime/__init__.py, made
    while no module of the package is in sys.modules, with the modules it
    loaded; sys.modules is put back afterwards."""
    saved = {name: mod for name, mod in sys.modules.items() if _ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        package = importlib.import_module("mintime")
        yield package, sorted(name for name in sys.modules if _ours(name))
    finally:
        for name in [name for name in sys.modules if _ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_import_loads_no_module(fresh):
    package, loaded = fresh
    assert package is not mintime
    assert loaded == ["mintime"]
    assert not set(PUBLIC) & set(vars(package))


def test_the_first_read_binds_every_name_from_its_module(fresh):
    """An unknown name binds nothing; one public name binds all of them, each
    the object its module holds, which is the one the package gives."""
    package, _ = fresh
    # the loader finds the modules already loaded, as after `import mintime.cli`
    sys.modules.update((f"mintime.{module}", getattr(mintime, module)) for module in MODULES)
    with pytest.raises(AttributeError):
        package.no_such_name
    assert not set(PUBLIC) & set(vars(package))
    assert package.value is mintime.synthesis.value
    assert set(PUBLIC) <= set(vars(package))
    for module in MODULES:
        assert vars(package)[module] is sys.modules[f"mintime.{module}"]
    for module, names in package._PUBLIC.items():
        assert all(vars(package)[name] is getattr(sys.modules[f"mintime.{module}"], name) for name in names)
    assert all(vars(package)[name] is getattr(mintime, name) for name in PUBLIC)


def test_all_is_the_pinned_public_names():
    assert mintime.__all__ == PUBLIC
    assert sorted(name for names in mintime._PUBLIC.values() for name in names) == sorted(
        set(PUBLIC) - set(MODULES))
    assert set(mintime._PUBLIC) == set(MODULES)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from mintime import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(mintime, name) for name in PUBLIC)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'mintime' has no attribute 'no_such_name'$"):
        mintime.no_such_name
    assert not hasattr(mintime, "_no_such_name")
    assert getattr(mintime, "no_such_name", None) is None
