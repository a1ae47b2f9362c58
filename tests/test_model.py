"""Plant constants, dynamics, and scenario parsing."""

import math

import pytest

from mintime import (
    DomainError,
    Params,
    PhysicalParams,
    State,
    dynamics,
    nondimensionalize,
    parse_scenario,
)
from mintime.model import _check_finite


def test_nondimensionalize_all_ones_identity():
    p = nondimensionalize(PhysicalParams(mass=1.0, f_max=1.0, length=1.0, velocity=1.0))
    assert p.alpha == 1.0


def test_nondimensionalize_direct_substitution():
    """alpha = L*F_max/(m*V^2) at m=2 halves the authority."""
    p = nondimensionalize(PhysicalParams(mass=2.0, f_max=1.0, length=1.0, velocity=1.0))
    assert p.alpha == 0.5


def test_nondimensionalize_rejects_nonpositive():
    with pytest.raises(DomainError):
        PhysicalParams(mass=1.0, f_max=0.0, length=1.0, velocity=1.0)
    with pytest.raises(DomainError):
        PhysicalParams(mass=-1.0, f_max=1.0, length=1.0, velocity=1.0)
    for v in (math.inf, math.nan):
        with pytest.raises(DomainError, match="length must be finite and > 0"):
            PhysicalParams(mass=1.0, f_max=1.0, length=v, velocity=1.0)


def test_dynamics_examples():
    p = Params(alpha=1.0, l=1.0)
    assert dynamics(State(0.0, 0.0), 1.0, p) == (0.0, 1.0)
    assert dynamics(State(1.0, 2.0), -1.0, p) == (2.0, -1.0)
    assert dynamics(State(0.0, 1.0), 0.5, Params(alpha=2.0, l=1.0)) == (1.0, 1.0)


def test_dynamics_rejects_large_control():
    """Above 1, below -1 and NaN are refused."""
    for u in (1.5, -1.5, math.nan):
        with pytest.raises(DomainError, match="control must satisfy"):
            dynamics(State(0.0, 0.0), u, Params())


def test_dynamics_linear_in_control():
    p = Params(alpha=1.7, l=1.0)
    s = State(0.3, -2.1)
    u1, u2 = -0.8, 0.6
    for a in (0.0, 0.25, 0.5, 0.9, 1.0):
        u = a * u1 + (1.0 - a) * u2
        d = dynamics(s, u, p)
        d1 = dynamics(s, u1, p)
        d2 = dynamics(s, u2, p)
        assert d[0] == pytest.approx(a * d1[0] + (1.0 - a) * d2[0], abs=1e-15)
        assert d[1] == pytest.approx(a * d1[1] + (1.0 - a) * d2[1], abs=1e-15)


def test_dynamics_central_symmetry():
    p = Params(alpha=0.9, l=1.0)
    for s, u in [(State(1.0, -2.0), 0.7), (State(-0.4, 0.2), -1.0), (State(3.0, 5.0), 0.0)]:
        d = dynamics(s, u, p)
        dm = dynamics(-s, -u, p)
        assert dm == (-d[0], -d[1])


def test_params_validation():
    with pytest.raises(DomainError):
        Params(alpha=0.0)
    with pytest.raises(DomainError):
        Params(l=-1.0)
    with pytest.raises(DomainError, match="alpha must be finite"):
        Params(alpha=math.inf)
    with pytest.raises(DomainError, match="l must be finite"):
        Params(l=math.nan)
    with pytest.raises(DomainError):
        State(math.nan, 0.0)
    with pytest.raises(DomainError, match="state must be finite"):
        State(0.0, math.inf)


def test_check_finite_raises_states_error_for_either_coordinate():
    _check_finite(1.0, -2.0)
    for x1, x2 in ((math.inf, 0.0), (0.0, math.nan)):
        with pytest.raises(DomainError, match="state must be finite"):
            _check_finite(x1, x2)


def test_parse_scenario_roundtrip():
    params, target = parse_scenario('{"alpha": 1.0, "l": 2.0, "target": "circle"}')
    assert params.alpha == 1.0
    assert params.l == 2.0
    assert target == "circle"
    params, target = parse_scenario('{"alpha": 0.5, "target": "square"}')
    assert params.l == 1.0
    assert target == "square"


def test_parse_scenario_rejects_unknown_keys_and_bad_values():
    with pytest.raises(DomainError):
        parse_scenario('{"alpha": 1.0, "target": "circle", "mystery": 3}')
    with pytest.raises(DomainError):
        parse_scenario('{"alpha": 1.0, "target": "triangle"}')
    with pytest.raises(DomainError):
        parse_scenario('{"alpha": "one", "target": "circle"}')
    with pytest.raises(DomainError):
        parse_scenario("not json")
    with pytest.raises(DomainError, match="must be a JSON object"):
        parse_scenario("[1]")
    with pytest.raises(DomainError, match='"l" must be a number'):
        parse_scenario('{"l": "two", "target": "circle"}')
    # JSON true is a Python bool, an int subclass: refused as a number.
    with pytest.raises(DomainError, match='"alpha" must be a number, got True'):
        parse_scenario('{"alpha": true, "target": "circle"}')
    with pytest.raises(DomainError, match='"l" must be a number, got False'):
        parse_scenario('{"l": false, "target": "circle"}')
