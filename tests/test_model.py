"""Plant constants, scaling, and scenario parsing."""

import dataclasses
import math

import pytest

from mintime import (
    DomainError,
    Params,
    PhysicalParams,
    State,
    nondimensionalize,
    parse_scenario,
)
from mintime.model import _check_finite, validate_control


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


def test_dynamics_rejects_large_control():
    """The plant's control bound |u| <= 1: above 1, below -1 and NaN are refused."""
    for u in (1.5, -1.5, math.nan):
        with pytest.raises(DomainError, match="control must satisfy"):
            validate_control(u)
    for u in (-1.0, 0.0, 1.0):
        validate_control(u)


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


def test_state_is_a_frozen_value():
    """State's hand-written __init__ keeps what the generated frozen one gave:
    no assignment, equality and hash by value, the field repr, replace,
    negation and the DomainError text for either non-finite coordinate."""
    s = State(1.0, -0.0)
    with pytest.raises(AttributeError):
        s.x1 = 2.0
    assert s == State(1.0, 0.0) and hash(s) == hash(State(1.0, 0.0))
    assert s != State(1.0, 1.0) and s != (1.0, -0.0)
    assert repr(s) == "State(x1=1.0, x2=-0.0)"
    assert dataclasses.replace(State(1.0, 2.0), x2=3.0) == State(1.0, 3.0)
    assert [f.name for f in dataclasses.fields(State)] == ["x1", "x2"]
    assert repr(-State(1.0, -2.0)) == "State(x1=-1.0, x2=2.0)"
    for x1, x2, text in ((math.inf, 0.0, "(inf, 0.0)"), (1.0, math.nan, "(1.0, nan)"),
                         (-math.inf, math.nan, "(-inf, nan)")):
        with pytest.raises(DomainError) as info:
            State(x1, x2)
        assert str(info.value) == f"state must be finite, got {text}"


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
