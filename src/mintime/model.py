"""Problem constants, the double-integrator plant, and non-dimensional scaling.

A point mass on a line is driven by a bounded force. After scaling position
by the tolerance length L, velocity by the tolerance velocity V, and time by
L/V, the plant is the double integrator

    dx1/dt = x2,        dx2/dt = alpha * u,        -1 <= u <= 1,

with a single dimensionless authority parameter

    alpha = L * F_max / (m * V**2).

All types are immutable values and all operations are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


# ── Errors ────────────────────────────────────────────────────────────────────


class DomainError(ValueError):
    """Input outside an operation's documented domain."""


class InsideTarget(DomainError):
    """State strictly inside the target set: already terminated."""


class HorizonExceeded(DomainError):
    """No candidate policy reaches the target within the search horizon."""


# ── Domain types ───────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional plant constants.

    mass [kg], f_max [N], and the tolerance-box scales length [m] and
    velocity [m/s].  All strictly positive.
    """

    mass: float
    f_max: float
    length: float
    velocity: float

    def __post_init__(self) -> None:
        for name in ("mass", "f_max", "length", "velocity"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be finite and > 0, got {v!r}")


@dataclass(frozen=True)
class Params:
    """Non-dimensional problem constants.

    alpha: control authority; l: radius of the circular target.
    """

    alpha: float = 1.0
    l: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError(f"alpha must be finite and > 0, got {self.alpha!r}")
        if not (math.isfinite(self.l) and self.l > 0.0):
            raise DomainError(f"l must be finite and > 0, got {self.l!r}")


@dataclass(frozen=True, init=False)
class State:
    """Point (x1, x2) of the phase plane: scaled position and velocity.

    __init__ is written by hand because the generated frozen one costs one
    object.__setattr__ per field plus a __post_init__ call on every point.
    """

    x1: float
    x2: float

    def __init__(self, x1: float, x2: float) -> None:
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise DomainError(f"state must be finite, got ({x1!r}, {x2!r})")
        # update() leaves a combined dict; item assignment would keep the
        # shared-key one, whose attribute reads are ~2x slower on CPython
        # 3.11 and 3.12
        self.__dict__.update(x1=x1, x2=x2)

    def __neg__(self) -> "State":
        return State(-self.x1, -self.x2)


# ── Operations ─────────────────────────────────────────────────────────────────


def _check_finite(x1: float, x2: float) -> None:
    """State's check for a point (x1, x2) built on plain floats: a State is
    made only to raise its own DomainError."""
    if not (math.isfinite(x1) and math.isfinite(x2)):
        State(x1, x2)


def nondimensionalize(p: PhysicalParams, l: float = 1.0) -> Params:
    """Map dimensional constants to Params via alpha = L*F_max/(m*V^2).

    The tolerance radius l is a modelling choice, not derivable from the
    plant, so the caller supplies it (default 1).
    """
    alpha = p.length * p.f_max / (p.mass * p.velocity * p.velocity)
    return Params(alpha=alpha, l=l)


def validate_control(u: float) -> None:
    if not (math.isfinite(u) and -1.0 <= u <= 1.0):
        raise DomainError(f"control must satisfy -1 <= u <= 1, got {u!r}")


# ── Scenario files ─────────────────────────────────────────────────────────────

_SCENARIO_KEYS = {"alpha", "l", "target"}


def parse_scenario(text: str) -> tuple[Params, str]:
    """Parse a JSON scenario {"alpha": num, "l": num, "target": "circle"|"square"}.

    Unknown keys are rejected.  A missing alpha or l takes Params' default;
    the square target ignores l.  Returns (Params, target_kind).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DomainError("scenario must be a JSON object")
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise DomainError(f"unknown scenario keys: {sorted(unknown)}")
    target = raw.get("target")
    if target not in ("circle", "square"):
        raise DomainError(f'scenario "target" must be "circle" or "square", got {target!r}')
    numbers = {key: raw[key] for key in ("alpha", "l") if key in raw}
    for key, v in numbers.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise DomainError(f'scenario "{key}" must be a number, got {v!r}')
    try:
        numbers = {key: float(v) for key, v in numbers.items()}
    except OverflowError as exc:
        raise DomainError(f"scenario number too large for a float: {exc}") from exc
    return Params(**numbers), target
