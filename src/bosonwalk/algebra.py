"""Internal-space algebra of the walk.

The walk carries a 6-component internal space, two stacked spin-1 triplets.
Each axis j has a block generator

    G_j = diag(J_j, -J_j)

built from the spin-1 matrices J_j, and a projector triple (plus, zero,
minus) onto the G_j eigenspaces with eigenvalues (+1, 0, -1).  The shift
along axis j moves the plus component one site forward, leaves the zero
component in place, and moves the minus component one site back.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import permutations, product

import numpy as np

from . import _finite
from .errors import ArgumentOutOfRangeError, InvalidArgumentError


class Axis(IntEnum):
    X = 0
    Y = 1
    Z = 2


_J = (
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]),
    np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]]),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]),
)

# Cross-axis sandwich constants: P_i^pm P_j^{plus/minus} P_i^pm = C_SIDE P_i^pm
# and every sandwich involving a zero projector carries C_ZERO.
C_SIDE = 0.25
C_ZERO = 0.5


def _axis(axis) -> Axis:
    """The builders' one gate: an Axis or the integer 0, 1 or 2, not a bool."""
    if (isinstance(axis, bool) or not isinstance(axis, (int, np.integer))
            or axis not in (0, 1, 2)):
        raise InvalidArgumentError(f"axis must be 0, 1 or 2, got {axis!r}")
    return Axis(axis)


def build_spin1_matrix(axis: Axis | int) -> np.ndarray:
    """Return the 3x3 spin-1 generator for an axis.

    The generators satisfy [J_x, J_y] = i J_z (cyclic) and have
    eigenvalues {+1, 0, -1}.
    """
    return _J[_axis(axis)].copy()


def build_gamma(axis: Axis | int) -> np.ndarray:
    """Return the 6x6 block generator diag(J_axis, -J_axis)."""
    j = _J[_axis(axis)]
    g = np.zeros((6, 6), dtype=complex)
    g[:3, :3] = j
    g[3:, 3:] = -j
    return g


@dataclass(frozen=True)
class ProjectorTriple:
    """Eigenprojectors of a block generator, eigenvalues (+1, 0, -1)."""

    plus: np.ndarray
    zero: np.ndarray
    minus: np.ndarray


def build_projectors(axis: Axis | int) -> ProjectorTriple:
    """Return the projector triple for one axis.

    plus = (G^2 + G)/2, zero = I - G^2, minus = (G^2 - G)/2.  Because the
    generator cubes to itself these are exact projectors summing to the
    identity, and plus - minus = G.
    """
    g = build_gamma(axis)
    g2 = g @ g
    return ProjectorTriple(
        plus=(g2 + g) / 2.0,
        zero=np.eye(6, dtype=complex) - g2,
        minus=(g2 - g) / 2.0,
    )


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    residual: float


@dataclass(frozen=True)
class ConditionReport:
    """Result of sweeping every cross-axis projector identity."""

    checks: tuple[ConditionCheck, ...]
    c_side: float
    c_zero: float
    passed: bool
    max_residual: float


def verify_projector_conditions(tolerance: float = 1e-14) -> ConditionReport:
    """Evaluate the cross-axis sandwich identities and extract their constants.

    For every ordered axis pair (i, j), i != j, and every sign k in {+, -}:

        P_i^k P_j^+ P_i^k = c  P_i^k        c  = 1/4
        P_i^k P_j^- P_i^k = c  P_i^k
        P_i^k P_j^0 P_i^k = c' P_i^k        c' = 1/2
        P_i^0 P_j^k P_i^0 = c' P_i^0
        P_i^0 P_j^0      = 0

    Constants are extracted as trace ratios rather than assumed, so the
    report doubles as a measurement of c and c'.  Passes iff every residual
    is within `tolerance` and (c, c') land on (1/4, 1/2) to the same
    tolerance, a finite number >= 0.
    """
    if not (_finite(tolerance) and tolerance >= 0):
        raise ArgumentOutOfRangeError(
            f"tolerance {tolerance!r} is not a finite number >= 0")
    triples = {a: build_projectors(a) for a in Axis}
    checks: list[ConditionCheck] = []
    c_estimates: list[float] = []
    cp_estimates: list[float] = []
    for i, j in permutations(Axis, 2):
        for outer, inner in product(("plus", "minus", "zero"), repeat=2):
            p_out, p_in = getattr(triples[i], outer), getattr(triples[j], inner)
            if outer == inner == "zero":
                checks.append(ConditionCheck(f"{i.name}zero.{j.name}zero",
                                             float(np.abs(p_out @ p_in).max())))
                continue
            mid = p_out @ p_in @ p_out
            coeff = np.trace(mid).real / np.trace(p_out).real
            (cp_estimates if "zero" in (outer, inner) else c_estimates).append(coeff)
            checks.append(ConditionCheck(
                f"{i.name}{outer}.{j.name}{inner}.{i.name}{outer}",
                float(np.abs(mid - coeff * p_out).max())))

    c_side = float(np.mean(c_estimates))
    c_zero = float(np.mean(cp_estimates))
    max_res = max(c.residual for c in checks)
    const_err = max(
        abs(c_side - C_SIDE), abs(c_zero - C_ZERO),
        max(abs(v - C_SIDE) for v in c_estimates),
        max(abs(v - C_ZERO) for v in cp_estimates),
    )
    return ConditionReport(
        checks=tuple(checks),
        c_side=c_side,
        c_zero=c_zero,
        passed=(max_res <= tolerance and const_err <= tolerance),
        max_residual=max_res,
    )
