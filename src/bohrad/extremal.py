"""Extremal families that pin the radii down.

The domain Omega(gamma) = { z : |z + gamma/(1-gamma)| < 1/(1-gamma) } is a
disk through z = 1 containing the unit disk, shrinking to it as gamma -> 0.
The analytic extremal h_a is the composition of the disk automorphism
w -> (a - w)/(1 - a w) with the affine map z -> (1-gamma) z + gamma, i.e.

    h_a(z) = (a - gamma - (1-gamma) z) / (1 - a gamma - a (1-gamma) z),

whose Taylor coefficient moduli are

    |a_0| = |a - gamma| / (1 - a gamma),
    |a_n| = (1 - a^2) / (a (1 - a gamma)) * q^n,   q = a (1-gamma)/(1 - a gamma).

As a -> 1- the head tends to 1 and the tail to 0, which is what makes every
radius here sharp.  The harmonic extremal adds the co-analytic stream
|b_n| = k |a_n|; the subordination extremal is psi(z) = 1/(1-z) with
g(z) = k z/(1-z) and distance 1/2 from psi(0) to the boundary.

ExtremalParams carries head, lead and q, so the moduli are written down once.
On any weight family the geometric moduli give

    sum_{n>=1} |a_n| phi_n(r) = lead * sum_{n>=1} q^n phi_n(r),

which is lead * Phi_1(q r) for the built-in families, phi_n(r) = c_n r^n,
and the subordination extremal's sum_{n>=1} (|a_n| + |b_n|) phi_n(r) is
(1 + k) Phi_1(r); the problems in radii evaluate these without building a
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_gamma, check_k
from .series import CoefficientStream, HarmonicMap


@dataclass(frozen=True)
class DomainParams:
    """Disk parameter gamma in [0, 1); gamma = 0 is the unit disk."""

    gamma: float

    def __post_init__(self):
        check_gamma(self.gamma)

    @property
    def center(self) -> float:
        return -self.gamma / (1.0 - self.gamma)

    @property
    def radius(self) -> float:
        return 1.0 / (1.0 - self.gamma)


@dataclass(frozen=True)
class ExtremalParams:
    """Automorphism parameter a in (0, 1), domain gamma, dilatation k.

    The unimodular factor multiplying the co-analytic part never survives the
    modulus, so only k is stored.
    """

    a: float
    gamma: float = 0.0
    k: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ParameterError(f"extremal parameter a must lie in (0, 1), got {self.a}")
        check_gamma(self.gamma)
        check_k(self.k)

    @property
    def head(self) -> float:
        """|a_0| = |a - gamma| / (1 - a gamma)."""
        return abs(self.a - self.gamma) / (1.0 - self.a * self.gamma)

    @property
    def lead(self) -> float:
        """(1 - a^2) / (a (1 - a gamma)), so that |a_n| = lead * q^n for n >= 1."""
        return (1.0 - self.a * self.a) / (self.a * (1.0 - self.a * self.gamma))

    @property
    def q(self) -> float:
        """Ratio a (1 - gamma) / (1 - a gamma) of successive moduli, in (0, 1)."""
        return self.a * (1.0 - self.gamma) / (1.0 - self.a * self.gamma)


def mobius_extremal(params: ExtremalParams, order: int | None = None) -> CoefficientStream:
    """Coefficient modulus stream of the extremal h_a on Omega(gamma)."""
    head, lead, q = params.head, params.lead, params.q

    def produce(n: int) -> float:
        if n == 0:
            return head
        return lead * q**n

    return CoefficientStream(produce, order_hint=order)


def harmonic_extremal(params: ExtremalParams, order: int | None = None) -> HarmonicMap:
    """Harmonic extremal h_a + conj(g_a) with |b_n| = k |a_n| for n >= 1."""
    h = mobius_extremal(params, order)
    k = params.k

    def produce_g(n: int) -> float:
        return 0.0 if n == 0 else k * h.at(n)

    return HarmonicMap(h=h, g=CoefficientStream(produce_g, order_hint=order), k=k)


# dist(psi(0), boundary of psi(D)) for psi(z) = 1/(1-z): the subordination
# threshold's factor, which needs no stream
_SUBORDINATION_DISTANCE = 0.5


@dataclass(frozen=True)
class SubordinationExtremal:
    """Extremal pair for the subordination radius.

    fmap holds the streams of psi(z) = 1/(1-z) (all moduli 1) and
    g(z) = k z/(1-z); distance is dist(psi(0), boundary of psi(D)) = 1/2 and
    psi_prime_at_0 = 1.  Any distance must sit inside [|psi'(0)|/2, |psi'(0)|],
    and ParameterError is raised otherwise.
    """

    fmap: HarmonicMap
    distance: float = _SUBORDINATION_DISTANCE
    psi_prime_at_0: float = 1.0

    def __post_init__(self):
        lo = 0.5 * abs(self.psi_prime_at_0)
        hi = abs(self.psi_prime_at_0)
        if not lo <= self.distance <= hi:
            raise ParameterError(
                f"distance {self.distance} outside [{lo}, {hi}] allowed by the derivative"
            )


def subordination_extremal(k: float, order: int | None = None) -> SubordinationExtremal:
    check_k(k)
    h = CoefficientStream(lambda n: 1.0, order_hint=order)
    g = CoefficientStream(lambda n: 0.0 if n == 0 else k, order_hint=order)
    return SubordinationExtremal(fmap=HarmonicMap(h=h, g=g, k=k))


def boundary_points(gamma: float, count: int) -> np.ndarray:
    """count points (x, y) on the boundary circle of Omega(gamma).

    Points start at the common rightmost point (1, 0) and walk
    counterclockwise; returned as an array of shape (count, 2).
    """
    dom = DomainParams(gamma)
    if count < 1 or not float(count).is_integer():
        raise ParameterError(f"count must be a positive integer, got {count}")
    theta = 2.0 * math.pi * np.arange(int(count)) / int(count)
    return np.column_stack(
        (dom.center + dom.radius * np.cos(theta), dom.radius * np.sin(theta))
    )
