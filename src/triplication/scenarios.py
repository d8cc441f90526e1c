"""Discrimination scenarios: invertible encodings of Z_{3m}.

Reduction mod ``m`` is 3-to-1 on ``Z_{3m}``; a scenario pairs each residue
``u = x mod m`` with a *discriminator* ``U = f(x)`` so that ``x <-> (u, U)``
is a bijection.  Two concrete scenarios are exposed:

* ``mod``:   ``f(x) = x mod 3^(nu+1)`` where ``m = 3^nu * p`` with ``3 ∤ p``.
  Box-operations are plain arithmetic mod ``3^(nu+1)``; decoding is a
  Chinese-remainder lift (non-coprime moduli when ``nu >= 1``).
* ``carry``: ``f(x) = x // m``, so ``U`` is the base-``m`` digit carry.
  Box-operations need an explicit carry bit; decoding is ``m*U + u``.

Both satisfy ``f(0) = 0``, and both make the pair sets of any fixed
triplication table yield the same strong starters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import IncompatibleResidues, InvalidInput
from .pairings import modinv

__all__ = ["EncodedElement", "Scenario", "crt_general"]


def crt_general(u: int, m: int, U: int, h: int) -> int:
    """The unique ``x`` in ``[0, lcm(m, h))`` with ``x = u (mod m)`` and
    ``x = U (mod h)``.

    The moduli need not be coprime: with ``d = gcd(m, h)`` a solution exists
    iff ``u = U (mod d)``, otherwise :class:`IncompatibleResidues` is raised.
    The lift subtracts the shared residue ``u mod d``, divides through by
    ``d`` (the reduced moduli are coprime), solves the coprime system, and
    scales back.
    """
    if m <= 0 or h <= 0:
        raise InvalidInput(f"moduli must be positive, got {m} and {h}")
    u %= m
    U %= h
    d = math.gcd(m, h)
    if (u - U) % d:
        raise IncompatibleResidues(f"{u} (mod {m}) and {U} (mod {h}) disagree mod {d}")
    ubar = u % d
    m1, h1 = m // d, h // d
    a = ((u - ubar) // d) % m1 if m1 > 1 else 0
    b = ((U - ubar) // d) % h1 if h1 > 1 else 0
    # coprime lift of (a mod m1, b mod h1)
    if m1 == 1:
        xp = b
    elif h1 == 1:
        xp = a
    else:
        xp = (a + m1 * (((b - a) * modinv(m1, h1)) % h1)) % (m1 * h1)
    n = m1 * h  # lcm(m, h)
    return (ubar + d * xp) % n


class EncodedElement(NamedTuple):
    u: int
    U: int


@dataclass(frozen=True)
class Scenario:
    """An immutable scenario: ``kind`` is ``"mod"`` or ``"carry"``, ``m`` the
    odd base order.  All operations are pure."""

    kind: str
    m: int

    def __post_init__(self):
        if self.kind not in ("mod", "carry"):
            raise InvalidInput(f"unknown scenario kind {self.kind!r}")
        if self.m < 3 or self.m % 2 == 0:
            raise InvalidInput(f"order must be odd and >= 3, got {self.m}")

    @cached_property
    def nu(self) -> int:
        """Exponent of 3 in ``m``."""
        n, m = 0, self.m
        while m % 3 == 0:
            m //= 3
            n += 1
        return n

    @property
    def p(self) -> int:
        """The 3-free part of ``m``."""
        return self.m // 3**self.nu

    @cached_property
    def r(self) -> int:
        """Discriminator modulus: ``3^(nu+1)`` for mod, 3 for carry."""
        return 3 ** (self.nu + 1) if self.kind == "mod" else 3

    @property
    def n(self) -> int:
        return 3 * self.m

    def f(self, x: int) -> int:
        """The discriminating function on ``Z_{3m}``."""
        if not 0 <= x < self.n:
            raise InvalidInput(f"{x} outside Z_{self.n}")
        return x % self.r if self.kind == "mod" else x // self.m

    def encode(self, x: int) -> EncodedElement:
        """``x -> (x mod m, f(x))``; a bijection onto its range."""
        if not 0 <= x < self.n:
            raise InvalidInput(f"{x} outside Z_{self.n}")
        return EncodedElement(x % self.m, self.f(x))

    def decode(self, e) -> int:
        """The unique ``x`` with ``encode(x) == e``.

        In the mod scenario the residues must agree mod ``3^nu``
        (:class:`IncompatibleResidues` otherwise); the lift is the
        generalized Chinese remainder with moduli ``m`` and ``3^(nu+1)``.
        """
        u, U = e
        if not 0 <= u < self.m:
            raise InvalidInput(f"residue {u} outside Z_{self.m}")
        if not 0 <= U < self.r:
            raise InvalidInput(f"discriminator {U} outside Z_{self.r}")
        if self.kind == "carry":
            return self.m * U + u
        if (u - U) % 3**self.nu:
            raise IncompatibleResidues(
                f"{u} and {U} disagree mod 3^{self.nu} = {3 ** self.nu}"
            )
        return crt_general(u, self.m, U, self.r)

    def box_sub(self, a, b, delta: int = 0) -> int:
        """Discriminator of ``F(a) - F(b)``.

        Carry scenario: ``(U - V - delta) mod 3`` with ``delta = 1`` iff the
        residue difference underflows; the caller supplies the bit (it is
        precomputed per table pair).  Mod scenario: plain subtraction mod
        ``3^(nu+1)``; the bit is ignored.
        """
        U, V = a[1], b[1]
        if self.kind == "mod":
            return (U - V) % self.r
        return (U - V - delta) % 3

    def box_add(self, a, b, sigma: int = 0) -> int:
        """Discriminator of ``F(a) + F(b)``; see :meth:`box_sub`."""
        U, V = a[1], b[1]
        if self.kind == "mod":
            return (U + V) % self.r
        return (U + V + sigma) % 3

    def variable_domain(self, u: int) -> tuple[int, int, int]:
        """The three discriminators compatible with residue ``u``, i.e. the
        ``f``-images of the three lifts of ``u`` (in ``3^nu`` steps for mod)."""
        if not 0 <= u < self.m:
            raise InvalidInput(f"residue {u} outside Z_{self.m}")
        if self.kind == "carry":
            return (0, 1, 2)
        step = 3**self.nu
        return (u % self.r, (u + step) % self.r, (u + 2 * step) % self.r)
