"""Discrimination scenarios: invertible encodings of Z_{3m}.

Reduction mod ``m`` is 3-to-1 on ``Z_{3m}``; a scenario pairs each residue
``u = x mod m`` with a *discriminator* ``U = f(x)`` so that ``x <-> (u, U)``
is a bijection.  Two concrete scenarios are exposed:

* ``mod``:   ``f(x) = x mod 3^(nu+1)`` where ``m = 3^nu * p`` with ``3 ∤ p``.
  Box-operations are plain arithmetic mod ``3^(nu+1)``.
* ``carry``: ``f(x) = x // m``, so ``U`` is the base-``m`` digit carry.
  Box-operations also add the residues' carry.

Both satisfy ``f(0) = 0``, and both make the pair sets of any fixed
triplication table yield the same strong starters.  Everything else is
read off ``f`` and the three lifts ``u, u + m, u + 2m`` of a residue: the
decoding, the candidate discriminators and the order of the lifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import IncompatibleResidues, InvalidInput
from .pairings import _odd_order

__all__ = ["EncodedElement", "Scenario"]

#: The scenario kinds, in the order the command line lists them.
_KINDS = ("mod", "carry")


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
        if self.kind not in _KINDS:
            raise InvalidInput(f"unknown scenario kind {self.kind!r}")
        _odd_order(self.m)

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
        return EncodedElement(x % self.m, self.f(x))

    def decode(self, e) -> int:
        """The unique ``x`` with ``encode(x) == e``: the lift ``u + k*m`` of
        the residue whose discriminator is ``U``
        (:class:`IncompatibleResidues` if no lift has it)."""
        u, U = e
        if not 0 <= u < self.m:
            raise InvalidInput(f"residue {u} outside Z_{self.m}")
        if not 0 <= U < self.r:
            raise InvalidInput(f"discriminator {U} outside Z_{self.r}")
        for x in range(u, self.n, self.m):
            if self.f(x) == U:
                return x
        raise IncompatibleResidues(f"no lift of {u} has discriminator {U}")

    def box_sub(self, a, b) -> int:
        """Discriminator of ``F(a) - F(b)`` for encodings ``a = (u, U)`` and
        ``b = (v, V)``: ``(U - V) mod 3^(nu+1)`` under mod, ``(U - V -
        delta) mod 3`` under carry, where the borrow ``delta`` is ``u < v``.
        """
        (u, U), (v, V) = a, b
        if self.kind == "mod":
            return (U - V) % self.r
        return (U - V - (u < v)) % 3

    def box_add(self, a, b) -> int:
        """Discriminator of ``F(a) + F(b)``: ``(U + V) mod 3^(nu+1)`` under
        mod, ``(U + V + sigma) mod 3`` under carry with ``sigma = u + v >= m``."""
        (u, U), (v, V) = a, b
        if self.kind == "mod":
            return (U + V) % self.r
        return (U + V + (u + v >= self.m)) % 3

    @cached_property
    def lift_order(self) -> tuple[int, int, int]:
        """The lift indices ``k`` sorted by the discriminator ``f(k*m)``: the
        order in which the search tries the lifts of every residue."""
        return tuple(sorted(range(3), key=lambda k: self.f(k * self.m)))

    def variable_domain(self, u: int) -> tuple[int, int, int]:
        """The three discriminators compatible with residue ``u``: the
        ``f``-images of its lifts, in :attr:`lift_order`."""
        if not 0 <= u < self.m:
            raise InvalidInput(f"residue {u} outside Z_{self.m}")
        return tuple(self.f(u + k * self.m) for k in self.lift_order)
