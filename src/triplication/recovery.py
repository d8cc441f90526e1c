"""Recovery of strong starters from an aligned pair of tables.

Given a triplication table over ``Z_m`` and a congruous solution table, every
component of the sought starter is reconstructed from its residue mod ``m``
and its discriminator.  In the mod scenario this is a Chinese-remainder lift
with non-coprime moduli (:func:`crt_general`); in the carry scenario it is
plain quotient-remainder composition.  The recovered pairing is guaranteed to
be a strong starter of order ``3m``; it is re-verified anyway, and a failure
there is reported as an internal bug, never as a user error.
"""

from __future__ import annotations

import math

from .errors import (
    IncompatibleResidues,
    InputNotStrongStarter,
    InternalVerificationFailure,
    InvalidInput,
    NotCongruous,
    ScenarioMismatch,
)
from .msp import CongruousTable, check_congruous
from .pairings import Pairing, StarterKind, classify, modinv
from .tables import TriplicationTable, _arrange, validate

__all__ = [
    "crt_general",
    "recover_starter",
    "round_trip",
    "starter_from_json",
    "starter_to_json",
]


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


def recover_starter(tt: TriplicationTable, ct: CongruousTable, sc) -> Pairing:
    """Decode the aligned tables into a strong starter of order ``3m``.

    Congruity is re-checked first (:class:`NotCongruous` on failure).  The
    decoded pairing is classified before being returned; by construction it
    must come out a strong starter, so a failed classification raises
    :class:`InternalVerificationFailure`.

    Pairs are emitted in table index order.  Distinct solution tables decode
    to distinct ordered pairings; use
    :func:`triplication.pairings.canonical_unordered` to dedup the
    underlying unordered starters.
    """
    report = check_congruous(tt, ct, sc)
    if not report:
        raise NotCongruous("; ".join(report.violations))
    pairs = tuple(
        (sc.decode((u, bu)), sc.decode((v, bv)))
        for (u, v), (bu, bv) in zip(tt.pairs, ct.values)
    )
    recovered = Pairing(3 * tt.m, pairs)
    outcome = classify(recovered)
    if outcome.kind != StarterKind.STRONG_STARTER:
        raise InternalVerificationFailure(
            f"recovered pairing is not a strong starter: {outcome.witness}"
        )
    return recovered


def round_trip(s: Pairing, sc) -> tuple[TriplicationTable, CongruousTable]:
    """Project a strong starter of order ``3m`` onto its aligned table pair.

    The starter is first arranged in table order (special pair first, rows
    grouped by difference class with sign ``+d``); the residues mod ``m``
    form the induced table and the discriminators the congruous table.
    :func:`recover_starter` on the result returns the arranged pairing, which
    equals ``s`` as a set of unordered pairs.
    """
    outcome = classify(s)
    if outcome.kind != StarterKind.STRONG_STARTER:
        raise InputNotStrongStarter(f"classify: {outcome}")
    if s.modulus != 3 * sc.m:
        raise ScenarioMismatch(
            f"starter order {s.modulus} does not match scenario order {3 * sc.m}"
        )
    arranged = _arrange(s)
    m = sc.m
    tt = validate([(x % m, y % m) for x, y in arranged.pairs], m)
    ct = CongruousTable(
        kind=sc.kind,
        r=sc.r,
        values=tuple((sc.f(x), sc.f(y)) for x, y in arranged.pairs),
    )
    return tt, ct


def starter_to_json(p: Pairing, ordered: bool = True, provenance: dict | None = None) -> dict:
    """Starter file format: order ``3m``, pairs, ordering flag, provenance."""
    doc = {
        "order": p.modulus,
        "pairs": [[x, y] for x, y in p.pairs],
        "ordered": bool(ordered),
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def starter_from_json(data: dict) -> Pairing:
    try:
        order = int(data["order"])
        pairs = data["pairs"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed starter JSON: {exc}") from exc
    return Pairing(order, tuple((int(x), int(y)) for x, y in pairs))
