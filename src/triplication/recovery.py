"""Recovery of strong starters from an aligned pair of tables.

Given a triplication table over ``Z_m`` and a congruous solution table, every
component of the sought starter is reconstructed from its residue ``u`` mod
``m`` and its discriminator by :meth:`triplication.scenarios.Scenario.decode`,
which picks the one lift ``u + k*m`` that has that discriminator.  The
recovered pairing is guaranteed to be a strong starter of order ``3m``; it is
re-verified anyway, and a failure there is reported as an internal bug, never
as a user error.
"""

from __future__ import annotations

from .errors import (
    InternalVerificationFailure,
    InvalidInput,
    NotCongruous,
    ScenarioMismatch,
)
from .msp import CongruousTable, check_congruous
from .pairings import Pairing, StarterKind, _int, classify
from .tables import TriplicationTable, arrange_strong_starter, validate

__all__ = [
    "recover_starter",
    "round_trip",
    "starter_from_json",
    "starter_to_json",
]


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

    The order is checked first (:class:`ScenarioMismatch`), then the
    starter is arranged by :func:`triplication.tables.arrange_strong_starter`
    (:class:`InputNotStrongStarter` for a pairing that is not a strong
    starter) and encoded once by ``sc``: the residues mod ``m`` form the
    induced table (:func:`triplication.tables.induce_from_starter`) and the
    discriminators the congruous table.
    :func:`recover_starter` on the result returns the arranged pairing, which
    equals ``s`` as a set of unordered pairs.
    """
    if s.modulus != 3 * sc.m:
        raise ScenarioMismatch(
            f"starter order {s.modulus} does not match scenario order {3 * sc.m}"
        )
    encoded = [(sc.encode(x), sc.encode(y)) for x, y in arrange_strong_starter(s).pairs]
    tt = validate([(a.u, b.u) for a, b in encoded], sc.m)
    return tt, CongruousTable(sc.kind, sc.r, tuple((a.U, b.U) for a, b in encoded))


def starter_to_json(p: Pairing, provenance: dict | None = None) -> dict:
    """Starter file format: order ``3m``, pairs and, if given, provenance.
    :func:`starter_from_json` ignores any other key, such as the
    ``"ordered"`` flag that older files carry."""
    doc = {"order": p.modulus, "pairs": [[x, y] for x, y in p.pairs]}
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def starter_from_json(data: dict) -> Pairing:
    try:
        order = _int(data["order"], "order")
        pairs = data["pairs"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed starter JSON: {exc}") from exc
    return Pairing(order, pairs)
