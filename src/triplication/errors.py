"""Exception hierarchy shared across the package."""


class TriplicationError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidInput(TriplicationError):
    """Malformed or out-of-contract input."""


class OrderTooLarge(InvalidInput):
    """Brute-force enumeration refused without an explicit override."""


class NotATable(TriplicationError):
    """A pairing failed triplication-table validation.

    ``clause`` is one of ``"i"``, ``"ii"``, ``"iii"``, ``"iv"`` naming the
    first violated defining property; ``detail`` pinpoints the offender.
    """

    def __init__(self, clause: str, detail: str):
        self.clause = clause
        self.detail = detail
        super().__init__(f"clause ({clause}): {detail}")

    def __reduce__(self):
        # ``args`` holds the formatted message only; rebuild from the parts
        # so that the error crosses a process boundary intact.
        return type(self), (self.clause, self.detail)


class InputNotStrongStarter(InvalidInput):
    """Operation requires a strong starter and the input is not one."""


class SpecialPairViolation(InvalidInput):
    """The two shifted base pseudostarters do not cover Z_m^* twice each."""


class InconsistentOrdering(InvalidInput):
    """Base pairings disagree in length or modulus and cannot be aligned."""


class KeyNotAdmissible(TriplicationError):
    """The requested key lies outside ``1..m-1`` or duplicates a template pair."""


class MultiplierNotInvertible(InvalidInput):
    """mu - 1 shares a factor with the modulus."""


class ScenarioMismatch(InvalidInput):
    """Scenario and table disagree on modulus or discriminator layout."""


class IncompatibleResidues(TriplicationError):
    """No lift of the residue has the given discriminator."""


class NotCongruous(TriplicationError):
    """The candidate solution table violates at least one constraint."""


class BudgetExceeded(TriplicationError):
    """Search or sampling ran out of its node budget."""


class InternalVerificationFailure(TriplicationError):
    """A result that is guaranteed correct by construction failed its
    re-verification; indicates a bug upstream, never a user error."""
