"""Strong starters in odd cyclic groups by triplication.

The pipeline: build or sample a triplication table over ``Z_m``, compile it
with a discrimination scenario into a 3-valued constraint problem, solve,
and decode the solution into a verified strong starter of order ``3m``.
"""

from .errors import (
    BudgetExceeded,
    IncompatibleResidues,
    InconsistentOrdering,
    InputNotStrongStarter,
    InternalVerificationFailure,
    InvalidInput,
    KeyNotAdmissible,
    MultiplierNotInvertible,
    NotATable,
    NotCongruous,
    OrderTooLarge,
    ScenarioMismatch,
    SpecialPairViolation,
    TriplicationError,
)
from .msp import (
    CongruousTable,
    MspInstance,
    SolveOutcome,
    SolveStats,
    check_congruous,
    compile_instance,
    random_tt,
    solution_from_json,
    solution_to_json,
    solve,
)
from .pairings import (
    Pairing,
    StarterClass,
    StarterKind,
    canonical_unordered,
    classify,
    conjugate,
    enumerate_strong_starters,
    normalize_ordered,
    pairing_from_json,
    pairing_to_json,
    sums,
)
from .recovery import recover_starter, round_trip, starter_from_json, starter_to_json
from .scenarios import EncodedElement, Scenario
from .tables import (
    CarryTables,
    TriplicationTable,
    WeakSets,
    arrange_strong_starter,
    canonicalize,
    derive_index_structures,
    equivalent,
    induce_from_starter,
    render_table,
    table_from_json,
    table_to_json,
    validate,
)
from .templates import (
    admissible_keys,
    build_template,
    epicycloidal,
    is_disjoint,
    is_special_pair,
    one_starter_table,
    patterned_starter,
    template_base_from_spec,
    template_table,
    three_starter_table,
)

__version__ = "0.1.0"
