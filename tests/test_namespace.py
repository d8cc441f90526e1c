import inspect
from types import ModuleType

import triplication
from triplication import errors, msp, pairings, recovery, scenarios, tables, templates

# The package's public names before it re-exported each module's ``__all__``;
# none may go missing.
EARLIER_EXPORTS = set("""
BudgetExceeded CarryTables CongruousTable EncodedElement IncompatibleResidues
InconsistentOrdering InputNotStrongStarter InternalVerificationFailure InvalidInput
KeyNotAdmissible MspInstance MultiplierNotInvertible NotATable NotCongruous
OrderTooLarge Pairing Scenario ScenarioMismatch SolveOutcome SolveStats
SpecialPairViolation StarterClass StarterKind TriplicationError TriplicationTable
WeakSets admissible_keys arrange_strong_starter build_template canonical_unordered
canonicalize check_congruous classify compile_instance conjugate
derive_index_structures enumerate_strong_starters epicycloidal equivalent
induce_from_starter is_disjoint is_special_pair normalize_ordered one_starter_table
pairing_from_json pairing_to_json patterned_starter random_tt recover_starter
render_table round_trip solution_from_json solution_to_json solve starter_from_json
starter_to_json sums table_from_json table_to_json template_base_from_spec
template_table three_starter_table validate
""".split())
NEWLY_EXPORTED = {"CongruityReport", "ConstraintGroup", "MonochromeSets", "egcd", "modinv"}


def test_package_exports_every_module_name():
    exported = {
        name for name, value in vars(triplication).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    declared = set().union(
        *(module.__all__ for module in (msp, pairings, recovery, scenarios, tables, templates))
    )
    error_classes = {
        name for name, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__
    }
    assert exported == declared | error_classes
    assert exported == EARLIER_EXPORTS | NEWLY_EXPORTED
