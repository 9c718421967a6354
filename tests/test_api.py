"""The names the package exports: a change to this set must be deliberate."""

import ast
import types
from pathlib import Path

import coprime_lab

EXPORTS = {
    "ASubgroupDescriptor", "AbelianSection", "ActionSetup", "Automorphism", "CheckReport", "CheckStatus",
    "FamilySpec", "GradedLieRing", "Group", "LieSubspace", "Perm", "SeriesResult", "SpecialFamily",
    "SuiteOptions", "a_special_lattice", "abelian_section", "build_setup", "check_aspecial_containment",
    "check_aspecial_degree_bound", "check_aspecial_generation", "check_centralizer_transfer",
    "check_class_transfer", "check_fg1_quotient", "check_fg2_generation", "check_key_commutator_relation",
    "check_span_lemma", "check_sylow_generation", "commutator_subgroup", "derived_series", "fitting_subgroup",
    "fixed_subgroup", "gamma_a_special_lattice", "gen_coordinate_permutation", "gen_direct_sum",
    "gen_extraspecial", "gen_gl_module", "group_from_generators", "induced_a_action",
    "induced_action_on_quotient", "invariant_sylow", "is_member", "lie_ring_of", "lie_series",
    "lie_subring_of_subgroup", "load_instance", "lower_central_series", "maximal_subgroups",
    "nilpotency_class", "normal_closure", "run_suite", "save_instance", "upper_central_series",
    "validate_setup", "verify_derived_theorem", "verify_gamma_theorem",
}


def test_exported_names_are_pinned():
    # submodules show up as attributes once imported anywhere, so they are left out
    exported = {
        name for name, value in vars(coprime_lab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == EXPORTS
    assert coprime_lab.__version__ == "0.1.0"


def _public_and_named(path: Path) -> tuple[set[str], set[str]]:
    """The public functions and classes a module defines at top level, and the names that
    each of its top-level statements, imports aside, reads besides its own."""
    tree = ast.parse(path.read_text())
    public = {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    named = set()
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            read = {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                    if isinstance(sub, (ast.Name, ast.Attribute))}
            named |= read - {getattr(node, "name", None)}
    return public, named


def test_every_public_definition_in_src_is_exported_or_used_there():
    """Code that only tests use lives under tests/, not in the package."""
    public, named = set(), set()
    for path in Path(coprime_lab.__file__).parent.glob("*.py"):
        module_public, module_named = _public_and_named(path)
        public |= module_public
        named |= module_named
    assert sorted(public - EXPORTS - named) == []
