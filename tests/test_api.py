"""The names the package exports: a change to this set must be deliberate."""

import types

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
