"""The package's public names, pinned.

Adding or removing a public name is an API change; it should show up as an
edit to this list.
"""

import tractable_dyn

PUBLIC_NAMES = [
    "Analysis", "BasicSetDecomposition", "BirkhoffResult",
    "CapExceededError", "Correspondence", "CorrespondenceError",
    "CorrespondencePair", "CoverError", "DecayCertificate",
    "DegenerateMapError", "Distribution", "DomainError",
    "ElementMismatchError", "FiniteRelation", "GenericityReport",
    "IntervalComplex", "MapRangeError", "MarkovMeasureSpec", "MeshReport",
    "NotStationaryError", "NotTerminalError", "NumericalError", "PLReport",
    "RepairReport", "RoundoffReport", "ShiftLikeSystem", "ShiftlikeReport",
    "SimplicialSystem1D", "SlidingBlockCode", "StochasticCover",
    "SubdivisionError", "SubshiftReport", "TractableDynError",
    "TwoAlphabetModel", "ValidationError", "Word", "WordError", "all_words",
    "analyze", "apply_g", "barycentric", "basic_set_correspondence",
    "basic_sets", "bernoulli_cylinder", "build_model", "build_system",
    "code_H_1d", "code_R", "column_stochastic_norm_bound", "compose",
    "config", "cylinder_measure", "decode_H", "decode_orbit_histogram",
    "decompose_stationary", "derive_gamma", "endset_certificate",
    "ergodic_cylinder_measure_star", "ergodic_measure_spec", "errors",
    "genericity_check", "induced_covers", "induced_relations", "inverse",
    "lebesgue_distribution_data", "lift_stationary", "markov", "metric_d",
    "nondegenerate_repair", "pl_eval", "rationals", "refine", "relation",
    "relation_from_json", "relation_to_json", "restrict_to_infinite_domain",
    "roundoff", "sample_path", "shadow_Q", "shiftlike", "simplicial1d",
    "stationary_distribution", "theta", "tractability_report_pl",
    "tractability_report_shiftlike", "tractability_report_subshift",
    "transient_decay", "two_alphabet", "uniform_cover", "validate_cover",
]


def test_public_names_are_pinned():
    assert sorted(tractable_dyn.__all__) == PUBLIC_NAMES
