"""Tractability analysis for finite-relation, shift-like, and piecewise-linear
dynamical systems: basic sets, stochastic covers and their ergodic Markov
measures, two-alphabet symbolic presentations, and exact-rational simplicial
approximation of interval maps.
"""

from .errors import (CapExceededError, CorrespondenceError, CoverError,
                     DegenerateMapError, DomainError, ElementMismatchError,
                     MapRangeError, NotStationaryError, NotTerminalError,
                     NumericalError, SubdivisionError, TractableDynError,
                     ValidationError, WordError)
from .markov import (DecayCertificate, Distribution, GenericityReport,
                     MarkovMeasureSpec, StochasticCover, SubshiftReport,
                     cylinder_measure, decompose_stationary,
                     ergodic_measure_spec, genericity_check, sample_path,
                     stationary_distribution, tractability_report_subshift,
                     transient_decay, uniform_cover, validate_cover)
from .relation import (BasicSetDecomposition, FiniteRelation, basic_sets,
                       compose, endset_certificate, inverse,
                       relation_from_json, relation_to_json,
                       restrict_to_infinite_domain)
from .shiftlike import (ShiftLikeSystem, ShiftlikeReport, SlidingBlockCode,
                        Word, all_words, apply_g, bernoulli_cylinder, code_R,
                        decode_H, derive_gamma, shadow_Q,
                        tractability_report_shiftlike)
from .simplicial1d import (BirkhoffResult, IntervalComplex, MeshReport,
                           PLReport, RepairReport, RoundoffReport,
                           SimplicialSystem1D, barycentric, build_system,
                           code_H_1d, column_stochastic_norm_bound,
                           decode_orbit_histogram, lebesgue_distribution_data,
                           metric_d, nondegenerate_repair, pl_eval, refine,
                           roundoff, theta, tractability_report_pl)
from .two_alphabet import (Analysis, Correspondence, CorrespondencePair,
                           TwoAlphabetModel, analyze, basic_set_correspondence,
                           build_model, ergodic_cylinder_measure_star,
                           induced_covers, induced_relations, lift_stationary)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
