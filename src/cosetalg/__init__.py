"""Measure algebras on finite coset spaces G/H.

Build a finite group, pick a subgroup, and work with complex measures on the
left-coset space: convolution through an integer structure table (the
suborbit relation matrix `rel` and suborbit `labels`), exact Gaussian-rational
arithmetic on `ExactVector`, averaging and lifting operators between the group
and the quotient, quasi-invariant coset measures, and a seeded verification
harness that checks the algebraic laws on a catalog of concrete pairs
(`verifier`, loaded on first use).
"""

from ._kernels import BACKEND
from .errors import (CapExceeded, CarrierMismatch, CosetAlgError,
                     NoIdentity, NoInverse, NonPositive, NotAPermutation,
                     NotAssociative, NotClosed, NotCosetConstant,
                     UnknownCheckId, UnknownName)
from .exact import ExactVector
from .groups import (FiniteGroup, QuotientSpace, Subgroup,
                     build_coset_space, build_from_cayley_table,
                     build_from_permutation_generators, builtin_catalog,
                     builtin_from_token, element_order, find_element,
                     generate_subgroup, group_from_dict, group_to_dict,
                     subgroup_from_members, subgroup_from_tokens,
                     test_normality)
from .measures import (ComplexMeasure, DensityFunction, from_density,
                       group_carrier, group_convolve, integrate,
                       measure_from_dict, measure_to_dict, point_mass,
                       quotient_carrier, total_variation)
from .quotient_algebra import (IdentitySolution, StructureTable, delta_h,
                               embed_density, find_left_identity,
                               find_two_sided_identity, ideal_factorize,
                               l1_convolve, lp_action, lp_norm, module_action,
                               quotient_convolve, quotient_convolve_exact,
                               structure_table)
from .quotient_ops import (QuotientMeasure, RhoFunction, average_ph,
                           compose_with_projection, lift_to_invariant,
                           membership_mgh, pushforward_rh,
                           quasi_invariant_lambda, quotient_integral_check,
                           rho_from_dict, rho_ones, solve_mhg_space,
                           validate_rho, weighted_average_th)

__version__ = "0.1.0"

_VERIFIER_NAMES = ("CHECK_IDS", "CatalogEntry", "CheckReport", "CheckSpec",
                   "default_catalog", "exit_code", "run_check", "run_suite")


def __getattr__(name):
    # import_module, not `from . import verifier`, whose hasattr probe of
    # this package would call back into __getattr__
    if name == "verifier" or name in _VERIFIER_NAMES:
        import importlib
        verifier = importlib.import_module(".verifier", __name__)
        return verifier if name == "verifier" else getattr(verifier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_VERIFIER_NAMES, "verifier"})
