"""rrkit: achievable rate regions for interference and cognitive radio models.

Finite-alphabet joint distributions, entropy/mutual-information evaluation,
the catalogued region bound constants and inequality systems, an exact
Fourier-Motzkin polytope engine, machine checks for the catalog's reductions,
and a CLI (``rrkit``).
"""

from .measures import InfoTerm, TermTable, cmi, entropy, eval_term, eval_terms
from .polytope import (Halfspace, InequalitySystem, Polytope2D, contains,
                       fm_eliminate, lp_feasible, remove_redundant, substitute,
                       vertices2d)
from .prob import (FORMS, FactorizationSpec, JointDistribution, ModelError,
                   Variable, compose, marginalize, sample_distribution,
                   validate_factorization)
from .regions import (BoundConstants, binning_budget_system, build_system,
                      dmt_constants, hod1_constants, hod_constants,
                      project_to_ratepair, ratepair_projection,
                      rtd_constants)
from .verify import CHECKS, RegionReport, run_check

__version__ = "0.1.0"

__all__ = [
    "FORMS", "FactorizationSpec", "JointDistribution", "ModelError",
    "Variable", "compose", "marginalize", "sample_distribution",
    "validate_factorization",
    "InfoTerm", "TermTable", "cmi", "entropy", "eval_term", "eval_terms",
    "Halfspace", "InequalitySystem", "Polytope2D", "contains", "fm_eliminate",
    "lp_feasible", "remove_redundant", "substitute", "vertices2d",
    "BoundConstants", "binning_budget_system", "build_system", "dmt_constants",
    "hod1_constants", "hod_constants", "project_to_ratepair",
    "ratepair_projection", "rtd_constants",
    "CHECKS", "RegionReport", "run_check",
]
