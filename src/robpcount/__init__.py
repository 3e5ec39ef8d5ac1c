"""Read-once branching programs for approximate counting: constructions,
exact verification, potential audits, closed-form bounds, a desk-scale
frontier oracle, and the Misra-Gries heavy-hitters summary.

Importing the package loads no submodule: each public name is imported from
its submodule on first use, so a process that only needs the pure-Python
parts (bounds, the frontier search, streaming) never loads numpy.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "bounds": (
        "BoundReport",
        "gen_binom",
        "kpar_lower_bound",
        "lb_small_w",
        "lb_standard",
        "thm_main_feasible",
        "tightness_report",
    ),
    "constructions": (
        "RoundingPlan",
        "TribesPlan",
        "constant_program",
        "exact_counter",
        "rounded_counter",
        "rounded_counter_width_bound",
        "rounding_plan",
        "tribes",
        "tribes_plan",
    ),
    "labeling": (
        "LabeledRobp",
        "RectLabel",
        "VerifyCertificate",
        "compute_labels",
        "minimal_error",
        "verify",
    ),
    "oracle": (
        "FrontierPoint",
        "IntervalSystem",
        "exhaustive_verify",
        "frontier",
        "frontier_brute_force",
        "frontier_column",
        "random_robp",
        "system_to_robp",
    ),
    "potential": (
        "AuditReport",
        "PotentialProfile",
        "audit_final_counter",
        "audit_final_parallel",
        "audit_growth_counter",
        "audit_growth_parallel",
        "phi_counter",
        "phi_parallel",
        "profile_counter",
        "profile_parallel",
    ),
    "robp": (
        "Alphabet",
        "Robp",
        "RobpParseError",
        "ValidationReport",
        "binary_alphabet",
        "counter_alphabet",
        "evaluate",
        "parallel_alphabet",
        "read_robp",
        "validate",
        "write_robp",
    ),
    "streaming": (
        "HeavyHittersOutput",
        "MgSummary",
        "mg_finalize",
        "mg_run",
        "mg_update",
        "to_approx_counts",
    ),
}
_SUBMODULES = ("exact", *_EXPORTS)
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SUBMODULES, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        # importing a submodule binds it on the package, so this runs once
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
