"""Random walks on Z_{G_n} with linear-recurrence step sets.

Exact circulant spectra, total-variation mixing times, closed-form
bound evaluation, inequality verification suites, and seeded simulation.

Importing the package loads only its errors (and SUITE_NAMES, which sit
beside UnknownSuite).  Every other name in __all__ is a lazy export
(PEP 562): the first lookup of, say, recwalk.build_report imports
recwalk.bounds, where _EXPORTS places it, and returns that module's
object, so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

from .errors import (
    SUITE_NAMES,
    RecwalkError,
    NonIncreasingSequence,
    NonPositiveTerm,
    NoPositiveCoefficient,
    WindowTooShort,
    StateSpaceTooLarge,
    DegenerateStateSpace,
    NotFirstOrder,
    DomainError,
    UnknownSuite,
    InsideErrorBand,
    ScanTooLong,
    WorkTooLarge,
)

_EXPORTS = {
    "recurrence": (
        "PRESETS", "GrowthEstimate", "RecurrenceSpec", "SequenceWindow",
        "estimate_growth", "first_unbounded_j", "generate", "ratio_bounded", "s_value",
    ),
    "spectrum": (
        "DEFAULT_N_MAX", "eigenvalue_bound", "full_spectrum", "half_spectrum",
        "slem_streaming", "unnormalized_values",
    ),
    "walk": (
        "MixingResult", "evolve", "mixing_time", "point_mass", "scan_lower_bound",
        "step_distribution", "tv_to_uniform",
    ),
    "bounds": (
        "BoundReport", "build_report", "first_order_base", "gamma_first_order",
        "gamma_general", "kappa_first_order", "kappa_general", "lower_first_order",
        "lower_general", "relaxation_lower", "seq2bound_multiset", "ubl_implied_t",
        "ubl_sums", "upper_first_order", "upper_general",
    ),
    "montecarlo": ("SimConfig", "simulate_tv"),
    "verify": ("SuiteResult", "run_suites"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "SUITE_NAMES", "RecwalkError", "NonIncreasingSequence", "NonPositiveTerm",
    "NoPositiveCoefficient", "WindowTooShort", "StateSpaceTooLarge",
    "DegenerateStateSpace", "NotFirstOrder", "DomainError", "UnknownSuite",
    "InsideErrorBand", "ScanTooLong", "WorkTooLarge",
    *_MODULE_OF,
]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:  # `from recwalk import verify` then imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
