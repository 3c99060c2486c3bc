"""Random walks on Z_{G_n} with linear-recurrence step sets.

Exact circulant spectra, total-variation mixing times, closed-form
bound evaluation, inequality verification suites, and seeded simulation.
"""

__version__ = "0.1.0"

from .errors import (
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
from .recurrence import (
    PRESETS,
    GrowthEstimate,
    RecurrenceSpec,
    SequenceWindow,
    estimate_growth,
    first_unbounded_j,
    generate,
    ratio_bounded,
    s_value,
)
from .spectrum import (
    DEFAULT_N_MAX,
    eigenvalue_bound,
    full_spectrum,
    half_spectrum,
    slem_streaming,
    unnormalized_values,
)
from .walk import (
    MixingResult,
    evolve,
    mixing_time,
    point_mass,
    scan_lower_bound,
    step_distribution,
    tv_to_uniform,
)
from .bounds import (
    BoundReport,
    build_report,
    first_order_base,
    gamma_first_order,
    gamma_general,
    kappa_first_order,
    kappa_general,
    lower_first_order,
    lower_general,
    relaxation_lower,
    seq2bound_multiset,
    ubl_implied_t,
    ubl_sums,
    upper_first_order,
    upper_general,
)
from .montecarlo import SimConfig, simulate_tv
from .verify import SUITE_NAMES, SuiteResult, run_suites

__all__ = [name for name in dir() if not name.startswith("_")]
