"""Exception types shared across the package."""


class RecwalkError(Exception):
    """Base class for all library-specific failures."""


class NonIncreasingSequence(RecwalkError):
    """Generated sequence is not strictly increasing."""


class NonPositiveTerm(RecwalkError):
    """Generated sequence produced a zero or negative term."""


class NoPositiveCoefficient(RecwalkError):
    """s is undefined: no recurrence coefficient is positive."""


class WindowTooShort(RecwalkError):
    """Operation needs more sequence terms than the window holds."""


class StateSpaceTooLarge(RecwalkError):
    """G_n exceeds the configured dense state-space cap."""


class DegenerateStateSpace(RecwalkError):
    """N = 1: there is no nontrivial eigenvalue."""


class NotFirstOrder(RecwalkError):
    """Operation is defined only for the sequence G_n = c^(n-1)."""


class DomainError(RecwalkError):
    """A formula precondition was violated (pole, empty domain, bad range)."""


# The verification suites, in the order `verify --suite all` runs them;
# kept here so that the CLI can offer them without importing verify.
SUITE_NAMES = (
    "eigmod-bound",
    "angle-cover",
    "lifting",
    "multiset-domination",
    "ubl-consistency",
)


class UnknownSuite(RecwalkError):
    """Verification suite name not recognized (not one of SUITE_NAMES)."""


class InsideErrorBand(RecwalkError):
    """Past the int64 range of path counts, the float TV lies within its
    a-priori error band of epsilon, or will before the SLEM bounds the
    scan, so TV <= epsilon cannot be decided."""


class ScanTooLong(RecwalkError):
    """The mixing scan would need more curve rows than an artifact may
    hold: refused up front by a lower bound on t_mix, or stopped at the
    last row still undecided."""


class WorkTooLarge(RecwalkError):
    """A run would pass its work budget: refused before it starts."""
