"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """An integrator or root finder failed to produce a trustworthy result."""


class BracketError(NumericalError, ValueError):
    """A root search was handed a bracket it cannot search: no sign change at
    its ends, or a NaN value.  A ValueError too, as ``brentq`` raises."""


class SolverDisagreement(NumericalError):
    """The analytic and variational conjugate-time estimates differ too much.

    Carries both estimates so callers can report them.
    """

    def __init__(self, t_analytic, t_variational, tol):
        self.t_analytic = t_analytic
        self.t_variational = t_variational
        self.tol = tol
        super().__init__(
            f"conjugate-time methods disagree: analytic={t_analytic!r} "
            f"variational={t_variational!r} (tolerance {tol:g})"
        )


class StratumError(ValueError):
    """Operation applied to a covector outside its admissible strata."""
