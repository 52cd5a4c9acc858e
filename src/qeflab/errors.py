"""Exception taxonomy shared across the package.

Every error carries a short machine-readable ``code`` and the process
exit code the CLI maps it to: 2 for input/configuration problems,
a malformed command line (``UsageError``) among them, 3 for numeric
pipeline failures.  Statistical validation mismatches (exit 4)
are not exceptions; the validate command decides those from results.
"""

from __future__ import annotations


class QeflabError(Exception):
    """Base class for all package errors."""

    code = "Error"
    exit_code = 3

    def payload(self) -> dict:
        """Machine-readable form used by the CLI for stderr reports."""
        return {"error": self.code, "message": str(self)}


class InputError(QeflabError):
    """Invalid user-supplied data (config file or direct API input)."""

    exit_code = 2


class SchemaViolation(InputError):
    code = "SchemaViolation"


class UsageError(InputError):
    """A malformed command line: the CLI's grammar, not the config, is at fault."""

    code = "UsageError"


class NotAntisymmetric(InputError):
    code = "NotAntisymmetric"


class SingularTheta(InputError):
    code = "SingularTheta"


class NonFinite(InputError):
    code = "NonFinite"


class NonpositiveOmega(InputError):
    code = "NonpositiveOmega"


class GridMismatch(InputError):
    code = "GridMismatch"


class InvalidParameter(InputError):
    code = "InvalidParameter"


class NotHurwitz(QeflabError):
    code = "NotHurwitz"


class LyapunovSolveFailed(QeflabError):
    code = "LyapunovSolveFailed"


class DeterminantIdentityViolated(QeflabError):
    code = "DeterminantIdentityViolated"


class NoRootsFound(QeflabError):
    code = "NoRootsFound"


class RefinementStalled(QeflabError):
    code = "RefinementStalled"


class IllConditionedSplit(QeflabError):
    code = "IllConditionedSplit"


class RankCollapse(QeflabError):
    code = "RankCollapse"


class CaptureUnreachable(QeflabError):
    code = "CaptureUnreachable"


class StateUnavailable(QeflabError):
    code = "StateUnavailable"


class SupercriticalTheta(QeflabError):
    code = "SupercriticalTheta"


class OverflowDominated(QeflabError):
    code = "OverflowDominated"


class CovarianceNotPSD(QeflabError):
    code = "CovarianceNotPSD"
