"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ReproError):
    """Raised when litmus or mini-C source text cannot be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class LoweringError(ReproError):
    """Raised when a mini-C AST cannot be lowered to IR."""


class IRVerificationError(ReproError):
    """Raised when an IR module violates structural invariants."""


class ModelError(ReproError):
    """Raised when an MCM/LCM specification is malformed or misused."""


class AnalysisError(ReproError):
    """Raised when Clou cannot analyze a function."""

