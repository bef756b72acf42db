"""Exception hierarchy shared by all modules."""


class MahlerError(Exception):
    pass


class DivisionByZero(MahlerError, ZeroDivisionError):
    pass


class PoleAtEvaluationPoint(MahlerError):
    """A rational function evaluated where its denominator vanishes; index
    is the position of the first such function in the evaluated list."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ZeroSeries(MahlerError):
    pass


class ZeroDivisor(MahlerError):
    pass


class UnknownLeadingTerm(MahlerError):
    pass


class NonRationalExponent(MahlerError):
    pass


class PlanMismatch(MahlerError):
    pass


class VerificationError(MahlerError):
    pass


class InsufficientPrecision(MahlerError):
    """Valid input whose ceiling is too low to certify a needed leading term."""


class ParseError(MahlerError):
    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return "line %d, col %d: %s" % (self.line, self.col, base)
        return base


class NonRationalExponentLiteral(ParseError):
    pass
