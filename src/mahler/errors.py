"""Exception hierarchy and the immutable record base shared by all modules."""


class Record:
    """Immutable record whose fields are its class's `__slots__`, with the
    contract of a frozen dataclass: fields given by position or keyword
    (a missing, extra or unknown one is a TypeError), equality field by
    field with a record of the same class only, a hash of the fields, a
    `Name(field=value, ...)` repr, and no attribute assignment or deletion
    (AttributeError).  Copies and pickles are rebuilt through the
    constructor."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _bind(self, args, kwargs):
        """The field values, in slot order, of a call given keywords or not
        exactly one positional value per field."""
        names, kind = self.__slots__, type(self).__name__
        if len(args) > len(names):
            raise TypeError("%s() takes %d field(s) but %d were given"
                            % (kind, len(names), len(args)))
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError("%s() got an unexpected field %r" % (kind, name))
            if name in values:
                raise TypeError("%s() got field %r twice" % (kind, name))
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError("%s() is missing field(s) %s"
                            % (kind, ", ".join(repr(name) for name in missing)))
        return [values[name] for name in names]

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of an immutable %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of an immutable %s"
                             % (name, type(self).__name__))

    def __reduce__(self):
        return type(self), self._fields()


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
