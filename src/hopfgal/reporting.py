"""Immutable records, and the small verdict containers shared by the
verification routines.

Every record class of the package comes from :func:`record`, which
builds its methods as closures.  Generating them as source text and
compiling it, as the standard library's record helper does, costs about
a millisecond per class, and loading that helper loads `inspect` and
`ast`; a fresh CLI command would pay both before it reads its input.
"""

from __future__ import annotations

import operator


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def record(cls):
    """Make cls an immutable record of its annotated fields, in order.

    A class attribute named like a field is that field's default.  The
    constructor takes fields by position or keyword and then calls
    ``__post_init__`` when the class defines one.  Records are equal when
    they are of the same class with equal fields (so never equal to a
    tuple), hash as the tuple of their fields, and print as
    ``Name(field=value, ...)``.  There are no ``__slots__``, so
    `functools.cached_property` and ``__post_init__`` store attributes
    in the instance dictionary; they are not fields.
    """
    names = tuple(cls.__annotations__)
    fieldset = frozenset(names)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")
    get = operator.attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)
    setter = object.__setattr__

    def bind(args, kwargs):
        """The (field, value) pairs of a call with keywords or defaults."""
        given = dict(zip(names, args))
        if (len(args) > len(names) or not kwargs.keys() <= fieldset
                or not given.keys().isdisjoint(kwargs)):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, each at most once")
        values = {**defaults, **given, **kwargs}
        if len(values) < len(names):
            missing = [n for n in names if n not in values]
            raise TypeError(f"{cls.__name__}() is missing the fields {missing}")
        return values.items()

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            pairs = bind(args, kwargs)
        else:
            pairs = zip(names, args)
        # one setattr per field: writing through self.__dict__ would turn
        # the instance's inline attribute values into a dict, which makes
        # every later attribute read slower (on CPython 3.11 and 3.12)
        for name, value in pairs:
            setter(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to {name!r} of a {cls.__name__} record")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete {name!r} of a {cls.__name__} record")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


@record
class CheckResult:
    name: str
    passed: bool
    witness: tuple | None = None


@record
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return tuple(c for c in self.checks if not c.passed)
