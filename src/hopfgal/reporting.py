"""Immutable records, and the small verdict containers shared by the
verification routines.

Every record class of the package comes from :func:`record`, which
builds its methods as closures.  Generating them as source text and
compiling it, as the standard library's record helper does, costs about
a millisecond per class, and loading that helper loads `inspect` and
`ast`; a fresh CLI command would pay both before it reads its input.

A field that a class names in ``lazy_fields`` may be given as a
:class:`lazy` value, built on its first read (see :func:`record`).
"""

from __future__ import annotations

import operator


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


class lazy:
    """A record field's value that ``build()``, a call without arguments,
    makes on the field's first read."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build


class _LazyField:
    """The class attribute of a lazy field, run by a read that finds the
    field missing from the instance: it builds the value and stores it
    there.  It is not a data descriptor, so every later read finds the
    stored value first, as a plain attribute."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj._pending[self.name]()
        object.__setattr__(obj, self.name, value)
        del obj._pending[self.name]
        return value


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

    The fields named in the class attribute ``lazy_fields`` may be given
    as :class:`lazy` values.  Such a field is missing from the instance
    until it is first read, which builds it and stores it as a plain
    attribute (see `_LazyField`), so every later read is a normal one.
    ``==``, the hash and the repr read every field, so they build the
    missing ones.  A class ``__getattr__`` would do the same, but on
    CPython 3.11 it keeps every attribute read of the class from being
    specialized, where a descriptor slows only reads of its own field.
    """
    names = tuple(cls.__annotations__)
    lazy_names = frozenset(cls.__dict__.get("lazy_fields", ()))
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

    def defer(self, pairs):
        """The pairs of the fields given as values, once the builds of
        those given as `lazy` are stored in ``_pending``."""
        pairs = list(pairs)
        pending = {name: value.build for name, value in pairs if value.__class__ is lazy}
        if not pending:
            return pairs
        if not pending.keys() <= lazy_names:
            raise TypeError(f"{cls.__name__}() takes only {sorted(lazy_names)} as lazy")
        setter(self, "_pending", pending)
        return [(name, value) for name, value in pairs if name not in pending]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            pairs = bind(args, kwargs)
        else:
            pairs = zip(names, args)
        # only a class with lazy fields looks for lazy values: a test per
        # field would slow the construction of every record
        if lazy_names:
            pairs = defer(self, pairs)
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
    for name in lazy_names:
        setattr(cls, name, _LazyField(name))
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
