"""Immutable records, built without generated code.

``record`` makes a class whose body annotates its fields, in the form
``dataclasses.dataclass(frozen=True)`` reads, an immutable value record.
``dataclasses`` compiles generated source for every method of every class
it decorates, about 1 ms a class at import; these methods are shared
closures over the field names, so importing the package compiles nothing.
"""

from __future__ import annotations

from typing import Any, Optional


def record(cls: Optional[type] = None, *, eq: bool = True):
    """Class decorator: the annotated names of the class body, in order,
    are the record's fields, and a class attribute of the same name is a
    field's default.

    The class gets an ``__init__`` taking the fields by position or by
    keyword, which raises ``TypeError`` on a missing or unknown argument
    and then calls ``__post_init__`` if the class has one; a ``repr``
    ``Name(field=value, ...)``; and, with ``eq`` true, field-wise ``==``
    and ``hash`` between records of the same class (``eq=False`` keeps
    identity). Assigning or deleting an attribute raises
    ``AttributeError``; a ``__post_init__`` may still normalize a field
    with ``object.__setattr__``, and ``functools.cached_property`` works.
    The class's ``_fields`` is the tuple of its field names.
    """
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    name = cls.__qualname__
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {field: cls.__dict__[field] for field in fields if field in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        positional = dict(zip(fields, args))
        for key in kwargs:
            if key in positional:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        values = {**defaults, **positional, **kwargs}
        missing = [field for field in fields if field not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
        self.__dict__.update({field: values[field] for field in fields})
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return f"{name}({', '.join(f'{field}={getattr(self, field)!r}' for field in fields)})"

    cls._fields = fields
    cls.__init__ = __init__
    cls.__repr__ = __repr__
    cls.__setattr__ = _no_assignment
    cls.__delattr__ = _no_deletion
    if eq:
        cls.__eq__ = _fieldwise_eq
        cls.__hash__ = _fieldwise_hash
    return cls


def replace(obj: Any, /, **changes: Any) -> Any:
    """A new record of ``obj``'s class with ``obj``'s fields, except those
    ``changes`` names, built through ``__init__``, so it is validated again."""
    return type(obj)(**{**{field: getattr(obj, field) for field in obj._fields}, **changes})


def _values(obj: Any) -> tuple:
    return tuple(getattr(obj, field) for field in obj._fields)


def _fieldwise_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _fieldwise_hash(self):
    return hash(_values(self))


def _no_assignment(self, name, value):
    raise AttributeError(f"cannot assign to {name!r}: {type(self).__qualname__} is immutable")


def _no_deletion(self, name):
    raise AttributeError(f"cannot delete {name!r}: {type(self).__qualname__} is immutable")
