"""One shared implementation of the package's record classes.

``@dataclass`` compiles each class's ``__init__``, ``__repr__``, ``__eq__``,
``__hash__`` and frozen ``__setattr__``/``__delattr__`` from source with
``exec`` at import: for the package's 14 records, 81 calls and most of the
import time from cached bytecode.  :func:`record` keeps ``dataclass`` for
the field table, so ``dataclasses.fields`` and ``dataclasses.replace``,
defaults, ``default_factory`` and ``__post_init__`` work as with
``@dataclass``, and attaches the methods below, compiled once with this
module and shared by every record.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, FrozenInstanceError
from typing import NoReturn


def _init(self, *args, **kwargs):
    """Positional and keyword arguments merged into one dict, then defaults."""
    names, fieldset, defaults, factories, post_init = self.__record__
    values = kwargs
    if args:
        values = dict(zip(names, args))
        values.update(kwargs)
        if len(values) != len(args) + len(kwargs):
            _bad_call(self, args, kwargs)
    if defaults:
        values = {**defaults, **values}
    if factories:
        for name, factory in factories.items():
            if name not in values:
                values[name] = factory()
    if values.keys() != fieldset:
        _bad_call(self, args, kwargs)
    self.__dict__.update(values)
    if post_init is not None:
        post_init(self)


def _bad_call(self, args, kwargs) -> NoReturn:
    """Raise the TypeError that ``__init__(self, *args, **kwargs)`` raises."""
    names, fieldset, defaults, factories, _ = self.__record__
    where = f"{type(self).__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{where} takes {len(names) + 1} positional arguments "
                        f"but {len(args) + 1} were given")
    for name in kwargs:
        if name not in fieldset:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name in names[:len(args)]:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
    missing = [name for name in names[len(args):] if name not in kwargs
               and name not in defaults and name not in factories]
    raise TypeError(f"{where} missing {len(missing)} required argument(s): "
                    + ", ".join(map(repr, missing)))


def _values(self):
    return tuple([getattr(self, name) for name in self.__record__[0]])


def _repr(self):
    return (f"{type(self).__qualname__}("
            + ", ".join([f"{name}={getattr(self, name)!r}"
                         for name in self.__record__[0]]) + ")")


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self):
    return hash(_values(self))


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, frozen=True):
    """Class decorator: a dataclass whose methods are the shared ones above.

    Frozen by default, as ``dataclass(frozen=True)``: setting or deleting an
    attribute raises ``FrozenInstanceError`` (``functools.cached_property``
    writes the instance ``__dict__`` and still works), and instances hash
    by their field values.  ``record(frozen=False)`` leaves instances
    mutable and unhashable, as ``dataclass()``.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    cls = dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    cls.__record__ = (
        names, frozenset(names),
        {f.name: f.default for f in fields if f.default is not MISSING},
        {f.name: f.default_factory for f in fields
         if f.default_factory is not MISSING},
        getattr(cls, "__post_init__", None),
    )
    cls.__init__ = _init
    cls.__repr__ = _repr
    cls.__eq__ = _eq
    if frozen:
        cls.__hash__ = _hash
        cls.__setattr__ = _setattr
        cls.__delattr__ = _delattr
    else:
        cls.__hash__ = None
    return cls
