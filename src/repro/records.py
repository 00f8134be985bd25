"""Frozen, slotted dataclasses that pickle as positional records.

An optimization artifact — an :class:`~repro.saturator.report.OptimizationResult`
with its :class:`~repro.saturator.report.KernelReport`\\ s, their
:class:`~repro.codegen.generator.KernelCodeStats` and the saturation
:class:`~repro.egraph.runner.RunnerReport` with its per-iteration and
per-rule rows — is an **immutable value**: every record is a frozen
dataclass, its sequence fields hold tuples and its mapping field a
:class:`FrozenDict`.  One artifact can therefore be handed to any number
of callers at once (every handle on a coalesced service job returns the
job's one result object) without a defensive copy: nobody can change what
another caller sees.  A producer builds each record once, from local
tallies, and a derived value is a :func:`dataclasses.replace` copy.

The cache stores an artifact as its pickle bytes and unpickles it on every
hit.  A plain dataclass unpickles as NEWOBJ plus a per-instance state dict
plus BUILD; a :func:`record` reduces to ``(cls._load, field values in
declaration order)`` — one REDUCE — and keeps its fields in slots, with no
instance ``__dict__``.  ``cls._load`` is the record's *loader*: a mutable
slotted twin of the class, with the same slots in the same layout, whose
generated ``__init__`` stores each value with a plain slot write and then
re-classes the finished instance as ``cls``.  A load therefore skips the
frozen ``__init__`` (one ``object.__setattr__`` per field) and
``__post_init__``: the values were already converted when the record was
built.  A :class:`FrozenDict` is one more REDUCE, of a plain dict.

Bytes in the older ``(cls, values)`` form still load, through the class:
its ``__init__`` runs, and ``__post_init__`` converts a field that holds
a list or a dict (an artifact pickled before the records were frozen, or
a caller that builds one from a list), so such an artifact still loads as
an immutable value.

Everything else about a dataclass stays: fields, defaults, ``==``,
``repr``, ``copy``/``deepcopy`` (both go through the same reduce), and
pickle's memo, so one record referenced twice inside an artifact is still
one object after a round trip.

**The field order is the pickle format.**  Adding, removing or reordering
a record's fields changes what the positional tuple of an existing pickle
means, so such a change must bump
:data:`repro.session.fingerprint.ENGINE_SCHEMA` — cached artifacts written
before it then miss instead of loading into the wrong fields
(``tests/session/test_record_pickle.py`` pins every record's field names).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import TypeVar, dataclass_transform

__all__ = ["FrozenDict", "record"]

_T = TypeVar("_T")


@dataclass_transform(frozen_default=True, field_specifiers=(field,))
def record(cls: type[_T]) -> type[_T]:
    """Make *cls* a frozen slotted dataclass that pickles positionally."""

    cls = dataclass(slots=True, frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))
    load = cls._load = _loader(cls, names)

    def __reduce__(self):
        # a list, not a generator: tuple() of a generator allocates a
        # guessed size and shrinks it, so every freed args tuple would
        # land on the free list of a size this path never allocates —
        # a pile that only a full collection empties
        return load, tuple([getattr(self, name) for name in names])

    cls.__reduce__ = __reduce__
    return cls


def _loader(cls: type, names: tuple) -> type:
    """The mutable twin of record class *cls* that pickle calls on load.

    Same slot names, so the same instance layout, which is what lets its
    ``__post_init__`` assign ``__class__``: the instance it built with
    plain slot writes becomes a *cls* instance, frozen from then on.
    Pickled by reference as ``cls._load``.
    """

    def __post_init__(self) -> None:
        self.__class__ = cls

    twin = type(
        cls.__name__, (),
        {"__annotations__": dict.fromkeys(names, object),
         "__post_init__": __post_init__},
    )
    twin = dataclass(slots=True, eq=False, repr=False)(twin)
    twin.__qualname__ = f"{cls.__qualname__}._load"
    twin.__module__ = cls.__module__
    return twin


class FrozenDict(Mapping):
    """A read-only mapping: ``[key]``, ``in``, ``len``, ``keys()``,
    ``items()``, ``values()`` and ``==`` (against any mapping) work, item
    assignment raises ``TypeError``.

    It keeps a private copy of the items it was built from and pickles as
    one REDUCE of a plain dict.
    """

    __slots__ = ("_items",)

    def __init__(self, items=()) -> None:
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"FrozenDict({self._items!r})"

    def __reduce__(self):
        return FrozenDict, (dict(self._items),)
