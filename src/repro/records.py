"""Slotted dataclasses that pickle as positional records.

An optimization artifact — an :class:`~repro.saturator.report.OptimizationResult`
with its :class:`~repro.saturator.report.KernelReport`\\ s, their
:class:`~repro.codegen.generator.KernelCodeStats` and the saturation
:class:`~repro.egraph.runner.RunnerReport` with its per-iteration and
per-rule rows — is pickled once and unpickled on every cache hit and for
every coalesced service follower, so its ``loads`` is the hot serving
path.  A plain dataclass unpickles as NEWOBJ plus a per-instance state dict
plus BUILD; a :func:`record` reduces to ``(cls, field values in declaration
order)`` — one REDUCE that calls the dataclass ``__init__`` — and keeps its
fields in slots, with no instance ``__dict__``.

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

from dataclasses import dataclass, field, fields
from typing import TypeVar, dataclass_transform

__all__ = ["record"]

_T = TypeVar("_T")


@dataclass_transform(field_specifiers=(field,))
def record(cls: type[_T]) -> type[_T]:
    """Make *cls* a slotted dataclass that pickles positionally."""

    cls = dataclass(slots=True)(cls)
    names = tuple(f.name for f in fields(cls))

    def __reduce__(self):
        # a list, not a generator: tuple() of a generator allocates a
        # guessed size and shrinks it, so every freed args tuple would
        # land on the free list of a size this path never allocates —
        # a pile that only a full collection empties
        return type(self), tuple([getattr(self, name) for name in names])

    cls.__reduce__ = __reduce__
    return cls
