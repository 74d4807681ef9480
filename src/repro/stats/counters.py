"""Hardware event counters.

Every simulated unit records its port activity into an
:class:`AccessCounters` instance.  The power post-processor later turns
these counts into energy via the analytical models — mirroring the
SoftWatt architecture, where the simulators are instrumented to count
accesses and power is computed from the logs after the fact.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as _np

#: Every counted event, one per port-class of a modelled unit.
COUNTER_FIELDS: tuple[str, ...] = (
    # Memory hierarchy
    "l1i_access",
    "l1i_miss",
    "l1d_access",
    "l1d_miss",
    "l2i_access",
    "l2d_access",
    "l2_miss",
    "mem_access",
    "tlb_access",
    "tlb_miss",
    # Out-of-order engine arrays
    "regfile_read",
    "regfile_write",
    "window_dispatch",
    "window_issue",
    "window_wakeup",
    "lsq_access",
    "rename_access",
    "rob_access",
    # Predictors
    "bpred_access",
    "btb_access",
    "ras_access",
    # Execution
    "ialu_access",
    "imul_access",
    "falu_access",
    "fmul_access",
    "resultbus_access",
    # Pipeline events (used for clock gating and reporting)
    "fetch_cycles",
    "active_cycles",
    "branches",
    "branch_mispredicts",
    "loads",
    "stores",
)

_FIELD_SET = frozenset(COUNTER_FIELDS)

COUNTER_INDEX: dict[str, int] = {
    name: index for index, name in enumerate(COUNTER_FIELDS)
}
"""Position of each counter in the fixed-order vector layout.

The vectorized timeline (:func:`counters_to_vector` /
:func:`counters_from_vector`) lay an :class:`AccessCounters` out as a
float64 vector in :data:`COUNTER_FIELDS` declaration order; this index
is the single definition of that layout (documented in DESIGN.md §9).
"""

_ROW_GETTER = operator.attrgetter(*COUNTER_FIELDS)


class UnknownCounterError(KeyError, AttributeError):
    """A counter name that is not one of :data:`COUNTER_FIELDS`.

    Subclasses both ``KeyError`` (mapping-style access) and
    ``AttributeError`` (attribute-style access) so either idiom can
    catch it; the message always names the offender and the valid set
    instead of silently reading 0.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


def _unknown_counter(name: str, context: str = "") -> UnknownCounterError:
    where = f" {context}" if context else ""
    return UnknownCounterError(
        f"unknown counter {name!r}{where}; valid counters: "
        f"{', '.join(COUNTER_FIELDS)}"
    )


class AccessCounters:
    """A bundle of monotonically-increasing event counts."""

    __slots__ = COUNTER_FIELDS

    def __init__(self, **initial: int) -> None:
        for field in COUNTER_FIELDS:
            setattr(self, field, 0)
        for name, value in initial.items():
            if name not in _FIELD_SET:
                raise _unknown_counter(name)
            if value < 0:
                raise ValueError(f"counter {name} cannot be negative")
            setattr(self, name, value)

    def add(self, other: "AccessCounters") -> None:
        """Accumulate ``other`` into this instance."""
        for field in COUNTER_FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))

    def copy(self) -> "AccessCounters":
        """Return an independent copy."""
        clone = AccessCounters()
        for field in COUNTER_FIELDS:
            setattr(clone, field, getattr(self, field))
        return clone

    def delta(self, earlier: "AccessCounters") -> "AccessCounters":
        """Return ``self - earlier`` (for interval sampling)."""
        diff = AccessCounters()
        for field in COUNTER_FIELDS:
            value = getattr(self, field) - getattr(earlier, field)
            if value < 0:
                raise ValueError(f"counter {field} went backwards")
            setattr(diff, field, value)
        return diff

    def get(self, name: str) -> int:
        """Counter value by name.

        Unlike ``as_dict().get(name, 0)``, an unknown name raises
        :class:`UnknownCounterError` instead of silently reading 0.
        """
        if name not in _FIELD_SET:
            raise _unknown_counter(name)
        return getattr(self, name)

    __getitem__ = get

    def as_dict(self) -> dict[str, int]:
        """A plain-dict snapshot (for logs and reports)."""
        return {field: getattr(self, field) for field in COUNTER_FIELDS}

    def items(self) -> Iterator[tuple[str, int]]:
        """Iterate (name, value) pairs."""
        for field in COUNTER_FIELDS:
            yield field, getattr(self, field)

    def total_events(self) -> int:
        """Sum of all counters (a quick sanity signal for tests)."""
        return sum(getattr(self, field) for field in COUNTER_FIELDS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessCounters):
            return NotImplemented
        return all(
            getattr(self, field) == getattr(other, field) for field in COUNTER_FIELDS
        )

    def __repr__(self) -> str:
        nonzero = {name: value for name, value in self.items() if value}
        return f"AccessCounters({nonzero!r})"


def counters_row(counters: AccessCounters) -> tuple:
    """All counter values as a tuple in :data:`COUNTER_INDEX` order.

    The pure-Python sibling of :func:`counters_to_vector`: one C-level
    ``attrgetter`` call instead of a per-field Python loop, returning
    the values unchanged (no float64 conversion).  Exporters use this
    to build per-record counter rows on the fixed vector layout.
    """
    return _ROW_GETTER(counters)


def counters_to_vector(counters: AccessCounters):
    """The counters as a float64 vector in :data:`COUNTER_FIELDS` order.

    Counter values are IEEE-754 doubles either way (Python floats and
    int counts below 2**53 convert exactly), so arithmetic on the
    vector is bit-identical to per-field arithmetic on the instance.
    """
    return _np.array(_ROW_GETTER(counters), dtype=_np.float64)


def counters_from_vector(vector) -> AccessCounters:
    """Rebuild an :class:`AccessCounters` from a fixed-order vector.

    Values become Python floats (an exact conversion from float64), so
    downstream consumers see the same numbers the per-field path
    produces.
    """
    counters = AccessCounters()
    if len(vector) != len(COUNTER_FIELDS):
        raise ValueError(
            f"vector has {len(vector)} entries for "
            f"{len(COUNTER_FIELDS)} counters"
        )
    for field, value in zip(COUNTER_FIELDS, vector):
        setattr(counters, field, float(value))
    return counters


def rates_per_cycle(counters: AccessCounters, cycles: int) -> dict[str, float]:
    """Convert counts to per-cycle rates over ``cycles`` cycles."""
    if cycles <= 0:
        raise ValueError(f"cycles must be positive, got {cycles}")
    return {name: value / cycles for name, value in counters.items()}
