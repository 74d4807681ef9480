"""Placeholder for the removed batched Mipsy engine (DESIGN.md §10).

Kept only because ``bench/tracer.py`` still wraps the name below; it
goes with that wrapper.  Nothing in the package imports it.
"""


def profile_benchmarks_batched(tasks):
    """Removed: profile with the scalar Mipsy core instead."""
    raise NotImplementedError("the batched Mipsy engine was removed")
