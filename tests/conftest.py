"""Helpers shared by the test modules."""

from __future__ import annotations

import tracemalloc


def traced_memory(fn, *args, tolerate: tuple[type[BaseException], ...] = ()) -> tuple[int, int]:
    """(peak, kept): the peak bytes traced while fn(*args) runs, and the
    bytes still traced once it has returned and its result is dropped.  An
    exception of a type in tolerate ends the call like a return."""
    tracemalloc.start()
    try:
        try:
            fn(*args)
        except tolerate:
            pass
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, kept
