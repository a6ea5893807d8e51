"""Worker count of plan execution.

Every plan runs serially on the calling thread; :func:`workers` reports
that count for the server's ``status`` payload and for the benchmark
report in ``perfbench/``.
"""

from __future__ import annotations


def workers() -> int:
    """The number of threads one statement executes on: always 1."""
    return 1


__all__ = ["workers"]
