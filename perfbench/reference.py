"""A fixed reference computation that measures the host's current speed.

The benchmark's host is a few vCPUs of a shared machine whose speed swings
by up to twice within seconds and drifts over minutes, and pure-Python code
slows down with it.  The untraced loop therefore interleaves this fixed
computation with the tasks, and the end-to-end task times are reported as
multiples of its mean time over the same run (unit ``ref``).  The two move
together with the host, while a change to the package moves only the tasks.

The computation uses only the standard library and does the kind of work the
package does (exact rational arithmetic, dicts keyed by word tuples, sorting),
so that it slows down in step with the package.  It must never import
``ncomplex``: a change to the package must not change the yardstick.
"""

from __future__ import annotations

from fractions import Fraction


def reference_work() -> tuple[Fraction, int]:
    """About 2-4 ms of Fraction, dict and sort work; same result every call."""
    rows: dict[tuple[int, int, int], Fraction | int] = {}
    acc = Fraction(0)
    for i in range(1, 400):
        key = (i % 7, i % 11, i % 13)
        c = Fraction(i % 5 + 1, i % 3 + 1)
        rows[key] = rows.get(key, 0) + c
        acc += c * rows[key]
    words = sorted(rows, key=lambda k: (k[2], k[0]))
    return acc, len(words)
