"""Splits of a parameter set into two labeled subsets.

Every summation formula in this package runs over splits of one set
``w̄ ⇒ {w̄_I, w̄_II}`` with a prescribed cardinality of ``w̄_I``; a double sum
is two nested splits.  Enumeration is lazy and lexicographic by the index
subset of the first part, so sweeps are deterministic and replayable.
"""

from __future__ import annotations

import itertools

__all__ = ["enumerate_partitions"]


def enumerate_partitions(values, k):
    """Yield every split ``(part_I, part_II)`` of ``values`` with ``#part_I = k``.

    Within each part the original order is preserved.  Yields exactly
    C(#values, k) splits, ordered lexicographically by the index subset of
    ``part_I``.
    """
    values = tuple(values)
    n = len(values)
    if not 0 <= k <= n:
        raise ValueError(f"part size {k} does not fit a set of cardinality {n}")
    for idx in itertools.combinations(range(n), k):
        yield (tuple([values[i] for i in idx]),
               tuple([values[i] for i in range(n) if i not in idx]))
