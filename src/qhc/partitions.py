"""Ordered partitions of parameter sets into labeled subsets.

Every summation formula in this package runs over ordered partitions of one or
two bar-sets into subsets of prescribed cardinalities.  Enumeration is lazy and
lexicographic by index subsets, so sweeps are deterministic and replayable.
"""

from __future__ import annotations

import itertools
import math

__all__ = ["multinomial", "enumerate_partitions", "enumerate_two_set_partitions"]


def multinomial(signature):
    """Number of ordered partitions with the given part cardinalities."""
    n = sum(signature)
    out = 1
    for c in signature:
        out *= math.comb(n, c)
        n -= c
    return out


def enumerate_partitions(values, signature):
    """Yield all ordered partitions of ``values`` into parts of the given sizes.

    Each partition is a tuple of tuples; within each part the original order is
    preserved.  Yields exactly multinomial(signature) partitions, ordered
    lexicographically by the chosen index subsets.
    """
    values = tuple(values)
    signature = tuple(signature)
    if any(c < 0 for c in signature):
        raise ValueError("part cardinalities must be non-negative")
    if sum(signature) != len(values):
        raise ValueError(
            f"signature {signature} does not sum to set cardinality {len(values)}"
        )
    yield from _parts(values, signature)


def _parts(values, signature):
    if not signature:
        yield ()
        return
    head, rest_sig = signature[0], signature[1:]
    if not rest_sig:
        yield (values,)
        return
    n = len(values)
    for idx in itertools.combinations(range(n), head):
        chosen = tuple([values[i] for i in idx])
        remaining = tuple([values[i] for i in range(n) if i not in idx])
        if len(rest_sig) == 1:
            yield chosen, remaining
            continue
        for tail in _parts(remaining, rest_sig):
            yield (chosen,) + tail


def enumerate_two_set_partitions(values1, values2, signature1, signature2):
    """Cartesian product of two partition streams, deterministic order."""
    for p1 in enumerate_partitions(values1, signature1):
        for p2 in enumerate_partitions(values2, signature2):
            yield p1, p2
