"""Bethe-parameter sets and the genericity sampler.

Parameter sets are plain tuples of exact rationals.  The sampler draws
pairwise-distinct positive rationals and a deformation parameter q such that
no denominator of any in-scope formula can vanish: all elements of the union
of q^k-multiples of the pool (k in {-4, -2, 0, 2, 4}) are pairwise distinct.
"""

from __future__ import annotations

import random

from .exactnum import Rat

__all__ = ["MAX_ABS", "sample_generic", "GenericityError"]

_QPOWERS = (-4, -2, 0, 2, 4)
_MAX_RETRIES = 200

# Numerators, denominators and q are drawn from 1..MAX_ABS.
MAX_ABS = 50


class GenericityError(RuntimeError):
    """The sampler could not find a generic configuration."""


def is_generic(pool, q):
    """True if all q^k multiples (k even, |k| <= 4) of the pool are distinct."""
    if q in (Rat(0), Rat(1), Rat(-1)):
        return False
    factors = [q ** k for k in _QPOWERS]
    shifted = [v * factor for factor in factors for v in pool]
    return len(set(shifted)) == len(shifted)


def _draw_rat(rng):
    num = rng.randint(1, MAX_ABS)
    den = rng.randint(1, MAX_ABS)
    return Rat(num, den)


def sample_generic(shape, seed, q=None):
    """Sample parameter sets of the given cardinalities plus a generic q.

    Deterministic in (shape, seed).  A given ``q`` is kept, otherwise one is
    sampled.  Returns (sets, q) where sets is a tuple of tuples of
    pairwise-distinct positive rationals.
    """
    rng = random.Random((seed, tuple(shape)).__repr__())
    total = sum(shape)
    for _ in range(_MAX_RETRIES):
        pool = []
        seen = set()
        ok = True
        for _ in range(total):
            for _ in range(_MAX_RETRIES):
                v = _draw_rat(rng)
                if v not in seen:
                    break
            else:
                ok = False
                break
            seen.add(v)
            pool.append(v)
        if not ok:
            continue
        if q is None:
            point_q = _draw_rat(rng)
            while point_q == 1:
                point_q = _draw_rat(rng)
        else:
            point_q = Rat(q)
        if not is_generic(pool, point_q):
            continue
        sets = []
        pos = 0
        for c in shape:
            sets.append(tuple(pool[pos:pos + c]))
            pos += c
        return tuple(sets), point_q
    raise GenericityError(
        f"could not sample a generic configuration for shape {shape} "
        f"with max_abs={MAX_ABS}"
    )
