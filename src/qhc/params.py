"""Bethe-parameter sets, q-power shifts, and the genericity sampler.

Parameter sets are plain tuples of exact rationals.  The sampler draws
pairwise-distinct positive rationals and a deformation parameter q such that
no denominator of any in-scope formula can vanish: all elements of the union
of q^k-multiples of the pool (k in {-4, -2, 0, 2, 4}) are pairwise distinct.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exactnum import Rat

__all__ = ["Config", "qshift", "sample_generic", "GenericityError"]

_QPOWERS = (-4, -2, 0, 2, 4)
_MAX_RETRIES = 200


class GenericityError(RuntimeError):
    """The sampler could not find a generic configuration."""


@dataclass(frozen=True)
class Config:
    """Sampler and evaluation configuration."""

    q: object = None  # fixed deformation parameter, or None to sample one
    seed: int = 0
    max_abs: int = 50

    def __post_init__(self):
        if self.q is not None and Rat(self.q) in (Rat(0), Rat(1), Rat(-1)):
            raise ValueError("q must not be 0, 1, or -1")


def qshift(values, k, q):
    """Multiply every element of a set by q^k, preserving order."""
    if k == 0:
        return tuple(values)
    factor = q ** k if k > 0 else (Rat(1) / q) ** (-k)
    return tuple(v * factor for v in values)


def is_generic(pool, q):
    """True if all q^k multiples (k even, |k| <= 4) of the pool are distinct."""
    if q in (Rat(0), Rat(1), Rat(-1)):
        return False
    seen = set()
    for k in _QPOWERS:
        for v in qshift(pool, k, q):
            if v in seen:
                return False
            seen.add(v)
    return True


def _draw_rat(rng, max_abs):
    num = rng.randint(1, max_abs)
    den = rng.randint(1, max_abs)
    return Rat(num, den)


def sample_generic(shape, cfg):
    """Sample parameter sets of the given cardinalities plus a generic q.

    Deterministic in (shape, cfg.seed).  Returns (sets, q) where sets is a
    tuple of tuples of pairwise-distinct positive rationals.
    """
    rng = random.Random((cfg.seed, tuple(shape)).__repr__())
    total = sum(shape)
    for _ in range(_MAX_RETRIES):
        pool = []
        seen = set()
        ok = True
        for _ in range(total):
            for _ in range(_MAX_RETRIES):
                v = _draw_rat(rng, cfg.max_abs)
                if v not in seen:
                    break
            else:
                ok = False
                break
            seen.add(v)
            pool.append(v)
        if not ok:
            continue
        if cfg.q is not None:
            q = Rat(cfg.q)
        else:
            q = _draw_rat(rng, cfg.max_abs)
            while q == 1:
                q = _draw_rat(rng, cfg.max_abs)
        if not is_generic(pool, q):
            continue
        sets = []
        pos = 0
        for c in shape:
            sets.append(tuple(pool[pos:pos + c]))
            pos += c
        return tuple(sets), q
    raise GenericityError(
        f"could not sample a generic configuration for shape {shape} "
        f"with max_abs={cfg.max_abs}"
    )
