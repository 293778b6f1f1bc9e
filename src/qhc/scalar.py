"""Scalar-product assembly as a multilinear polynomial in vacuum-ratio symbols.

The scalar product S_{a,b} is a sum over four simultaneous set partitions; the
coefficient of each monomial in the formal symbols r1(u), r3(v) is a rational
number built from f-products and a product of one left and one right highest
coefficient.  `w_part` computes every coefficient of one block of splits
(#uC_I = #uB_I = k, #vC_I = #vB_I = n) from grids of Z, each coefficient one
integer fraction.  Symbols are tracked per parameter (set tag + position), so
coefficient extraction is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .exactnum import PoleError, Rat, scalar_format
from .highest import _ws_cells
from .partitions import enumerate_partitions

__all__ = [
    "RationalFunctionSpec",
    "w_part",
    "scalar_product_symbolic",
    "extract_coefficient",
    "scalar_product_numeric",
    "monomial",
    "format_monomial",
]


@dataclass(frozen=True)
class RationalFunctionSpec:
    """A rational function given by numerator/denominator coefficient lists.

    Coefficients are ordered from the constant term up.
    """

    num: tuple
    den: tuple = (Rat(1),)

    def __post_init__(self):
        num = tuple(Rat(c) for c in self.num)
        den = tuple(Rat(c) for c in self.den)
        if not den or all(c == 0 for c in den):
            raise ValueError("denominator must not be identically zero")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def parse(cls, text):
        """Parse ``num:a0,a1,...;den:b0,b1,...`` (den part optional).

        Each section is given at most once; any other section is an error.
        """
        from .exactnum import scalar_parse

        parts = {}
        for chunk in text.split(";"):
            if not chunk.strip():
                continue
            name, colon, body = chunk.partition(":")
            name = name.strip()
            if not colon:
                raise ValueError(f"section {name!r} has no ':' in {text!r}")
            if name not in ("num", "den"):
                raise ValueError(f"unknown section {name!r} in {text!r} (expected num or den)")
            if name in parts:
                raise ValueError(f"repeated section {name!r} in {text!r}")
            parts[name] = body
        if "num" not in parts:
            raise ValueError(f"missing num section in {text!r}")

        def coeffs(section):
            return tuple(scalar_parse(c) for c in section.split(",") if c.strip())

        num = coeffs(parts["num"])
        den = coeffs(parts["den"]) if "den" in parts else (Rat(1),)
        return cls(num, den)

    def __call__(self, u):
        def horner(cs):
            acc = Rat(0)
            for c in reversed(cs):
                acc = acc * u + c
            return acc

        d = horner(self.den)
        if d == 0:
            raise PoleError(f"denominator vanishes at {scalar_format(u)}")
        return horner(self.num) / d


def monomial(r1_symbols=(), r3_symbols=()):
    """Build a monomial key from (tag, index) symbol pairs.

    Tags are "uC"/"uB" for r1 symbols and "vC"/"vB" for r3 symbols; indices
    are 0-based positions within the tagged set.
    """
    syms = []
    for tag, i in r1_symbols:
        if tag not in ("uC", "uB"):
            raise ValueError(f"bad r1 tag {tag!r}")
        syms.append(("r1", tag, i))
    for tag, i in r3_symbols:
        if tag not in ("vC", "vB"):
            raise ValueError(f"bad r3 tag {tag!r}")
        syms.append(("r3", tag, i))
    return frozenset(syms)


def format_monomial(mono):
    if not mono:
        return "1"
    return " ".join(
        f"{kind}[{tag}{i + 1}]" for kind, tag, i in sorted(mono)
    )


def w_part(kern, uC_splits, uB_splits, vC_splits, vB_splits):
    """The coefficients of every four-way split of one (k, n) block.

    Each split is a pair (part_I, part_II) of tuples; every uC_I and uB_I
    has one size k and every uC_II and uB_II one size, and every vC_I and
    vB_I one size n and every vC_II and vB_II one size.  The result lists
    the coefficient of each split (uC, uB, vC, vB) of
    ``itertools.product(uC_splits, uB_splits, vC_splits, vB_splits)``, in
    that order:

        f(uB_II, uB_I) f(uC_I, uC_II) f(vB_I, vB_II) f(vC_II, vC_I)
        f(vC_I, uC_I) f(vB_II, uB_II)
        Z^(l)(uC_II; uB_II | vC_I; vB_I) Z^(r)(uB_I; uC_I | vB_II; vC_II)

    Z^(l) comes from one integer grid of the ws sum (`_ws_cells`, the sum
    `hc` divides for rep "ws") per (uB, vC) split pair, over every uC_II
    and vB_I, and Z^(r) from one per (uC, vB) split pair, over every uB_I
    and vC_II.  Each f-product is formed once, and each coefficient is
    one ``Rat`` of the integer numerators and denominators of its six
    f-products and its two grid cells, so every value must be rational.
    """
    if any(len({len(split[part]) for split in one + two}) > 1
           for one, two in ((uC_splits, uB_splits), (vC_splits, vB_splits))
           for part in (0, 1)):
        raise ValueError("linked partition cardinalities must match")
    if not kern.rational([v for splits in (uC_splits, uB_splits, vC_splits, vB_splits)
                          for one, two in splits for v in one + two]):
        raise TypeError("w_part needs rational values")
    if not (uC_splits and uB_splits and vC_splits and vB_splits):
        return []
    fprod = kern.fprod

    def fractions(values):
        return [(value.numerator, value.denominator) for value in values]

    uC_fs = fractions(fprod(uC1, uC2) for uC1, uC2 in uC_splits)
    uB_fs = fractions(fprod(uB2, uB1) for uB1, uB2 in uB_splits)
    vC_fs = fractions(fprod(vC2, vC1) for vC1, vC2 in vC_splits)
    vB_fs = fractions(fprod(vB1, vB2) for vB1, vB2 in vB_splits)
    vCuC_fs = [fractions(fprod(vC1, uC1) for vC1, _ in vC_splits) for uC1, _ in uC_splits]
    vBuB_fs = [fractions(fprod(vB2, uB2) for _, vB2 in vB_splits) for _, uB2 in uB_splits]
    uC2s = [uC2 for _, uC2 in uC_splits]
    uB1s = [uB1 for uB1, _ in uB_splits]
    vB1s = [vB1 for vB1, _ in vB_splits]
    vC2s = [vC2 for _, vC2 in vC_splits]
    zls = [[_ws_cells(kern, "l", uC2s, uB2, vC1, vB1s) for vC1, _ in vC_splits]
           for _, uB2 in uB_splits]   # zls[j][k][i][l]
    zrs = [[_ws_cells(kern, "r", uB1s, uC1, vB2, vC2s) for _, vB2 in vB_splits]
           for uC1, _ in uC_splits]   # zrs[i][l][j][k]
    out = []
    for i, (uC_n, uC_d) in enumerate(uC_fs):
        zr_i, vCuC_i = zrs[i], vCuC_fs[i]
        for j, (uB_n, uB_d) in enumerate(uB_fs):
            zl_j, vBuB_j = zls[j], vBuB_fs[j]
            for k, (vC_n, vC_d) in enumerate(vC_fs):
                vCuC_n, vCuC_d = vCuC_i[k]
                cn = uC_n * uB_n * vC_n * vCuC_n
                cd = uC_d * uB_d * vC_d * vCuC_d
                zl = zl_j[k][i]
                for l, (vB_n, vB_d) in enumerate(vB_fs):
                    vBuB_n, vBuB_d = vBuB_j[l]
                    (z1_n, z1_d), (z2_n, z2_d) = zl[l], zr_i[l][j][k]
                    out.append(Rat(cn * vB_n * vBuB_n * z1_n * z2_n,
                                   cd * vB_d * vBuB_d * z1_d * z2_d))
    return out


def _splits(tag, vals, k):
    """Each split of ``vals`` into (part_I, part_II) with #part_I = k.

    Listed as ``(symbols_I, symbols_II, (part_I, part_II))`` in the order of
    `enumerate_partitions` over positions; a symbol is ``(tag, position)``.
    """
    return [([(tag, i) for i in one], [(tag, i) for i in two],
             (tuple(vals[i] for i in one), tuple(vals[i] for i in two)))
            for one, two in enumerate_partitions(range(len(vals)), k)]


def scalar_product_symbolic(kern, uC, vC, uB, vB):
    """S_{a,b} as a map monomial -> exact coefficient.

    S sums the `w_part` coefficient of every four-way split, times
    1/f(vC, uC) f(vB, uB), under the monomial r1(uC_II, uB_I) r3(vC_II, vB_I),
    with one `w_part` call per block of splits with #uC_I = k and #vC_I = n.
    That monomial determines the split, so no two splits share one; a split
    whose coefficient is zero is left out.
    """
    uC, vC, uB, vB = map(tuple, (uC, vC, uB, vB))
    a, b = len(uC), len(vC)
    if len(uB) != a or len(vB) != b:
        raise ValueError("cardinality mismatch between C and B sets")
    inv_f = Rat(1) / (kern.fprod(vC, uC) * kern.fprod(vB, uB))
    poly = {}
    for k in range(a + 1):
        uCs, uBs = _splits("uC", uC, k), _splits("uB", uB, k)
        for n in range(b + 1):
            vCs, vBs = _splits("vC", vC, n), _splits("vB", vB, n)
            coeffs = w_part(kern, *([split for _, _, split in splits]
                                    for splits in (uCs, uBs, vCs, vBs)))
            for split, coeff in zip(product(uCs, uBs, vCs, vBs), coeffs):
                if coeff != 0:
                    (_, uC_syms, _), (uB_syms, _, _), (_, vC_syms, _), (vB_syms, _, _) = split
                    poly[monomial(uC_syms + uB_syms, vC_syms + vB_syms)] = coeff * inv_f
    return poly


def extract_coefficient(poly, mono):
    """Coefficient of a monomial, 0 if absent."""
    return poly.get(frozenset(mono), Rat(0))


def scalar_product_numeric(kern, uC, vC, uB, vB, r1, r3):
    """Substitute numeric r1, r3 into the symbolic expansion and sum."""
    sets = {"uC": tuple(uC), "uB": tuple(uB), "vC": tuple(vC), "vB": tuple(vB)}
    poly = scalar_product_symbolic(kern, uC, vC, uB, vB)
    total = Rat(0)
    for mono, coeff in poly.items():
        weight = Rat(1)
        for kind, tag, i in mono:
            func = r1 if kind == "r1" else r3
            weight = weight * func(sets[tag][i])
        total = total + coeff * weight
    return total
