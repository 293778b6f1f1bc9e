"""Scalar-product assembly as a multilinear polynomial in vacuum-ratio symbols.

The scalar product S_{a,b} is a sum over four simultaneous set partitions; the
coefficient of each monomial in the formal symbols r1(u), r3(v) is a rational
number built from f-products and a product of one left and one right highest
coefficient.  Symbols are tracked per parameter (set tag + position), so
coefficient extraction is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import PoleError, Rat, scalar_format
from .highest import hc
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


def w_part(kern, uC_split, uB_split, vC_split, vB_split):
    """The rational coefficient of one fixed four-way partition.

    Each split is a pair (part_I, part_II) of tuples; #uC_I = #uB_I and
    #vC_I = #vB_I are required.
    """
    uC1, uC2 = uC_split
    uB1, uB2 = uB_split
    vC1, vC2 = vC_split
    vB1, vB2 = vB_split
    if len(uC1) != len(uB1) or len(vC1) != len(vB1):
        raise ValueError("linked partition cardinalities must match")
    fprod = kern.fprod
    return (
        fprod(uB2, uB1)
        * fprod(uC1, uC2)
        * fprod(vB1, vB2)
        * fprod(vC2, vC1)
        * fprod(vC1, uC1)
        * fprod(vB2, uB2)
        * hc(kern, "l", uC2, uB2, vC1, vB1)
        * hc(kern, "r", uB1, uC1, vB2, vC2)
    )


def _splits(tag, vals, k):
    """Each split of ``vals`` into (part_I, part_II) with #part_I = k.

    Listed as ``(symbols_I, symbols_II, (part_I, part_II))`` in the order of
    `enumerate_partitions` over positions; a symbol is ``(tag, position)``.
    """
    out = []
    for one, two in enumerate_partitions(range(len(vals)), k):
        out.append(([(tag, i) for i in one], [(tag, i) for i in two],
                     (tuple(vals[i] for i in one), tuple(vals[i] for i in two))))
    return out


def scalar_product_symbolic(kern, uC, vC, uB, vB):
    """S_{a,b} as a map monomial -> exact coefficient."""
    uC, vC, uB, vB = map(tuple, (uC, vC, uB, vB))
    a, b = len(uC), len(vC)
    if len(uB) != a or len(vB) != b:
        raise ValueError("cardinality mismatch between C and B sets")
    global_f = kern.fprod(vC, uC) * kern.fprod(vB, uB)
    poly = {}
    for k in range(a + 1):
        uCs, uBs = _splits("uC", uC, k), _splits("uB", uB, k)
        for n in range(b + 1):
            vCs, vBs = _splits("vC", vC, n), _splits("vB", vB, n)
            for _, uC_syms, uC_split in uCs:
                for uB_syms, _, uB_split in uBs:
                    for _, vC_syms, vC_split in vCs:
                        for vB_syms, _, vB_split in vBs:
                            coeff = w_part(
                                kern, uC_split, uB_split, vC_split, vB_split
                            ) / global_f
                            mono = monomial(uC_syms + uB_syms, vC_syms + vB_syms)
                            poly[mono] = poly.get(mono, Rat(0)) + coeff
    return {m: c for m, c in poly.items() if c != 0}


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
