"""Hilbert series as a rational function: numerator over (1 - t)^arity.

The numerator is the alternating subset sum K(t) = sum over subsets S of the
generators of (-1)^|S| t^(deg lcm S); expanding K(t) / (1 - t)^a recovers the
Hilbert function values.  The sum is the same inclusion-exclusion as the lcm
lattice method, and both take it from :func:`subset_numerator`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import ResourceCapError
from .monomial import MonomialIdeal, minimalize
from .pascal import pascal_F

LATTICE_CAP_DEFAULT = 20


@dataclass(frozen=True)
class SeriesNumerator:
    """Finitely supported numerator polynomial with denominator (1 - t)^arity.

    ``coefficients`` maps degree to a signed integer; zero coefficients are
    not stored.
    """

    arity: int
    coefficients: tuple[tuple[int, int], ...]  # (degree, coefficient), ascending

    def coefficient(self, degree: int) -> int:
        for d, c in self.coefficients:
            if d == degree:
                return c
        return 0

    @property
    def is_zero(self) -> bool:
        return not self.coefficients


def check_lattice_cap(I: MonomialIdeal, lattice_cap: int) -> None:
    """Refuse a subset sum over more than ``lattice_cap`` generators as given."""
    n = len(I.generators)
    if n > lattice_cap:
        raise ResourceCapError(f"{n} generators exceed lattice cap {lattice_cap}")


def subset_lcm_layers(I: MonomialIdeal) -> list[list[tuple[int, ...]]]:
    """Exponent vectors of the lcm of every subset of I's generators as given,
    grouped by subset size.

    ``layers[r]`` holds the lcms of all r-subsets in colexicographic order
    (the order of their bitmasks); ``layers[0]`` is the empty subset's 1.
    Each subset extends the subset without its last generator, so every
    subset costs one componentwise max and no Monomial is built.
    """
    layers: list[list[tuple[int, ...]]] = [[(0,) * I.arity]]
    for gen in I.generators:
        g = gen.exponents
        layers.append([])
        for r in range(len(layers) - 2, -1, -1):
            layers[r + 1] += [tuple(map(max, m, g)) for m in layers[r]]
    return layers


def alternating_numerator(arity: int, layer_degrees: Iterable[Counter]) -> SeriesNumerator:
    """The numerator sum over r of (-1)^r * sum over d of layer_degrees[r][d] t^d."""
    coeffs: Counter = Counter()
    for r, degrees in enumerate(layer_degrees):
        sign = -1 if r % 2 else 1
        for d, mult in degrees.items():
            coeffs[d] += sign * mult
    return SeriesNumerator(arity, tuple(sorted((d, c) for d, c in coeffs.items() if c)))


def subset_numerator(I: MonomialIdeal) -> SeriesNumerator:
    """K(t) summed over the subsets of I's generators as given.

    Any generating set of the ideal gives the same K(t), so callers pass the
    minimal generators to sum over the fewest subsets.
    """
    layers = subset_lcm_layers(I)
    return alternating_numerator(I.arity, (Counter(map(sum, layer)) for layer in layers))


def series_numerator(
    I: MonomialIdeal, lattice_cap: int = LATTICE_CAP_DEFAULT
) -> SeriesNumerator:
    """Numerator of HS(R/I, t) over (1 - t)^arity.

    The empty subset contributes the leading 1; each nonempty subset of the
    minimal generators contributes (-1)^|S| t^(deg lcm S).  ``lattice_cap``
    bounds the generator count as given, before minimalization.
    """
    check_lattice_cap(I, lattice_cap)
    return subset_numerator(minimalize(I))


def expand_series(num: SeriesNumerator, b_max: int) -> list[int]:
    """First b_max + 1 power-series coefficients of K(t) / (1 - t)^arity.

    Since 1 / (1 - t)^a has coefficients F(a, b), the expansion is an exact
    convolution.  Coefficients of a valid quotient ring are never negative;
    a negative value signals a broken numerator.
    """
    if b_max < 0:
        raise ValueError("b_max must be >= 0")
    values = []
    for b in range(b_max + 1):
        v = sum(c * pascal_F(num.arity, b - d) for d, c in num.coefficients)
        if v < 0:
            raise ValueError(f"negative coefficient {v} at degree {b}: invalid numerator")
        values.append(v)
    return values


def render_series(num: SeriesNumerator) -> str:
    """Text form like ``(1 - t^2 - t^3 + t^5)/(1 - t)^3``.

    Terms appear in ascending degree with explicit signs; zero terms are
    omitted.  The zero numerator renders as plain ``0``.
    """
    if num.is_zero:
        return "0"
    parts: list[str] = []
    for d, c in num.coefficients:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            t = "t" if d == 1 else f"t^{d}"
            body = t if mag == 1 else f"{mag}*{t}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    numerator = " ".join(parts)
    if len(num.coefficients) > 1 or num.coefficients[0][0] != 0:
        numerator = f"({numerator})"
    return f"{numerator}/(1 - t)^{num.arity}"
