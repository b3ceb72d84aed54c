"""Backend selection for the oracle enumeration kernel.

The compiled Cython kernel is used when the extension was built; otherwise
the pure-Python kernel takes over.  ``count_outside`` accepts an explicit
``backend`` so the benchmark can compare both on the same inputs.
``count_outside_upto`` counts every degree up to a bound: the pure kernel
does it in one walk, the compiled one is looped degree by degree.
"""

from __future__ import annotations

from typing import Sequence

from . import _oracle_py

try:
    from . import _oracle_cy  # type: ignore[attr-defined]

    HAVE_COMPILED = True
except ImportError:
    _oracle_cy = None
    HAVE_COMPILED = False

DEFAULT_BACKEND = "compiled" if HAVE_COMPILED else "pure"


def count_outside(
    arity: int,
    degree: int,
    gens: Sequence[Sequence[int]],
    backend: str = "auto",
) -> int:
    """Count degree-``degree`` monomials in ``arity`` variables not divisible
    by any of ``gens``."""
    if backend == "auto":
        backend = DEFAULT_BACKEND
    if backend == "compiled":
        if not HAVE_COMPILED:
            raise RuntimeError("compiled kernel not available")
        return _oracle_cy.count_outside(arity, degree, list(gens))
    if backend == "pure":
        return _oracle_py.count_outside(arity, degree, gens)
    raise ValueError(f"unknown backend {backend!r}")


def count_outside_upto(arity: int, b_max: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """Count the monomials in ``arity`` variables not divisible by any of
    ``gens``, for each degree 0..``b_max``."""
    if HAVE_COMPILED:
        gen_list = list(gens)
        return [_oracle_cy.count_outside(arity, b, gen_list) for b in range(b_max + 1)]
    return _oracle_py.count_outside_upto(arity, b_max, gens)
