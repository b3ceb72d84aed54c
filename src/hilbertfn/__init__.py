"""Hilbert functions and series of monomial quotient rings.

Four mutually cross-checking computation methods (enumeration oracle,
lcm-lattice inclusion-exclusion, syzygy recursion, SES table build), a
Stanley-Reisner front end, a text grammar and a CLI.
"""

from .engine import (
    AnnihilatorDecomposition,
    HilbertTable,
    LcmLattice,
    annihilator_decomposition,
    annihilator_hf,
    build_lcm_lattice,
    hf,
    hf_lcm_lattice,
    hf_oracle,
    hf_syzygy,
    hf_table,
)
from .errors import ResourceCapError
from .monomial import (
    ArityMismatchError,
    Monomial,
    MonomialIdeal,
    VariableOrder,
    contains_monomial,
    divides,
    ideal,
    lcm,
    minimalize,
    reindex_for_table,
    restrict,
    syzygy_quotient,
)
from .parser import ParseError, parse_complex, parse_ideal, parse_ring
from .pascal import (
    hf_principal,
    hf_two_generators,
    pascal_F,
    pascal_table,
)
from .series import SeriesNumerator, expand_series, render_series, series_numerator
from .simplicial import (
    SimplicialComplex,
    minimal_nonfaces,
    stanley_reisner_ideal,
    validate_complex,
)

__version__ = "0.1.0"
