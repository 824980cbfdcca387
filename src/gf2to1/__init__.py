"""Toolkit for 2-to-1 polynomial mappings over GF(2^n).

Verification, equivalence machinery, constructive families and exhaustive
desk-scale searches, with a CLI (``gf2to1``) that reproduces the bundled
reference tables.
"""

from .field import FieldCtx, field_from_label, fmt_elem, make_field, parse_elem
from .lowdeg import (
    FactorPattern,
    cubic_has_unique_root,
    quadratic_solutions,
    quartic_pattern,
    roots_by_scan,
)
from .poly import (
    BivarPoly,
    DensePoly,
    SparsePoly,
    count_bivariate_zeros,
    dickson,
    dickson_eval,
    dickson_inverse_exponent,
    parse_poly,
    reduce_exponents,
    resultant,
    resultant_eliminate,
)
from .search import (
    SearchReport,
    compare_with_table,
    report_from_json,
    report_to_csv,
    report_to_json,
    search_degree5,
    search_sparse,
)
from .two2one import (
    is_o_polynomial,
    is_two_to_one,
    make_family,
    o_orbit,
    preimage_histogram,
    qm_canonical,
    verify_resultant_identity,
)

__version__ = "0.1.0"
