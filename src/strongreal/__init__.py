"""Strongly real conjugacy classes of finite unitary groups, exactly.

Classification, counting, and brute-force verification for U(n, F_q):
which classes are strongly real (reversed by an involution), how many there
are, and matrix-level certificates for both answers at desk scale.

The public names below resolve on first use (PEP 562), so importing the
package, or a verb that needs no matrices, never loads `oracle` or `linalg`.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "classdata": (
        "ClassDatum", "Partition", "SignedPartition", "SymplecticClassDatum",
        "centralizer_order", "class_datum", "invert", "is_real", "make_class_datum",
        "negate", "partition", "sp_splitting_count", "star_decompose", "symplectic_datum",
        "u_sequence", "unipotent_datum", "unitary_order",
    ),
    "classify": (
        "NOT_STRONGLY_REAL", "STRONGLY_REAL", "UNKNOWN", "Verdict",
        "orthogonal_embeddable", "reduce_sharp", "sp_strongly_real", "strongly_real",
        "symplectic_embeddable_even_q", "unipotent_strongly_real",
    ),
    "counting": (
        "Series", "cross_check_counts", "enumerate_class_data",
        "series_K", "series_R", "series_T",
    ),
    "fields": ("FieldCtx", "PrimePower", "make_context", "prime_power"),
    "oracle": (
        "Budgets", "GroupEnumeration", "HermitianForm", "OracleReport", "enumerate_group",
        "explicit_representative", "extract_class_datum", "is_strongly_real_oracle",
        "realize_class", "reconcile", "standard_forms",
    ),
    "upoly": (
        "MonicPoly", "UIrreducible", "count_self_conjugate", "enumerate_self_conjugate",
        "enumerate_u_irreducibles", "factor_into_u_irreducibles", "is_self_conjugate",
        "tilde",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors", "linalg"}

__all__ = list(_HOME)


def __getattr__(name):
    # nothing is cached here, so vars(strongreal) only ever gains submodules
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
