"""Strongly real conjugacy classes of finite unitary groups, exactly.

Classification, counting, and brute-force verification for U(n, F_q):
which classes are strongly real (reversed by an involution), how many there
are, and matrix-level certificates for both answers at desk scale.
"""

from .classdata import (
    ClassDatum,
    Partition,
    SignedPartition,
    SymplecticClassDatum,
    centralizer_order,
    class_datum,
    is_real,
    make_class_datum,
    negate,
    partition,
    sp_splitting_count,
    star_decompose,
    symplectic_datum,
    u_sequence,
    unipotent_datum,
)
from .classify import (
    NOT_STRONGLY_REAL,
    STRONGLY_REAL,
    UNKNOWN,
    Verdict,
    orthogonal_embeddable,
    reduce_sharp,
    sp_strongly_real,
    strongly_real,
    symplectic_embeddable_even_q,
    unipotent_strongly_real,
)
from .counting import (
    Series,
    cross_check_counts,
    enumerate_class_data,
    series_K,
    series_R,
    series_T,
)
from .fields import FieldCtx, PrimePower, make_context, prime_power
from .oracle import (
    Budgets,
    GroupEnumeration,
    HermitianForm,
    OracleReport,
    enumerate_group,
    extract_class_datum,
    is_strongly_real_oracle,
    explicit_representative,
    realize_class,
    reconcile,
    standard_forms,
    unitary_order,
)
from .upoly import (
    MonicPoly,
    UIrreducible,
    count_self_conjugate,
    enumerate_self_conjugate,
    enumerate_u_irreducibles,
    factor_into_u_irreducibles,
    is_self_conjugate,
    tilde,
)

__version__ = "0.1.0"
