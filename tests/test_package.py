"""The package's public names: each resolves on first use to its home module's object."""

import importlib

import pytest

import strongreal

# every public name of the package, under its home module
PUBLIC = {
    "classdata": [
        "ClassDatum", "Partition", "SignedPartition", "SymplecticClassDatum",
        "centralizer_order", "class_datum", "invert", "is_real", "make_class_datum",
        "negate", "partition", "sp_splitting_count", "star_decompose", "symplectic_datum",
        "u_sequence", "unipotent_datum", "unitary_order",
    ],
    "classify": [
        "NOT_STRONGLY_REAL", "STRONGLY_REAL", "UNKNOWN", "Verdict",
        "orthogonal_embeddable", "reduce_sharp", "sp_strongly_real", "strongly_real",
        "symplectic_embeddable_even_q", "unipotent_strongly_real",
    ],
    "counting": [
        "Series", "cross_check_counts", "enumerate_class_data",
        "series_K", "series_R", "series_T",
    ],
    "fields": ["FieldCtx", "PrimePower", "make_context", "prime_power"],
    "oracle": [
        "Budgets", "GroupEnumeration", "HermitianForm", "OracleReport", "enumerate_group",
        "explicit_representative", "extract_class_datum", "is_strongly_real_oracle",
        "realize_class", "reconcile", "standard_forms",
    ],
    "upoly": [
        "MonicPoly", "UIrreducible", "count_self_conjugate", "enumerate_self_conjugate",
        "enumerate_u_irreducibles", "factor_into_u_irreducibles", "is_self_conjugate",
        "tilde",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_all_lists_the_public_names():
    assert len(NAMES) == 56
    assert sorted(strongreal.__all__) == sorted(name for _, name in NAMES)
    assert set(strongreal.__all__) <= set(dir(strongreal))


@pytest.mark.parametrize("module,name", NAMES)
def test_public_name_is_its_home_modules_object(module, name):
    home = getattr(importlib.import_module(f"strongreal.{module}"), name)
    namespace = {}
    exec(f"from strongreal import {name}", namespace)
    assert getattr(strongreal, name) is home
    assert namespace[name] is home


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'mat_mul'"):
        strongreal.mat_mul
    with pytest.raises(ImportError):
        exec("from strongreal import DEFAULT_BUDGETS", {})


def test_lookup_leaves_the_namespace_unchanged():
    for module in PUBLIC:
        importlib.import_module(f"strongreal.{module}")
    before = dict(vars(strongreal))
    for _, name in NAMES:
        getattr(strongreal, name)
    assert vars(strongreal) == before

