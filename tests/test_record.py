"""ratlin.Record, the base of the library's immutable values: construction,
defaults, __post_init__, frozen fields, ==, hash and repr in the
dataclass forms, and the fields a class hides from them."""

from fractions import Fraction

import pytest

from lietrace.catalog import get
from lietrace.cecomplex import (CohomologyData, build_complex, cohomology,
                                induced_chain_map)
from lietrace.lefschetz import LefschetzReport, twisted_lefschetz
from lietrace.liealg import LieAlgebra, SeriesReport, endomorphism, series
from lietrace.nilshadow import (SplitPresentation, build_shadow,
                                induced_shadow_map)
from lietrace.ratlin import JordanParts, Matrix, Record, jordan_chevalley
from lietrace.repn import (Representation, adjoint_module,
                           identity_intertwiner, trivial_module)
from lietrace.torus_oracle import TorusMap, count_fixed_points

AFF = LieAlgebra(dim=2, brackets={(0, 1): {1: 1}})   # [e0, e1] = e1
_AFF = ("LieAlgebra(dim=2, brackets={(0, 1): {1: Fraction(1, 1)}}, "
        "labels=('e0', 'e1'))")
_TRIV = f"Representation(algebra={_AFF}, dim=1, actions=(Matrix[1x1: 0], " \
        "Matrix[1x1: 0]))"
_COMPLEX = (f"CochainComplex(algebra={_AFF}, module={_TRIV}, dims=(1, 2, 1), "
            "differentials=(Matrix[2x1: 0; 0], Matrix[1x2: 0 -1]))")
_MAP = f"LieMorphism(source={_AFF}, target={_AFF}, matrix=Matrix[2x2: 1 0; 0 2])"
_SPLIT = f"SplitPresentation(algebra={_AFF}, nil_ideal=(1,), complement=(0,))"
_SHADOW = "LieAlgebra(dim=2, brackets={}, labels=('e0', 'e1'))"


def _instances():
    """One value of each of the 16 record classes, keyed by its repr as
    the dataclass version of the library printed it."""
    v = trivial_module(AFF)
    f = endomorphism(AFF, [[1, 0], [0, 2]])
    xi = identity_intertwiner(f, v)
    complex_ = build_complex(AFF, v)
    split = SplitPresentation(algebra=AFF, nil_ideal=(1,), complement=(0,))
    shadow = build_shadow(split)
    torus = TorusMap(((2, 1), (1, 1)))
    return {
        "CatalogEntry(name='abelian_1', algebra=LieAlgebra(dim=1, "
        "brackets={}, labels=('e0',)), grading=(1,), split=((0,), ()), "
        "notes='abelian algebra of rank 1; its nilmanifold is the 1-torus')":
            get("abelian_1"),
        _COMPLEX: complex_,
        "CohomologyData(degree=1, betti=1, cocycle_basis=Matrix[1x2: 1 0], "
        "coboundary_basis=Matrix[0x2: ], "
        "representative_basis=Matrix[1x2: 1 0])": cohomology(complex_)[1],
        f"ChainMap(complex={_COMPLEX}, blocks=(Matrix[1x1: 1], "
        "Matrix[2x2: 1 0; 0 2], Matrix[1x1: 2]))":
            induced_chain_map(complex_, f, xi),
        "LefschetzReport(betti=(1, 1, 0), dims=(1, 2, 1), "
        "cohomology_maps=(Matrix[1x1: 1], Matrix[1x1: 1], Matrix[0x0: ]), "
        "cohomology_traces=(Fraction(1, 1), Fraction(1, 1), Fraction(0, 1)), "
        "cochain_traces=(Fraction(1, 1), Fraction(3, 1), Fraction(2, 1)), "
        "lefschetz=Fraction(0, 1), hopf=Fraction(0, 1), "
        "det_i_minus_a=Fraction(0, 1), agree=True, note='')":
            twisted_lefschetz(AFF, v, f, xi),
        _AFF: AFF,
        "SeriesReport(kind='derived', dims=(2, 1, 0), terminates_at_zero=True)":
            series(AFF, "derived"),
        _MAP: f,
        _SPLIT: split,
        f"ShadowResult(split={_SPLIT}, shadow={_SHADOW}, "
        "semisimple_parts=(Matrix[2x2: 0 0; 0 1],))": shadow,
        f"ShadowMapReport(shadow_map=LieMorphism(source={_SHADOW}, "
        f"target={_SHADOW}, matrix=Matrix[2x2: 1 0; 0 2]), "
        "is_shadow_morphism=True, det_input=Fraction(0, 1))":
            induced_shadow_map(shadow, f),
        "JordanParts(semisimple=Matrix[2x2: 1 0; 0 1], "
        "nilpotent=Matrix[2x2: 0 1; 0 0])":
            jordan_chevalley(Matrix([[1, 1], [0, 1]])),
        _TRIV: v,
        f"Intertwiner(morphism={_MAP}, module={_TRIV}, matrix=Matrix[1x1: 1])":
            xi,
        "TorusMap(matrix=((2, 1), (1, 1)))": torus,
        "FixedPointReport(count=1, lefschetz=-1, index_each=-1, "
        "points=((Fraction(0, 1), Fraction(0, 1)),))": count_fixed_points(torus),
    }


def test_repr_of_every_record_class_is_pinned():
    instances = _instances()
    assert len({type(x) for x in instances.values()}) == 16
    for expected, value in instances.items():
        assert isinstance(value, Record)
        assert repr(value) == expected


def test_fields_are_frozen():
    for value in _instances().values():
        name = type(value)._fields[0]
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, name)
        with pytest.raises(AttributeError, match="cannot assign"):
            value.extra = 1


def test_cached_property_still_caches():
    algebra = LieAlgebra(dim=2, brackets={(0, 1): {1: 1}})
    assert algebra.basis_ads is algebra.basis_ads


def test_missing_unknown_and_repeated_fields_raise_type_error():
    m = Matrix.identity(2)
    with pytest.raises(TypeError, match=r"JordanParts\.__init__\(\) missing "
                       "1 required positional argument: 'nilpotent'"):
        JordanParts(semisimple=m)
    with pytest.raises(TypeError):
        JordanParts(semisimple=m, nilpotent=m, extra=m)
    with pytest.raises(TypeError):
        JordanParts(m, m, m)
    with pytest.raises(TypeError):
        JordanParts(m, semisimple=m)
    with pytest.raises(TypeError):
        LieAlgebra()    # dim has no default


def test_positional_and_keyword_fields_and_defaults():
    m, n = Matrix.identity(2), Matrix.zero(2, 2)
    assert JordanParts(m, n) == JordanParts(m, nilpotent=n) \
        == JordanParts(semisimple=m, nilpotent=n)
    assert LieAlgebra(2) == LieAlgebra(dim=2, brackets={}, labels=("e0", "e1"))
    assert dict(LieAlgebra(dim=2).brackets) == {}
    report = LefschetzReport((1,), (1,), (), (), (), Fraction(1), Fraction(1),
                             Fraction(1), True)
    assert report.note == ""
    assert report != LefschetzReport((1,), (1,), (), (), (), Fraction(1),
                                     Fraction(1), Fraction(1), True, "x")


def test_post_init_runs_after_the_fields_are_set():
    split = SplitPresentation(AFF, (1,), (0,))
    assert split == SplitPresentation(algebra=AFF, nil_ideal=[1],
                                      complement=[0])
    assert split.nil_ideal == (1,)


def test_equality_is_not_implemented_across_classes():
    m = Matrix.identity(2)
    parts = JordanParts(semisimple=m, nilpotent=m)
    report = SeriesReport(kind="derived", dims=(2, 1, 0),
                          terminates_at_zero=True)
    assert parts.__eq__(report) is NotImplemented
    assert parts.__eq__(m) is NotImplemented
    assert parts != report and report != parts
    assert parts == JordanParts(semisimple=Matrix.identity(2),
                                nilpotent=Matrix.identity(2))


def test_hash_follows_equality():
    assert hash(TorusMap(((2, 1), (1, 1)))) == hash(TorusMap([[2, 1], [1, 1]]))
    a, b = adjoint_module(get("heisenberg3").algebra), adjoint_module(
        LieAlgebra(dim=3, brackets={(0, 1): {2: 1}}))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert Representation(AFF, 1, (Matrix.zero(1, 1),) * 2) == \
        trivial_module(AFF)


def test_hidden_fields_stay_out_of_eq_hash_and_repr():
    data = cohomology(build_complex(AFF, trivial_module(AFF)))[1]
    other = CohomologyData(
        degree=data.degree, betti=data.betti,
        cocycle_basis=data.cocycle_basis,
        coboundary_basis=data.coboundary_basis,
        representative_basis=data.representative_basis,
        transposed_representatives=Matrix.zero(1, 1),
        transposed_coordinates=Matrix.zero(3, 3))
    assert other == data and hash(other) == hash(data)
    assert repr(other) == repr(data)
    assert "transposed" not in repr(data)
    assert other.transposed_coordinates == Matrix.zero(3, 3)
