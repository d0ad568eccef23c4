"""Catalog entries, generated endomorphisms, and the external override dir."""

import json
from fractions import Fraction

import pytest

from lietrace.catalog import (CATALOG_DIR_ENV, UnknownEntry, export, get,
                              list_entries, random_graded_endomorphism,
                              sample_endomorphisms, selftest)
from lietrace.liealg import check_morphism, is_morphism, is_nilpotent
from lietrace.ratlin import InvalidInput

from helpers import ALL_NAMES, NILPOTENT_NAMES, whole


def test_list_entries_frozen():
    assert list_entries() == sorted(ALL_NAMES)


def test_selftest_reports_every_entry():
    lines = selftest()
    assert len(lines) == len(ALL_NAMES)
    assert all("ok" in line for line in lines)
    assert any(line.startswith("sol3: ok (solvable") for line in lines)


def test_unknown_entry():
    with pytest.raises(UnknownEntry) as caught:
        get("nosuch")
    assert str(caught.value) == "unknown catalog entry 'nosuch'"
    assert isinstance(caught.value, InvalidInput)
    assert isinstance(caught.value, KeyError)


def test_nilpotence_classification():
    for name in NILPOTENT_NAMES:
        assert is_nilpotent(get(name).algebra), name
    assert not is_nilpotent(get("sol3").algebra)


def test_graded_scalings_are_morphisms_many_seeds():
    # 143 seeds x 7 entries > 1000 validated scalings
    for name in NILPOTENT_NAMES:
        entry = get(name)
        for seed in range(143):
            f = random_graded_endomorphism(entry, seed)
            check_morphism(f)
            # diagonal with positive-weight powers of the seed scale
            t = f.matrix[0, 0]
            for i, w in enumerate(entry.grading):
                assert f.matrix[i, i] == t ** w


def test_generation_is_seed_deterministic():
    entry = get("filiform4")
    assert (random_graded_endomorphism(entry, 42).matrix
            == random_graded_endomorphism(entry, 42).matrix)


def test_no_grading_refusal():
    entry = get("sol3")
    assert entry.grading is None
    with pytest.raises(InvalidInput, match=whole("entry sol3 has no grading")):
        random_graded_endomorphism(entry, 0)


def test_sample_endomorphisms_validate():
    for name in ALL_NAMES:
        samples = sample_endomorphisms(get(name))
        assert len(samples) >= 2  # identity and zero at minimum
        for f in samples:
            assert is_morphism(f)


def test_export_round_trips_through_documents():
    from lietrace.documents import algebra_from_doc
    for name in ALL_NAMES:
        doc = export(name)
        algebra = algebra_from_doc(doc["algebra"], "/algebra")
        assert algebra.brackets == get(name).algebra.brackets
        assert json.loads(json.dumps(doc)) == doc  # JSON-ready


def test_external_directory_overrides(tmp_path, monkeypatch):
    doc = {
        "algebra": {"dim": 2, "brackets": []},
        "grading": [1, 1],
        "notes": "flat plane",
    }
    (tmp_path / "plane.json").write_text(json.dumps(doc))
    # shadowing a built-in name wins over the built-in definition
    shadow = {"algebra": {"dim": 1, "brackets": []}}
    (tmp_path / "heisenberg3.json").write_text(json.dumps(shadow))

    monkeypatch.setenv(CATALOG_DIR_ENV, str(tmp_path))
    assert "plane" in list_entries()
    plane = get("plane")
    assert plane.algebra.dim == 2
    assert plane.grading == (1, 1)
    assert plane.notes == "flat plane"
    assert get("heisenberg3").algebra.dim == 1

    monkeypatch.delenv(CATALOG_DIR_ENV)
    assert get("heisenberg3").algebra.dim == 3
    assert "plane" not in list_entries()


def test_entry_structure_frozen():
    heis = get("heisenberg3")
    assert heis.grading == (1, 1, 2)
    assert heis.split == ((0, 1, 2), ())
    sol = get("sol3")
    assert sol.split == ((1, 2), (0,))
    fil = get("filiform4")
    assert fil.grading == (1, 2, 3, 4)
    heis5 = get("heisenberg5")
    assert heis5.grading == (1, 1, 1, 1, 2)


def test_catalog_algebras_are_read_only():
    brackets = get("heisenberg3").algebra.brackets
    with pytest.raises(AttributeError):
        brackets.clear()
    with pytest.raises(TypeError):
        brackets[(0, 2)] = {1: 1}
    with pytest.raises(TypeError):
        brackets[(0, 1)][2] = 5
    with pytest.raises(AttributeError):
        brackets[(0, 1)].clear()
    assert get("heisenberg3").algebra.brackets == {(0, 1): {2: Fraction(1)}}
