"""Built-in catalog of small Lie algebras with gradings and splittings.

Each entry carries enough structure to generate validated endomorphisms:
a positive grading (when one exists) makes every diagonal scaling
diag(t^w_0, ..., t^w_{n-1}) a morphism, and solvable entries carry a split
presentation for the nilshadow pipeline.  Entries double as the JSON
documents the command line accepts; see `export`.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from .liealg import LieAlgebra, LieMorphism, endomorphism
from .ratlin import InvalidInput, Matrix, Record


class UnknownEntry(InvalidInput, KeyError):
    """A name with no catalog entry.  Its message names the fault, which the
    KeyError __str__, quoting the bare argument, would not."""
    __str__ = InvalidInput.__str__


class CatalogEntry(Record):
    name: str
    algebra: LieAlgebra
    grading: tuple | None         # positive weights, one per basis vector
    split: tuple | None           # (nil_ideal, complement) index tuples
    notes: str


def _abelian(n: int) -> CatalogEntry:
    return CatalogEntry(
        name=f"abelian_{n}",
        algebra=LieAlgebra(dim=n),
        grading=(1,) * n,
        split=(tuple(range(n)), ()),
        notes=f"abelian algebra of rank {n}; its nilmanifold is the {n}-torus")


_ENTRIES = [
    _abelian(1),
    _abelian(2),
    _abelian(3),
    _abelian(4),
    CatalogEntry(
        name="heisenberg3",
        algebra=LieAlgebra(dim=3, brackets={(0, 1): {2: 1}}),
        grading=(1, 1, 2),
        split=((0, 1, 2), ()),
        notes="Heisenberg algebra: [e0,e1] = e2, e2 central"),
    CatalogEntry(
        name="heisenberg5",
        algebra=LieAlgebra(dim=5, brackets={(0, 1): {4: 1}, (2, 3): {4: 1}}),
        grading=(1, 1, 1, 1, 2),
        split=((0, 1, 2, 3, 4), ()),
        notes="rank-2 Heisenberg: two commuting pairs share the center e4"),
    CatalogEntry(
        name="filiform4",
        algebra=LieAlgebra(dim=4, brackets={(0, 1): {2: 1}, (0, 2): {3: 1}}),
        grading=(1, 2, 3, 4),
        split=((0, 1, 2, 3), ()),
        notes="filiform of dimension 4: [e0,e1] = e2, [e0,e2] = e3"),
    CatalogEntry(
        name="sol3",
        algebra=LieAlgebra(dim=3, brackets={(0, 1): {1: 1}, (0, 2): {2: -1}}),
        grading=None,
        split=((1, 2), (0,)),
        notes="solvable, not nilpotent: [e0,e1] = e1, [e0,e2] = -e2; "
              "abelian nilshadow"),
]

_BY_NAME = {e.name: e for e in _ENTRIES}

CATALOG_DIR_ENV = "LEFSCHETZ_CATALOG_DIR"


def list_entries() -> list[str]:
    names = sorted(_BY_NAME)
    extra = _external_dir()
    if extra:
        names = sorted(set(names) | {
            os.path.splitext(f)[0] for f in os.listdir(extra)
            if f.endswith(".json")})
    return names


def get(name: str) -> CatalogEntry:
    """The entry `name`: an external one only where name + ".json" is a
    file name in the directory itself, never a path out of it."""
    extra = _external_dir()
    if extra and name + ".json" in os.listdir(extra):
        return _load_entry(name, os.path.join(extra, name + ".json"))
    if name not in _BY_NAME:
        raise UnknownEntry(f"unknown catalog entry {name!r}")
    return _BY_NAME[name]


def _external_dir():
    path = os.environ.get(CATALOG_DIR_ENV)
    return path if path and os.path.isdir(path) else None


def _load_entry(name: str, path: str) -> CatalogEntry:
    """An external entry: an algebra document, or an object with the
    algebra and optional grading, split and notes, read by the parsers that
    read task documents.  Errors read "<entry file>#<JSON pointer>"."""
    from .documents import (InvalidDocument, algebra_from_doc,
                            grading_from_doc, load_json, split_from_doc)
    root = f"{path}#"
    doc = load_json(path, root)
    if not isinstance(doc, dict):
        raise InvalidDocument(root, "expected a top-level object")
    try:
        wrapped = "algebra" in doc   # else a bare algebra document
        algebra = algebra_from_doc(doc["algebra"] if wrapped else doc,
                                   "/algebra" if wrapped else "")
        grading = split = None
        if "grading" in doc:
            grading = grading_from_doc(doc["grading"], algebra.dim)
        if "split" in doc:
            split = split_from_doc(doc["split"], algebra.dim)
    except InvalidDocument as exc:
        raise InvalidDocument(root + exc.path, exc.message) from exc
    return CatalogEntry(name=name, algebra=algebra, grading=grading,
                        split=split, notes=doc.get("notes", ""))


def export(name: str) -> dict:
    """Entry as a JSON-ready document in the CLI input format."""
    from .documents import algebra_to_doc
    entry = get(name)
    doc = {"algebra": algebra_to_doc(entry.algebra), "notes": entry.notes}
    if entry.grading is not None:
        doc["grading"] = list(entry.grading)
    if entry.split is not None:
        doc["split"] = {"nil_ideal": list(entry.split[0]),
                        "complement": list(entry.split[1])}
    return doc


def random_graded_endomorphism(entry: CatalogEntry, seed: int) -> LieMorphism:
    """diag(t^w_0, ..., t^w_{n-1}) for a seeded random nonzero rational t.

    Gradings are positive, so this is a morphism for every t; the exponents
    grow fast, so t is kept small.
    """
    if entry.grading is None:
        raise InvalidInput(f"entry {entry.name} has no grading")
    rng = random.Random(seed)
    t = Fraction(0)
    while t == 0:
        t = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    diag = [t ** w for w in entry.grading]
    return endomorphism(entry.algebra, Matrix.diagonal(diag))


def sample_endomorphisms(entry: CatalogEntry) -> list[LieMorphism]:
    """A small pile of validated endomorphisms: identity, zero, integer
    graded scalings, and a few handpicked non-diagonal ones."""
    algebra = entry.algebra
    n = algebra.dim
    out = [endomorphism(algebra, Matrix.identity(n)),
           endomorphism(algebra, Matrix.zero(n, n))]
    if entry.grading is not None:
        for t in (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)):
            out.append(endomorphism(
                algebra, Matrix.diagonal([t ** w for w in entry.grading])))
    for matrix in _HANDPICKED.get(entry.name, []):
        out.append(endomorphism(algebra, Matrix(matrix)))
    return out


_HANDPICKED = {
    # shears and projections that are morphisms but not graded scalings
    "heisenberg3": [
        [[2, 0, 0], [0, 3, 0], [0, 0, 6]],
        [[1, 0, 0], [1, 1, 0], [0, 0, 1]],    # e0 -> e0 + e1
        [[1, 0, 0], [0, 1, 0], [2, -3, 1]],   # shift into the center
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],    # projection onto e0
        [[0, 1, 0], [1, 0, 0], [0, 0, -1]],   # swap e0, e1: flips the center
    ],
    "filiform4": [
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ],
    "sol3": [
        [[1, 0, 0], [0, 2, 0], [0, 0, 3]],     # diag(1,a,b) always works
        [[1, 0, 0], [5, 2, 0], [-1, 0, 3]],    # plus shears into the ideal
        [[-1, 0, 0], [0, 0, 1], [0, 1, 0]],    # flip: e0 -> -e0, swap e1, e2
    ],
    "heisenberg5": [
        [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 0, 0, 0, 0],
         [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]],   # swap the two commuting pairs
    ],
}


def selftest() -> list[str]:
    """Run every validator over every entry; returns human-readable lines.
    Raises on the first failure."""
    from .liealg import check_morphism, is_nilpotent, is_solvable, validate
    from .nilshadow import SplitPresentation, validate_split
    from .repn import adjoint_module, trivial_module, validate_rep

    lines = []
    for name in sorted(_BY_NAME):
        entry = get(name)
        validate(entry.algebra)
        validate_rep(trivial_module(entry.algebra))
        validate_rep(adjoint_module(entry.algebra))
        for f in sample_endomorphisms(entry):
            check_morphism(f)
        for seed in range(5):
            if entry.grading is not None:
                check_morphism(random_graded_endomorphism(entry, seed))
        if entry.split is not None:
            split = SplitPresentation(algebra=entry.algebra,
                                      nil_ideal=entry.split[0],
                                      complement=entry.split[1])
            validate_split(split)
        kind = ("nilpotent" if is_nilpotent(entry.algebra) else
                "solvable" if is_solvable(entry.algebra) else "other")
        lines.append(f"{name}: ok ({kind}, dim {entry.algebra.dim})")
    return lines
