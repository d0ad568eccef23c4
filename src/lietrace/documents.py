"""JSON document parsing and rendering for the command line.

All rationals cross the boundary as strings in lowest terms ('7', '-3/2');
plain JSON integers are also accepted on input, floats never are.  Parse
errors carry a JSON-pointer-style path to the offending field.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .liealg import LieAlgebra, LieMorphism
from .ratlin import InvalidInput, Matrix, format_rational, parse_rational
from .repn import Intertwiner, Representation, trivial_module

MAX_COCHAINS = 1024   # bounds sum_p dim C^p = 2^n m (dim n, module dim m)
MAX_LITERAL_DIGITS = 1000   # digits in one rational literal, '-p/q' or p


class InvalidDocument(InvalidInput):
    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _fail(path, message):
    raise InvalidDocument(path, message)


def load_json(path: str, pointer: str = ""):
    """The JSON document in the file at path.  Every decoder failure is an
    InvalidDocument at pointer: malformed text, bytes that are not UTF-8 and
    an integer past the interpreter's digit limit (each a ValueError), and
    nesting past the recursion limit (RecursionError).  So is a key repeated
    in one object, which the decoder would resolve to its last value."""
    def unique_keys(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                _fail(pointer, f"repeated key {key!r}")
            seen.add(key)
        return dict(pairs)

    with open(path, encoding="utf-8") as fh:   # RFC 8259
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except InvalidDocument:
            raise
        except (ValueError, RecursionError) as exc:
            raise InvalidDocument(pointer, f"not valid JSON: {exc}")


def _rational(value, path) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        _fail(path, f"expected a rational string, got {value!r}")
    if not isinstance(value, (int, str)):
        _fail(path, f"expected a rational string, got {type(value).__name__}")
    text = format_rational(value) if isinstance(value, int) else value
    cap_literal(text, path)
    try:
        return parse_rational(text)
    except ValueError as exc:
        _fail(path, str(exc))


def _matrix(value, path, rows=None, cols=None) -> Matrix:
    if not isinstance(value, list) or not value or \
            not all(isinstance(r, list) for r in value):
        _fail(path, "expected a non-empty list of rows")
    entries = [[_rational(x, f"{path}/{i}/{j}") for j, x in enumerate(row)]
               for i, row in enumerate(value)]
    width = len(entries[0])
    for i, row in enumerate(entries):
        if len(row) != width:
            _fail(f"{path}/{i}", "ragged row")
    if rows is not None and len(entries) != rows:
        _fail(path, f"expected {rows} rows, got {len(entries)}")
    if cols is not None and width != cols:
        _fail(path, f"expected {cols} columns, got {width}")
    return Matrix(entries)


def cap_literal(text: str, path: str) -> None:
    """Refuse a literal of more than MAX_LITERAL_DIGITS digits."""
    digits = sum(map(str.isdigit, text))
    if digits > MAX_LITERAL_DIGITS:
        _fail(path, f"{digits} digits in a rational literal, above the cap "
                    f"of {MAX_LITERAL_DIGITS}")


def cap_cochains(n: int, m: int, path: str) -> None:
    """Refuse 2^n m cochains above MAX_COCHAINS, never forming a large 2^n."""
    if n >= MAX_COCHAINS.bit_length() or m << n > MAX_COCHAINS:
        _fail(path, f"2^{n} x {m} cochain dimensions in all, above the cap "
                    f"of {MAX_COCHAINS}")


def _index(value, path, dim) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < dim:
        _fail(path, f"expected a basis index in 0..{dim - 1}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# algebra documents
# ---------------------------------------------------------------------------

def algebra_from_doc(doc, path="/algebra") -> LieAlgebra:
    if not isinstance(doc, dict):
        _fail(path, "expected an object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        _fail(f"{path}/dim", "expected a positive integer")
    cap_cochains(dim, 1, f"{path}/dim")
    labels = doc.get("basis")
    if labels is not None:
        if (not isinstance(labels, list) or len(labels) != dim
                or not all(isinstance(x, str) for x in labels)):
            _fail(f"{path}/basis", f"expected {dim} label strings")
    brackets = {}
    indices = {str(k): k for k in range(dim)}   # the one spelling of each
    raw = doc.get("brackets", [])
    if not isinstance(raw, list):
        _fail(f"{path}/brackets", "expected a list")
    for idx, item in enumerate(raw):
        here = f"{path}/brackets/{idx}"
        if not isinstance(item, dict):
            _fail(here, "expected an object")
        i = _index(item.get("left"), f"{here}/left", dim)
        j = _index(item.get("right"), f"{here}/right", dim)
        if not i < j:
            _fail(here, f"need left < right, got ({i},{j})")
        if (i, j) in brackets:
            _fail(here, f"duplicate bracket ({i},{j})")
        result = item.get("result")
        if not isinstance(result, dict):
            _fail(f"{here}/result", "expected an object of index -> rational")
        comps = {}
        for key, val in result.items():
            if key not in indices:
                _fail(f"{here}/result/{key}", f"expected a basis index in 0..{dim - 1}")
            comps[indices[key]] = _rational(val, f"{here}/result/{key}")
        brackets[(i, j)] = comps
    return LieAlgebra(dim=dim, brackets=brackets,
                      labels=tuple(labels) if labels else ())


def algebra_to_doc(algebra: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(algebra.brackets):
        comps = algebra.brackets[(i, j)]
        brackets.append({
            "left": i, "right": j,
            "result": {str(k): format_rational(c)
                       for k, c in sorted(comps.items())}})
    return {"dim": algebra.dim, "basis": list(algebra.labels),
            "brackets": brackets}


# ---------------------------------------------------------------------------
# task documents: algebra + map + optional module/intertwiner/split
# ---------------------------------------------------------------------------

class TaskDocument:
    def __init__(self, algebra, morphism, module, intertwiner, split):
        self.algebra = algebra
        self.morphism = morphism            # LieMorphism or None
        self.module = module                # Representation
        self.intertwiner = intertwiner      # Intertwiner or None (no map)
        self.split = split                  # (nil_ideal, complement) or None


def task_from_doc(doc, module_doc=None) -> TaskDocument:
    """The task of a parsed document.  module_doc, a --module file, stands
    in for the module field, which is still parsed first; the intertwiner
    is built against the module in force."""
    from .catalog import UnknownEntry, get

    if not isinstance(doc, dict):
        _fail("", "expected a top-level object")
    if "algebra" not in doc:
        _fail("/algebra", "missing")
    raw_algebra = doc["algebra"]
    if isinstance(raw_algebra, str):
        try:
            entry = get(raw_algebra)
        except UnknownEntry as exc:
            _fail("/algebra", str(exc))
        algebra, split = entry.algebra, entry.split
    else:
        algebra = algebra_from_doc(raw_algebra, "/algebra")
        split = None

    module = trivial_module(algebra)
    if "module" in doc:
        module = module_from_doc(doc["module"], algebra, "/module")
    if module_doc is not None:
        module = module_from_doc(module_doc, algebra, "/module")

    morphism = None
    if "map" in doc:
        matrix = _matrix_field(doc, "map", algebra.dim)
        morphism = LieMorphism(source=algebra, target=algebra, matrix=matrix)

    intertwiner = None
    if morphism is not None:
        if "intertwiner" in doc:
            matrix = _matrix_field(doc, "intertwiner", module.dim)
        else:
            matrix = Matrix.identity(module.dim)
        intertwiner = Intertwiner(morphism=morphism, module=module,
                                  matrix=matrix)
    elif "intertwiner" in doc:
        _fail("/intertwiner", "an intertwiner needs a map")

    if "split" in doc:
        split = split_from_doc(doc["split"], algebra.dim)

    return TaskDocument(algebra=algebra, morphism=morphism, module=module,
                        intertwiner=intertwiner, split=split)


def _matrix_field(doc, key, dim) -> Matrix:
    """The dim x dim matrix of the object at /key, an object with a
    'matrix' field."""
    raw = doc[key]
    if not isinstance(raw, dict) or "matrix" not in raw:
        _fail(f"/{key}", "expected an object with a 'matrix' field")
    return _matrix(raw["matrix"], f"/{key}/matrix", rows=dim, cols=dim)


def split_from_doc(raw, dim) -> tuple:
    """(nil_ideal, complement) index tuples of the split at /split."""
    if not isinstance(raw, dict):
        _fail("/split", "expected an object")
    ideal = raw.get("nil_ideal")
    comp = raw.get("complement")
    if not isinstance(ideal, list) or not isinstance(comp, list):
        _fail("/split", "expected 'nil_ideal' and 'complement' index lists")
    return (tuple(_index(x, f"/split/nil_ideal/{k}", dim)
                  for k, x in enumerate(ideal)),
            tuple(_index(x, f"/split/complement/{k}", dim)
                  for k, x in enumerate(comp)))


def grading_from_doc(raw, dim) -> tuple:
    """The positive integer weights, one per basis vector, at /grading."""
    if (not isinstance(raw, list) or len(raw) != dim
            or not all(isinstance(w, int) and not isinstance(w, bool)
                       and w > 0 for w in raw)):
        _fail("/grading", f"expected {dim} positive integer weights")
    return tuple(raw)


def module_from_doc(doc, algebra, path="/module") -> Representation:
    if not isinstance(doc, dict):
        _fail(path, "expected an object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        _fail(f"{path}/dim", "expected a positive integer")
    cap_cochains(algebra.dim, dim, f"{path}/dim")
    raw_actions = doc.get("actions")
    if not isinstance(raw_actions, list) or len(raw_actions) != algebra.dim:
        _fail(f"{path}/actions", f"expected {algebra.dim} action matrices")
    actions = [_matrix(a, f"{path}/actions/{i}", rows=dim, cols=dim)
               for i, a in enumerate(raw_actions)]
    return Representation(algebra=algebra, dim=dim, actions=tuple(actions))


def matrix_to_doc(m: Matrix) -> list:
    return [list(map(format_rational, row)) for row in m.entries]
