"""End-to-end command line behavior, exit codes, and output shapes."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lietrace
from lietrace.cecomplex import InternalConsistencyFailure
from lietrace.cli import (EXIT_INTERNAL, EXIT_INVALID_INPUT, EXIT_OK,
                          EXIT_VERDICT_FALSE, main)
from lietrace.documents import MAX_COCHAINS, MAX_LITERAL_DIGITS
from lietrace.ratlin import jordan_chevalley


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _task_heis(tmp_path, **extra):
    doc = {"algebra": "heisenberg3",
           "map": {"matrix": [["2", "0", "0"], ["0", "3", "0"],
                              ["0", "0", "6"]]}}
    doc.update(extra)
    return _write(tmp_path, "task.json", doc)


def test_check_accepts_valid_document(tmp_path, capsys):
    code = main(["check", _task_heis(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "algebra: ok" in out
    assert "map: ok" in out


def test_check_rejects_jacobi_violation(tmp_path, capsys):
    doc = {"algebra": {"dim": 3, "brackets": [
        {"left": 0, "right": 1, "result": {"2": "1"}},
        {"left": 0, "right": 2, "result": {"0": "1"}}]}}
    code = main(["check", _write(tmp_path, "bad.json", doc)])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID_INPUT
    assert "invalid input" in err


def test_check_rejects_non_morphism(tmp_path, capsys):
    doc = {"algebra": "heisenberg3",
           "map": {"matrix": [["2", "0", "0"], ["0", "3", "0"],
                              ["0", "0", "5"]]}}
    code = main(["check", _write(tmp_path, "bad.json", doc)])
    assert code == EXIT_INVALID_INPUT
    assert "invalid input" in capsys.readouterr().err


def test_document_error_paths_are_json_pointers(tmp_path, capsys):
    doc = {"algebra": {"dim": 3, "brackets": [
        {"left": 1, "right": 0, "result": {"2": "1"}}]}}
    code = main(["check", _write(tmp_path, "bad.json", doc)])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID_INPUT
    assert "/algebra/brackets/0" in err

    doc = {"algebra": "heisenberg3", "map": {"matrix": [[1.5]]}}
    code = main(["check", _write(tmp_path, "bad2.json", doc)])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID_INPUT
    assert "/map/matrix/0/0" in err


def test_missing_file_and_bad_json(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == EXIT_INVALID_INPUT
    assert "No such file" in capsys.readouterr().err
    path = tmp_path / "garbled.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == EXIT_INVALID_INPUT
    assert "not valid JSON" in capsys.readouterr().err


def test_decoder_limits_exit_two(tmp_path, capsys):
    # an integer past the interpreter's 4300-digit limit and an array nested
    # past the recursion limit are malformed documents, not library bugs
    huge = tmp_path / "huge.json"
    huge.write_text('{"algebra": "heisenberg3", "map": {"matrix": [[%s, 0, 0], '
                    '[0, 1, 0], [0, 0, 1]]}}' % ("1" * 5001))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for path in (huge, deep):
        assert main(["lefschetz", str(path)]) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert err.startswith("invalid input: : not valid JSON: ")
        assert "Traceback" not in err
    assert main(["cohomology", _task_heis(tmp_path), "--module",
                 str(deep)]) == EXIT_INVALID_INPUT
    assert "/module: not valid JSON: " in capsys.readouterr().err


def test_repeated_keys_exit_two(tmp_path, monkeypatch, capsys):
    # the decoder would keep the last value of a repeated key and exit 0;
    # the first object closed with a repeated key is named, even when an
    # outer repeated key would have dropped it
    bracket = '{"left": 0, "right": 1, "result": {"2": "1", "2": "5"}}'
    cases = {
        '{"algebra": {"dim": 3, "brackets": [%s]}}' % bracket: "'2'",
        '{"algebra": "heisenberg3", "algebra": "sol3"}': "'algebra'",
        '{"algebra": {"dim": 3, "dim": 3}, "algebra": "heisenberg3"}':
            "'dim'",
        '{"a": {"x": 1, "x": 2}, "a": 3}': "'x'",
    }
    path = tmp_path / "task.json"
    for text, key in cases.items():
        path.write_text(text)
        assert main(["check", str(path)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == \
            f"invalid input: : repeated key {key}\n"
    module = tmp_path / "module.json"
    module.write_text('{"dim": 1, "actions": [[["0"]], [["0"]], [["0"]]], '
                      '"dim": 2}')
    assert main(["cohomology", _task_heis(tmp_path), "--module",
                 str(module)]) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == \
        "invalid input: /module: repeated key 'dim'\n"
    catalog_dir = tmp_path / "catalog"
    catalog_dir.mkdir()
    entry = catalog_dir / "twice.json"
    entry.write_text('{"algebra": {"dim": 3, "brackets": [%s]}}' % bracket)
    monkeypatch.setenv("LEFSCHETZ_CATALOG_DIR", str(catalog_dir))
    assert main(["catalog", "show", "twice"]) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == \
        f"invalid input: {entry}#: repeated key '2'\n"


def test_cohomology_json_shape(tmp_path, capsys):
    code = main(["cohomology", _task_heis(tmp_path), "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["betti"] == [1, 2, 2, 1]
    assert doc["dims"] == [1, 3, 3, 1]
    assert doc["maps"]["1"] == [["2", "0"], ["0", "3"]]
    assert doc["maps"]["3"] == [["36"]]


def test_cohomology_verbose_lists_representatives(tmp_path, capsys):
    code = main(["cohomology", _task_heis(tmp_path), "--verbose"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "H^1 representative:" in out


def test_cohomology_module_override(tmp_path, capsys):
    # adjoint module of heisenberg3 supplied explicitly
    from lietrace.catalog import get
    from lietrace.documents import matrix_to_doc
    from lietrace.repn import adjoint_module

    module = adjoint_module(get("heisenberg3").algebra)
    module_path = _write(tmp_path, "module.json", {
        "dim": module.dim,
        "actions": [matrix_to_doc(a) for a in module.actions]})
    task = _write(tmp_path, "plain.json", {"algebra": "heisenberg3"})
    code = main(["cohomology", task, "--module", module_path, "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert json.loads(out)["betti"] == [1, 4, 5, 2]


@pytest.mark.parametrize("extra, code, err", [
    ({"intertwiner": {"matrix": [["1/2", "0", "0"], ["0", "1/3", "0"],
                                 ["0", "0", "1/6"]]}}, EXIT_OK, ""),
    ({}, EXIT_INVALID_INPUT,
     "invalid input: intertwiner not equivariant at basis vector 0\n"),
    ({"intertwiner": {"matrix": [["5"]]}}, EXIT_INVALID_INPUT,
     "invalid input: /intertwiner/matrix: expected 3 rows, got 1\n"),
], ids=["inverse", "default", "trivial-shaped"])
def test_cohomology_module_override_keeps_the_intertwiner(tmp_path, capsys,
                                                          extra, code, err):
    # the document's intertwiner, or the identity by default, is built
    # against the --module module: for the adjoint module of heisenberg3
    # and f = diag(2, 3, 6), xi = f^-1 is equivariant and xi = 1 is not
    from lietrace.catalog import get
    from lietrace.documents import matrix_to_doc

    module_path = _write(tmp_path, "module.json", {
        "dim": 3, "actions": [matrix_to_doc(a) for a in
                              get("heisenberg3").algebra.basis_ads]})
    assert main(["cohomology", _task_heis(tmp_path, **extra), "--module",
                 module_path]) == code
    assert capsys.readouterr().err == err


def test_lefschetz_agreeing_run(tmp_path, capsys):
    code = main(["lefschetz", _task_heis(tmp_path), "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc == {
        "betti": [1, 2, 2, 1],
        "dims": [1, 3, 3, 1],
        "traces": ["1", "5", "30", "36"],
        "lefschetz": "-10",
        "hopf": "-10",
        "det_i_minus_a": "-10",
        "agree": True,
    }


def test_lefschetz_disagreeing_run_exits_one(tmp_path, capsys):
    path = _task_heis(tmp_path, intertwiner={"matrix": [["2"]]})
    code = main(["lefschetz", path, "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_VERDICT_FALSE
    doc = json.loads(out)
    assert doc["lefschetz"] == "-20"
    assert doc["det_i_minus_a"] == "-10"
    assert doc["agree"] is False
    assert "intertwiner trace" in doc["note"]


def test_lefschetz_text_note(tmp_path, capsys):
    path = _task_heis(tmp_path, intertwiner={"matrix": [["5"]]})
    assert main(["lefschetz", path]) == EXIT_VERDICT_FALSE
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "agree: no",
        "note: disagreement is expected: twisted coefficients with "
        "intertwiner trace != 1 rescale the cohomological side"]


def test_lefschetz_solvable_note(tmp_path, capsys):
    doc = {"algebra": "sol3",
           "map": {"matrix": [["-1", "0", "0"], ["0", "0", "2"],
                              ["0", "1", "0"]]},
           "intertwiner": {"matrix": [["2"]]}}
    code = main(["lefschetz", _write(tmp_path, "sol.json", doc), "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_VERDICT_FALSE
    assert "not nilpotent" in json.loads(out)["note"]


def test_lefschetz_without_map_is_invalid(tmp_path, capsys):
    code = main(["lefschetz", _write(tmp_path, "nomap.json",
                                     {"algebra": "heisenberg3"})])
    assert code == EXIT_INVALID_INPUT
    assert "/map" in capsys.readouterr().err


def test_shadow_solvable_with_map(tmp_path, capsys):
    doc = {"algebra": "sol3",
           "map": {"matrix": [["-1", "0", "0"], ["0", "0", "2"],
                              ["0", "1", "0"]]}}
    path = _write(tmp_path, "sol.json", doc)
    code = main(["shadow", path, "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["shadow"]["brackets"] == []   # abelian shadow
    assert report["is_shadow_morphism"] is True
    assert report["det_i_minus_t"] == "-2"
    assert report["shadow_lefschetz"] == "-2"
    assert report["agree"] is True
    assert main(["shadow", path]) == EXIT_OK
    assert capsys.readouterr().out == (
        "shadow brackets: abelian\n"
        "induced map is shadow morphism: yes\n"
        "det(I - T): -2\n"
        "shadow lefschetz: -2\n"
        "agree: yes\n")


def test_boolean_algebra_dim_is_rejected(tmp_path, capsys):
    # bool is an int subclass; "dim": true must not pass as dimension 1
    doc = {"algebra": {"dim": True}, "map": {"matrix": [["2"]]}}
    code = main(["lefschetz", _write(tmp_path, "bool.json", doc)])
    assert code == EXIT_INVALID_INPUT
    assert "/algebra/dim" in capsys.readouterr().err


def test_boolean_module_dim_is_rejected(tmp_path, capsys):
    doc = {"algebra": {"dim": 1},
           "module": {"dim": True, "actions": [[["0"]]]},
           "map": {"matrix": [["2"]]}}
    code = main(["lefschetz", _write(tmp_path, "bool.json", doc)])
    assert code == EXIT_INVALID_INPUT
    assert "/module/dim" in capsys.readouterr().err


def test_shadow_needs_a_split(tmp_path, capsys):
    doc = {"algebra": {"dim": 2, "brackets": []}}
    code = main(["shadow", _write(tmp_path, "nosplit.json", doc)])
    assert code == EXIT_INVALID_INPUT
    assert "/split" in capsys.readouterr().err


def test_shadow_rejects_split_breaking_map(tmp_path, capsys):
    # sol3 morphisms always preserve its nilradical, so break the split on
    # an abelian algebra with a marked (and not characteristic) ideal
    doc = {"algebra": {"dim": 2, "brackets": []},
           "split": {"nil_ideal": [0], "complement": [1]},
           "map": {"matrix": [["0", "1"], ["1", "0"]]}}
    code = main(["shadow", _write(tmp_path, "broken.json", doc)])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID_INPUT
    assert (captured.out, captured.err) == (
        "", "invalid input: map sends ideal basis vector 0 outside the ideal\n")


def test_torus_text_and_json(capsys):
    code = main(["torus", "--matrix", "2,1;1,1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "fixed points: 1" in out
    assert "agree" in out

    code = main(["torus", "--matrix", "0,-1;1,0", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert doc["count"] == 2
    assert doc["points"] == [["0", "0"], ["1/2", "1/2"]]
    assert doc["ce_lefschetz"] == "2"
    assert doc["agree"] is True


def test_torus_rejects_degenerate_and_malformed(capsys):
    assert main(["torus", "--matrix", "1,0;0,1"]) == EXIT_INVALID_INPUT
    assert "not isolated" in capsys.readouterr().err
    assert main(["torus", "--matrix", "1,x;0,1"]) == EXIT_INVALID_INPUT
    assert "/matrix: not an integer: 'x'" in capsys.readouterr().err
    assert main(["torus", "--matrix", "1,2,3;4,5,6"]) == EXIT_INVALID_INPUT
    assert "/matrix: matrix must be square" in capsys.readouterr().err
    # a cell has the integer grammar of a rational literal: int() alone
    # would read 1_0 as 10, +2 as 2 and the Arabic-Indic three as 3
    for cell in ("1_0", "+2", "\u0663", "1/1"):
        assert main(["torus", "--matrix", f"{cell},1;1,1"]) == \
            EXIT_INVALID_INPUT
        assert capsys.readouterr().err == \
            f"invalid input: /matrix: not an integer: {cell!r}\n"


def test_torus_point_cap_exits_two_fast(capsys):
    # det(A - I) = 10^18: refused from the determinant, before any point
    start = time.perf_counter()
    code = main(["torus", "--matrix",
                 "1000001,0,0;0,1000001,0;0,0,1000001"])
    assert time.perf_counter() - start < 1
    assert code == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == \
        f"invalid input: {10 ** 18} fixed points, above the cap of 10000\n"


def test_torus_cochain_cap_exits_two_fast(capsys):
    # the cross-check runs the cochains of the abelian algebra of dim n, so
    # --matrix takes the documents' cap: 2^11 is refused before any
    # determinant
    start = time.perf_counter()
    code = main(["torus", "--matrix",
                 ";".join(",".join("2" if i == j else "0" for j in range(11))
                          for i in range(11))])
    assert time.perf_counter() - start < 1
    assert code == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == (
        "invalid input: /matrix: 2^11 x 1 cochain dimensions in all, above "
        "the cap of 1024\n")


def test_torus_cells_take_the_literal_cap(capsys):
    # a cell has the documents' MAX_LITERAL_DIGITS cap, counted before
    # int(), which would refuse a cell past 4300 digits at the
    # interpreter's limit as if it were not an integer
    assert main(["torus", "--matrix", f"2,{'7' * 1000};0,2"]) == EXIT_OK
    capsys.readouterr()
    for cell, digits in (("7" * 1001, 1001), ("-" + "9" * 5000, 5000)):
        assert main(["torus", "--matrix", f"2,{cell};0,2"]) == \
            EXIT_INVALID_INPUT
        assert capsys.readouterr() == ("", (
            f"invalid input: /matrix: {digits} digits in a rational literal, "
            f"above the cap of {MAX_LITERAL_DIGITS}\n"))


def _abelian_task(n, seed=0):
    # abelian of dim n with a seeded dense integer map, entries in -2..2
    rng = random.Random(seed)
    return {"algebra": {"dim": n, "brackets": []},
            "map": {"matrix": [[str(rng.randint(-2, 2)) for _ in range(n)]
                               for _ in range(n)]}}


def _zero_module(algebra_dim, m):
    zero = [["0"] * m for _ in range(m)]
    return {"dim": m, "actions": [zero] * algebra_dim}


def test_cochain_cap_refuses_large_algebras_fast(tmp_path, capsys):
    # 2^11 cochain dimensions: refused at the dim, before any elimination
    start = time.perf_counter()
    code = main(["lefschetz", _write(tmp_path, "big.json", _abelian_task(11))])
    assert time.perf_counter() - start < 1
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert err == (f"invalid input: /algebra/dim: 2^11 x 1 cochain dimensions "
                   f"in all, above the cap of {MAX_COCHAINS}\n")


def test_cochain_cap_refuses_large_modules(tmp_path, capsys):
    task = _write(tmp_path, "task.json", {"algebra": "heisenberg5"})
    module = _write(tmp_path, "module.json", _zero_module(5, 64))
    assert main(["cohomology", task, "--module", module]) == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "/module/dim: 2^5 x 64 cochain dimensions in all" in err


def test_cochain_cap_accepts_documents_at_the_cap(tmp_path, capsys):
    assert MAX_COCHAINS == 1024
    doc = _abelian_task(10)
    assert main(["check", _write(tmp_path, "a10.json", doc)]) == EXIT_OK
    doc = {"algebra": "heisenberg5", "module": _zero_module(5, 32),
           "map": {"matrix": [[str(int(i == j)) for j in range(5)]
                              for i in range(5)]}}
    assert main(["check", _write(tmp_path, "h5.json", doc)]) == EXIT_OK
    assert "module: ok (dim 32)" in capsys.readouterr().out


def _diag_task(algebra, diagonal):
    n = len(diagonal)
    return {"algebra": algebra,
            "map": {"matrix": [[diagonal[i] if i == j else "0"
                                for j in range(n)] for i in range(n)]}}


def test_long_literals_exit_two_at_their_pointer(tmp_path, capsys):
    # diag(t, 2, 2t) is a morphism of heisenberg3 whose report has twice
    # t's digits, and diag(t, t, 0) fails as a morphism with a t^2 defect;
    # past the interpreter's 4300-digit int-to-str limit either one used to
    # exit 3 while printing
    t = "7" * 2200
    a = _write(tmp_path, "a.json",
               _diag_task("heisenberg3", [t, "2", str(2 * int(t))]))
    b = _write(tmp_path, "b.json", _diag_task("heisenberg3", ["7" * 3000] * 2
                                              + ["0"]))
    for argv in (["lefschetz", a], ["lefschetz", a, "--json"],
                 ["lefschetz", b], ["check", b]):
        assert main(argv) == EXIT_INVALID_INPUT
        digits = 2200 if argv[1] == a else 3000
        assert capsys.readouterr().err == (
            f"invalid input: /map/matrix/0/0: {digits} digits in a rational "
            f"literal, above the cap of {MAX_LITERAL_DIGITS}\n")


def test_literal_digit_cap_counts_numerator_and_denominator(tmp_path, capsys):
    assert MAX_LITERAL_DIGITS == 1000
    at_cap = "-" + "3" * 500 + "/" + "7" * 500
    over = [at_cap + "1", int("9" * 1001)]
    assert main(["check", _write(tmp_path, "ok.json", _diag_task(
        "abelian_2", [at_cap, "1"]))]) == EXIT_OK
    for k, literal in enumerate(over):
        doc = _diag_task("abelian_2", ["1", "1"])
        doc["map"]["matrix"][1][0] = literal
        path = _write(tmp_path, f"over{k}.json", doc)
        assert main(["check", path]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith(
            "invalid input: /map/matrix/1/0: 1001 digits in a rational literal")


def test_reports_print_past_the_int_to_str_limit(tmp_path, capsys):
    # literals under the cap, a report over 4300 digits: det(I - A) of
    # t I on the abelian algebra of dim 5 is (1 - t)^5
    t = 7 * 10 ** 999 + 1
    path = _write(tmp_path, "big.json", _diag_task(
        {"dim": 5, "brackets": []}, [str(t)] * 5))
    assert main(["lefschetz", path, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert len(report["det_i_minus_a"]) > 4300
    assert report["lefschetz"] == report["det_i_minus_a"]
    assert Decimal(report["det_i_minus_a"]) == (1 - t) ** 5
    assert main(["lefschetz", path]) == EXIT_OK
    assert f"det(I - A):             {report['lefschetz']}\n" in \
        capsys.readouterr().out


# Document fuzzer: valid task documents with one mutation each, run through
# cli.main in process.  Every outcome must be an answer (0 or 1) or an input
# error (2); exit 3 or an escaping exception is a library bug.

_FUZZ_BASES = [
    (["lefschetz"], _diag_task("heisenberg3", ["2", "3", "6"])),
    (["lefschetz", "--json"], {
        "algebra": {"dim": 3, "brackets": [
            {"left": 0, "right": 1, "result": {"2": "1"}}]},
        "module": {"dim": 1, "actions": [[["0"]], [["0"]], [["0"]]]},
        "map": {"matrix": [["2", "0", "0"], ["0", "2", "0"],
                           ["0", "0", "4"]]},
        "intertwiner": {"matrix": [["1"]]}}),
    (["cohomology", "--json", "--verbose"], {
        "algebra": "sol3",
        "map": {"matrix": [["-1", "0", "0"], ["0", "0", "2"],
                           ["0", "1", "0"]]}}),
    (["shadow", "--json"], {
        "algebra": "sol3",
        "map": {"matrix": [["-1", "0", "0"], ["0", "0", "2"],
                           ["0", "1", "0"]]},
        "split": {"nil_ideal": [1, 2], "complement": [0]}}),
    (["check"], {
        "algebra": {"dim": 2, "brackets": [
            {"left": 0, "right": 1, "result": {"1": "1/2"}}]},
        "map": {"matrix": [["1", "0"], ["0", "3"]]}}),
]
_LITERAL = re.compile(r"-?\d+(/\d+)?")
_NEST = "@nest@"


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replace(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _paths:
        del node[path[-1]]
    else:
        node[path[-1]] = value


@st.composite
def _mutated_documents(draw):
    argv, doc = draw(st.sampled_from(_FUZZ_BASES))
    doc = json.loads(json.dumps(doc))
    paths = [p for p in _paths(doc) if p]
    literals = [p for p in paths
                if isinstance(_lookup(doc, p), str)
                and _LITERAL.fullmatch(_lookup(doc, p))]
    kind = draw(st.sampled_from(["literal", "drop", "type", "bool", "nest"]))
    depth = 0
    if kind == "literal":
        digits = draw(st.sampled_from([2200, 1000, 1001, 3000, 5000]))
        literal = draw(st.sampled_from(["", "-"])) + "7" * digits
        chosen = [draw(st.sampled_from(literals))] if draw(st.booleans()) \
            else literals
        for path in chosen:
            _replace(doc, path, literal)
    else:
        path = draw(st.sampled_from(paths))
        if kind == "drop":
            value = _paths
        elif kind == "type":
            value = draw(st.sampled_from([None, 1.5, -1, 0, "x", [], {}]))
        elif kind == "bool":
            value = draw(st.booleans())
        else:
            depth = draw(st.sampled_from([2, 100, 100_000]))
            value = _NEST
        _replace(doc, path, value)
    text = json.dumps(doc).replace(f'"{_NEST}"', "[" * depth + "]" * depth)
    return argv, text


def _lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_mutated_documents())
def test_mutated_documents_exit_zero_one_or_two(case):
    argv, text = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "task.json"
        path.write_text(text)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
        assert time.perf_counter() - start < 2
    assert code in (EXIT_OK, EXIT_VERDICT_FALSE, EXIT_INVALID_INPUT), \
        err.getvalue()[:300]
    assert "Traceback" not in err.getvalue()


def test_internal_failures_exit_three(monkeypatch, capsys):
    def boom(_):
        raise InternalConsistencyFailure("forced for the test")

    monkeypatch.setattr("lietrace.torus_oracle.count_fixed_points", boom)
    code = main(["torus", "--matrix", "2,1;1,1"])
    assert code == EXIT_INTERNAL
    assert "internal consistency failure" in capsys.readouterr().err


def test_library_value_error_exits_three(tmp_path, monkeypatch, capsys):
    # a ValueError that is not InvalidInput comes from inside the library
    def shape_bug(*args):
        raise ValueError("shape mismatch 3x3 * 4x1")

    monkeypatch.setattr("lietrace.lefschetz.build_complex", shape_bug)
    code = main(["cohomology", _task_heis(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL
    assert "internal consistency failure: shape mismatch 3x3 * 4x1" in err
    assert "invalid input" not in err


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_any_other_exception_exits_three(tmp_path, monkeypatch, capsys, error):
    def bug(*args, **kwargs):
        raise error("forced for the test")

    monkeypatch.setattr("lietrace.cli.twisted_lefschetz", bug)
    assert main(["lefschetz", _task_heis(tmp_path)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal consistency failure: ")
    assert "forced for the test" in err and "Traceback" not in err


def test_external_catalog_entry_errors_exit_two(tmp_path, monkeypatch, capsys):
    # entries in LEFSCHETZ_CATALOG_DIR go through the task document parsers
    catalog_dir = tmp_path / "catalog"
    catalog_dir.mkdir()
    algebra = {"dim": 3, "brackets": [
        {"left": 0, "right": 1, "result": {"2": "1"}}]}
    entries = {
        "nocomplement": ({"algebra": algebra, "split": {"nil_ideal": [0]}},
                         "#/split: expected 'nil_ideal' and 'complement'"),
        "badindex": ({"algebra": algebra,
                      "split": {"nil_ideal": [0, 1, 7], "complement": []}},
                     "#/split/nil_ideal/2: expected a basis index in 0..2"),
        "badgrading": ({"algebra": algebra, "grading": [1, 1, 0]},
                       "#/grading: expected 3 positive integer weights"),
        "notanobject": ([algebra], "#: expected a top-level object"),
        "badalgebra": ({"algebra": {"dim": 0}}, "#/algebra"),
        "bare": ({"dim": 0}, "#/dim: expected a positive integer"),
    }
    for name, (doc, _) in entries.items():
        _write(catalog_dir, f"{name}.json", doc)
    monkeypatch.setenv("LEFSCHETZ_CATALOG_DIR", str(catalog_dir))
    for name, (_, message) in entries.items():
        path = _write(tmp_path, "task.json", {
            "algebra": name, "map": {"matrix": [[1, 0, 0], [0, 1, 0],
                                                [0, 0, 1]]}})
        assert main(["lefschetz", path]) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        # the entry file is named, so the pointer cannot be read as one
        # into the task document
        entry_file = catalog_dir / f"{name}.json"
        assert err.startswith(f"invalid input: {entry_file}{message}"), err


def test_catalog_names_stay_in_the_catalog_dir(tmp_path, monkeypatch, capsys):
    # an external entry is a file name in LEFSCHETZ_CATALOG_DIR itself; a
    # relative or absolute path to a JSON file outside it is unknown
    entries, outside = tmp_path / "entries", tmp_path / "outside"
    entries.mkdir()
    outside.mkdir()
    _write(entries, "inside.json", {"dim": 2})
    _write(outside, "evil.json", {"dim": 2})
    monkeypatch.setenv("LEFSCHETZ_CATALOG_DIR", str(entries))
    identity = {"matrix": [[1, 0], [0, 1]]}
    path = _write(tmp_path, "task.json", {"algebra": "inside", "map": identity})
    assert main(["lefschetz", path]) == EXIT_OK
    capsys.readouterr()
    for name in ("../outside/evil", str(outside / "evil")):
        path = _write(tmp_path, "task.json", {"algebra": name, "map": identity})
        assert main(["lefschetz", path]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == \
            f"invalid input: /algebra: unknown catalog entry {name!r}\n"
        assert main(["catalog", "show", name]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == \
            f"invalid input: /name: unknown catalog entry {name!r}\n"
    assert main(["catalog", "list"]) == EXIT_OK
    names = capsys.readouterr().out.split()
    assert "inside" in names and not any("evil" in n for n in names)


def test_shadow_decomposes_each_generator_once(tmp_path, monkeypatch, capsys):
    from lietrace import nilshadow
    calls = []

    def counting(m):
        calls.append(m)
        return jordan_chevalley(m)

    monkeypatch.setattr(nilshadow, "jordan_chevalley", counting)
    path = _write(tmp_path, "sol3.json", {"algebra": "sol3"})
    assert main(["shadow", path]) == EXIT_OK
    assert len(calls) == 1      # sol3 has one complement generator


def test_invalid_split_exits_two_from_shadow(tmp_path, capsys):
    # the split is validated inside build_shadow, with the same messages
    doc = {"algebra": {"dim": 2, "brackets": []},
           "split": {"nil_ideal": [0], "complement": []}}
    code = main(["shadow", _write(tmp_path, "partial.json", doc)])
    assert code == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == ("invalid input: nil_ideal and "
                                       "complement must partition the basis "
                                       "indices\n")
    doc = {"algebra": "heisenberg3",
           "split": {"nil_ideal": [0], "complement": [1, 2]}}
    code = main(["shadow", _write(tmp_path, "notideal.json", doc)])
    assert code == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == \
        "invalid input: [e1, e0] leaves the span of the ideal\n"


# input faults that only their message tells apart, pinned byte for byte
@pytest.mark.parametrize("argv, doc, message", [
    (["torus", "--matrix", "1,0;0,1"], None,
     "det(A - I) = 0, fixed points are not isolated; the Lefschetz number "
     "is still available through the cochain pipeline (lefschetz command)"),
    (["torus", "--matrix", "102,0;0,102"], None,
     "10201 fixed points, above the cap of 10000"),
    (["shadow"], {"algebra": "heisenberg3",
                  "split": {"nil_ideal": [2], "complement": [0, 1]}},
     "[e0, e1] != 0"),
    (["shadow"], {"algebra": "sol3",
                  "split": {"nil_ideal": [0, 1, 2], "complement": []}},
     "marked ideal is not nilpotent"),
    (["shadow"], {"algebra": "heisenberg3",
                  "split": {"nil_ideal": [0], "complement": [1, 2]}},
     "[e1, e0] leaves the span of the ideal"),
    (["shadow"], {"algebra": {"dim": 2, "brackets": []},
                  "split": {"nil_ideal": [0], "complement": []}},
     "nil_ideal and complement must partition the basis indices"),
    # the document faults no other test reaches, one per _fail site
    (["check"], ["heisenberg3"], ": expected a top-level object"),
    (["check"], {"algebra": "nosuch"},
     "/algebra: unknown catalog entry 'nosuch'"),
    (["check"], {"algebra": {"dim": 2, "basis": ["x"]}},
     "/algebra/basis: expected 2 label strings"),
    (["check"], {"algebra": {"dim": 2, "brackets": {}}},
     "/algebra/brackets: expected a list"),
    (["check"], {"algebra": {"dim": 2, "brackets": [[0, 1]]}},
     "/algebra/brackets/0: expected an object"),
    (["check"], {"algebra": {"dim": 3, "brackets": [
        {"left": 0, "right": 1, "result": {"2": "1"}},
        {"left": 0, "right": 1, "result": {"2": "1"}}]}},
     "/algebra/brackets/1: duplicate bracket (0,1)"),
    (["check"], {"algebra": "heisenberg3", "module": 1},
     "/module: expected an object"),
    (["check"], {"algebra": "abelian_1", "map": {"matrix": [["2"]]},
                 "intertwiner": [["1"]]},
     "/intertwiner: expected an object with a 'matrix' field"),
    (["check"], {"algebra": "heisenberg3", "split": [[0], [1, 2]]},
     "/split: expected an object"),
], ids=["degenerate-torus", "torus-cap", "complement-not-abelian",
        "ideal-not-nilpotent", "not-an-ideal", "not-a-partition",
        "task-not-an-object", "unknown-entry", "basis-labels",
        "brackets-not-a-list", "bracket-not-an-object", "duplicate-bracket",
        "module-not-an-object", "intertwiner-not-an-object",
        "split-not-an-object"])
def test_input_fault_stderr_pins(tmp_path, capsys, argv, doc, message):
    if doc is not None:
        argv = argv + [_write(tmp_path, "fault.json", doc)]
    code = main(argv)
    assert (*capsys.readouterr(), code) == \
        ("", f"invalid input: {message}\n", EXIT_INVALID_INPUT)


@pytest.mark.parametrize("result, key", [
    ({"2": "1", "+2": "5"}, "+2"),
    ({" 2 ": "1", "0_2": "7"}, " 2 "),
    ({"02": "1"}, "02"),
    ({"-0": "1"}, "-0"),
    ({"3": "1"}, "3"),
], ids=["plus", "spaces", "leading-zero", "minus-zero", "out-of-range"])
def test_bracket_result_keys_have_one_spelling(tmp_path, capsys, result, key):
    # "+2", " 2 " and "0_2" all read as 2 under int(); a second spelling of
    # an index must not silently replace the first
    doc = {"algebra": {"dim": 3, "brackets": [
        {"left": 0, "right": 1, "result": result}]}}
    code = main(["check", _write(tmp_path, "keys.json", doc)])
    assert (*capsys.readouterr(), code) == (
        "", f"invalid input: /algebra/brackets/0/result/{key}: expected a "
            "basis index in 0..2\n", EXIT_INVALID_INPUT)


def test_zero_polynomial_divisor_exits_three(tmp_path, monkeypatch, capsys):
    # a zero gcd makes the squarefree part divide by the zero polynomial
    monkeypatch.setattr("lietrace.ratlin._poly_gcd", lambda p, q: [])
    code = main(["shadow", _write(tmp_path, "sol3.json", {"algebra": "sol3"})])
    assert code == EXIT_INTERNAL
    assert "division by zero polynomial" in capsys.readouterr().err


def test_catalog_commands(capsys):
    assert main(["catalog", "list"]) == EXIT_OK
    names = capsys.readouterr().out.split()
    assert "heisenberg3" in names and "sol3" in names

    assert main(["catalog", "show", "heisenberg3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nilpotent" in out and "[e0,e1] = e2" in out

    assert main(["catalog", "show", "sol3"]) == EXIT_OK
    assert "  split: ideal [1, 2], complement [0]\n" in capsys.readouterr().out

    assert main(["catalog", "export", "sol3"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["split"] == {"nil_ideal": [1, 2], "complement": [0]}

    assert main(["catalog", "selftest"]) == EXIT_OK
    assert "all entries pass" in capsys.readouterr().out

    assert main(["catalog", "show"]) == EXIT_INVALID_INPUT
    assert "/name: catalog show needs a name" in capsys.readouterr().err
    for action in ("show", "export"):
        assert main(["catalog", action, "nosuch"]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == \
            "invalid input: /name: unknown catalog entry 'nosuch'\n"


def test_no_arguments_prints_help(capsys):
    assert main([]) == EXIT_INVALID_INPUT
    assert "usage" in capsys.readouterr().out.lower()


def test_json_output_is_deterministic(tmp_path, capsys):
    path = _task_heis(tmp_path)
    main(["lefschetz", path, "--json"])
    first = capsys.readouterr().out
    main(["lefschetz", path, "--json"])
    second = capsys.readouterr().out
    assert first == second


def _count_input_checks(monkeypatch) -> dict:
    """Validator name -> calls, counted at every site where cli, lefschetz
    and nilshadow look the four validators up."""
    from lietrace import cli, lefschetz, nilshadow

    calls = {}
    for name in ("validate", "validate_rep", "check_morphism",
                 "validate_intertwiner"):
        def counting(arg, _name=name, _original=getattr(lefschetz, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(arg)
        for module in (cli, lefschetz, nilshadow):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls


def test_lefschetz_runs_each_input_check_once(tmp_path, monkeypatch, capsys):
    # the library call validates the algebra, module, map and intertwiner;
    # the command adds no second pass.  conftest empties the coefficient
    # cache, so the algebra and module checks run too.
    calls = _count_input_checks(monkeypatch)
    doc = {"algebra": {"dim": 3, "brackets": [
               {"left": 0, "right": 1, "result": {"2": "1"}}]},
           "map": {"matrix": [["2", "0", "0"], ["0", "3", "0"],
                              ["0", "0", "6"]]}}
    assert main(["lefschetz", _write(tmp_path, "heis.json", doc)]) == EXIT_OK
    assert calls == {"validate": 1, "validate_rep": 1, "check_morphism": 1,
                     "validate_intertwiner": 1}


def test_lefschetz_validates_a_split_algebra_twice(tmp_path, monkeypatch,
                                                   capsys):
    # every catalog entry carries a split, and validate_split, public, must
    # validate the algebra it is given: on a catalog-named document the
    # algebra is validated by the library call and again by the split check
    calls = _count_input_checks(monkeypatch)
    assert main(["lefschetz", _task_heis(tmp_path)]) == EXIT_OK
    assert calls == {"validate": 2, "validate_rep": 1, "check_morphism": 1,
                     "validate_intertwiner": 1}


_DIAG = [["2", "0", "0"], ["0", "3", "0"], ["0", "0", "6"]]
_NON_MORPHISM = [["2", "0", "0"], ["0", "3", "0"], ["0", "0", "5"]]
_IDENTITY = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
_HEIS_ADJOINT = {"dim": 3, "actions": [
    [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]],
    [["0", "0", "0"], ["0", "0", "0"], ["-1", "0", "0"]],
    [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]]}
_NOT_AN_IDEAL = {"nil_ideal": [0], "complement": [1, 2]}
_NOT_PRESERVED = ("invalid input: bracket not preserved on basis pair (0,1), "
                  "defect (0, 0, 1)\n")
# one fault each, and one document with two, and the stderr each gives
# whichever library call or command checks it: the same line for all three
# commands, as it was when they validated their input before the library
# call.  Each document has a split, its own or its catalog entry's, since
# shadow needs one.
_FAULTS = [
    ({"algebra": {"dim": 3, "brackets": [
        {"left": 0, "right": 1, "result": {"2": "1"}},
        {"left": 0, "right": 2, "result": {"0": "1"}}]},
      "split": {"nil_ideal": [1, 2], "complement": [0]},
      "map": {"matrix": _IDENTITY}},
     "invalid input: Jacobi identity fails on basis triple (0,1,2), "
     "defect (0, 0, -1)\n"),
    ({"algebra": "heisenberg3", "map": {"matrix": _DIAG},
      "module": {"dim": 2, "actions": [[["0", "1"], ["0", "0"]],
                                       [["0", "0"], ["1", "0"]],
                                       [["0", "0"], ["0", "0"]]]}},
     "invalid input: compatibility fails on basis pair (0,1): "
     "rho([e_i,e_j]) != [rho(e_i), rho(e_j)]\n"),
    ({"algebra": "heisenberg3", "map": {"matrix": _NON_MORPHISM}},
     _NOT_PRESERVED),
    # the adjoint module with xi = 1, not equivariant for f = diag(2, 3, 6)
    ({"algebra": "heisenberg3", "map": {"matrix": _DIAG},
      "module": _HEIS_ADJOINT, "intertwiner": {"matrix": _IDENTITY}},
     "invalid input: intertwiner not equivariant at basis vector 0\n"),
    ({"algebra": "heisenberg3", "map": {"matrix": _DIAG},
      "split": _NOT_AN_IDEAL},
     "invalid input: [e1, e0] leaves the span of the ideal\n"),
    ({"algebra": "heisenberg3", "map": {"matrix": _NON_MORPHISM},
      "split": _NOT_AN_IDEAL},
     _NOT_PRESERVED),
]


@pytest.mark.parametrize("command", ["lefschetz", "cohomology", "shadow"])
@pytest.mark.parametrize("doc,message", _FAULTS)
def test_first_fault_named_on_stderr(tmp_path, capsys, command, doc, message):
    code = main([command, _write(tmp_path, "fault.json", doc)])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID_INPUT
    assert (captured.out, captured.err) == ("", message)


@pytest.mark.parametrize("command", ["check", "lefschetz", "cohomology",
                                     "shadow"])
@pytest.mark.parametrize("doc", [
    {**_FAULTS[0][0], "map": {"matrix": _NON_MORPHISM}},
    {**_FAULTS[1][0], "map": {"matrix": _NON_MORPHISM}},
], ids=["algebra", "module"])
def test_every_command_names_the_map_first(tmp_path, capsys, command, doc):
    # one order for every command: the map, then the algebra, the module
    # and the intertwiner; a broken algebra or module is named only once
    # the map is a morphism
    assert main([command, _write(tmp_path, "faults.json", doc)]) == \
        EXIT_INVALID_INPUT
    assert capsys.readouterr() == ("", _NOT_PRESERVED)


def _perturb_d1(monkeypatch):
    """One more unit at (3, 0) of d_1: d_2 d_1 != 0 on heisenberg3 with the
    adjoint module, as in test_d_squared_nonzero_is_an_internal_failure."""
    from lietrace import cecomplex
    from lietrace.ratlin import Matrix
    differential = cecomplex._differential

    def perturbed(algebra, module, p):
        d = differential(algebra, module, p)
        if p != 1:
            return d
        rows = [list(row) for row in d.entries]
        rows[3][0] += 1
        return Matrix(rows)
    monkeypatch.setattr(cecomplex, "_differential", perturbed)


def _skip_intertwiner_check(monkeypatch):
    monkeypatch.setattr("lietrace.lefschetz.validate_intertwiner",
                        lambda xi: None)


@pytest.mark.parametrize("patch, xi, message", [
    # f itself in place of its inverse, past the equivariance check
    (_skip_intertwiner_check, _DIAG,
     "induced map does not commute with d at degree 0"),
    (_perturb_d1, [["1/2", "0", "0"], ["0", "1/3", "0"], ["0", "0", "1/6"]],
     "d squared nonzero at degree 1"),
])
def test_complex_certificates_exit_three(tmp_path, monkeypatch, capsys,
                                         patch, xi, message):
    patch(monkeypatch)
    doc = {"algebra": "heisenberg3", "map": {"matrix": _DIAG},
           "module": _HEIS_ADJOINT, "intertwiner": {"matrix": xi}}
    code = main(["lefschetz", _write(tmp_path, "task.json", doc)])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert (captured.out, captured.err) == \
        ("", f"internal consistency failure: {message}\n")


def test_rank_nullity_fires_on_a_dropped_kernel_row(tmp_path, monkeypatch,
                                                    capsys):
    # a kernel that loses its first row loses the one degree-0 class of
    # heisenberg3 with the adjoint module: with no map to report on, the
    # Betti numbers 0 3 4 2 (for 1 4 5 2) pass the representative count, and
    # Poincare duality covers only the trivial module
    from lietrace import cecomplex, ratlin

    def drop_first(m):
        kernel, image = ratlin.kernel_and_image(m)
        return kernel.submatrix(range(1, kernel.rows), range(kernel.cols)), image
    monkeypatch.setattr(cecomplex, "kernel_and_image", drop_first)
    doc = {"algebra": "heisenberg3", "module": _HEIS_ADJOINT}
    code = main(["cohomology", _write(tmp_path, "task.json", doc)])
    assert (code, *capsys.readouterr()) == (
        EXIT_INTERNAL, "",
        "internal consistency failure: rank-nullity fails at degree 0: "
        "kernel 0 + image 2 != dim C^p 3\n")


def _run_under_the_c_locale(args, utf8=False, **env):
    """`python -m lietrace.cli *args` under the C locale, whose encoding is
    ASCII without UTF-8 mode, with no PYTHONUTF8 or PYTHONIOENCODING."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lietrace.__file__)))
    env = {**{k: v for k, v in os.environ.items()
              if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}, **env}
    env.update(LC_ALL="C", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-X", f"utf8={int(utf8)}", "-m",
                           "lietrace.cli", *args],
                          env=env, capture_output=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_documents_decode_as_utf8_under_any_locale(tmp_path):
    # RFC 8259: JSON text is UTF-8, whatever the locale's encoding
    path = tmp_path / "label.json"
    path.write_bytes(json.dumps({"algebra": {"dim": 1, "basis": ["\u00e9"]}},
                                ensure_ascii=False).encode("utf-8"))
    assert _run_under_the_c_locale(["check", str(path)]) == (
        EXIT_OK, b"algebra: ok (dim 1, Jacobi verified)\nmodule: ok (dim 1)\n",
        b"")


@pytest.mark.parametrize("utf8, label", [(False, b"\\xe9"),
                                         (True, "\u00e9".encode())],
                         ids=["ascii", "utf8"])
def test_labels_print_under_any_locale(tmp_path, utf8, label):
    # a label the stdout encoding cannot hold is printed backslash-escaped,
    # as stderr does, and a UTF-8 stdout gets it as it is
    algebra = {"dim": 3, "basis": ["\u00e9", "x", "y"],
               "brackets": [{"left": 0, "right": 1, "result": {"2": "1"}}]}
    (tmp_path / "catalog").mkdir()
    for path, doc in ((tmp_path / "task.json",
                       {"algebra": algebra,
                        "split": {"nil_ideal": [0, 1, 2], "complement": []}}),
                      (tmp_path / "catalog" / "accent.json", algebra)):
        path.write_text(json.dumps(doc), encoding="utf-8")
    brackets = b"[" + label + b",x] = y\n"
    assert _run_under_the_c_locale(["shadow", str(tmp_path / "task.json")],
                                   utf8) == \
        (EXIT_OK, b"shadow brackets: " + brackets, b"")
    assert _run_under_the_c_locale(
        ["catalog", "show", "accent"], utf8,
        LEFSCHETZ_CATALOG_DIR=str(tmp_path / "catalog")) == \
        (EXIT_OK, b"accent: dim 3, nilpotent\n  brackets: " + brackets, b"")


def test_cli_import_loads_no_dataclasses_machinery():
    # the values derive from ratlin.Record: importing dataclasses would load
    # these modules into every command-line process
    src = os.path.dirname(os.path.dirname(os.path.abspath(lietrace.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = ("import sys, lietrace.cli; print(' '.join(sorted({'dataclasses', "
              "'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules))))")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n", f"loaded: {proc.stdout}"
