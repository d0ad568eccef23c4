"""The committed mutation list and its opt-in runner.

Each entry of MUTANTS is (file, old text, new text, test, kind): `old` is
a piece of src/lietrace/<file> that occurs there exactly once, `new` is
what the mutant puts in its place, and `test` is the tier-1 test that
should kill it.  `kind` says which check kills it:

  certificate  a runtime certificate raises InternalConsistencyFailure
               on the ordinary input of the test;
  firing       the mutant weakens a certificate, and the test that makes
               that certificate fire sees it no longer fire as it should;
  oracle       a per-degree or reference oracle in the tests disagrees;
  frozen       only a frozen hash or hand-computed value notices.

    python tests/mutants.py          # every entry
    python tests/mutants.py 0 3      # the entries at those indices

applies each entry to a fresh temporary copy of src/ and tests/, runs its
test there with pytest, and prints one line per entry.  A mutant survives
when its test passes; a certificate mutant that fails its test without an
InternalConsistencyFailure is reported as killed by another check.  The
run exits 1 if any entry survives or is killed by the wrong kind of check.
It uses the standard library only and is not part of tier-1, which checks
only that every `old` still occurs exactly once
(tests/test_source.py::test_every_mutant_applies_once).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("certificate", "firing", "oracle", "frozen")

MUTANTS = [
    # a scalar xi dropped from the diagonal weights past degree 0: the
    # blocks still commute with d and Hopf compares two sides of them
    ("cecomplex.py", "products if mu == [1]", "products if len(mu) == 1",
     "tests/test_acceptance.py::test_hopf_trace_identity_everywhere",
     "certificate"),
    # the first kernel row of every differential dropped
    ("ratlin.py", "return (Matrix._canonical(kernel, m.cols, den),",
     "return (Matrix._canonical(kernel[1:], m.cols, den),",
     "tests/test_cecomplex.py::test_betti_numbers_frozen", "certificate"),
    # negated class coordinates
    ("cecomplex.py", "coordinates = coordinates.transpose()",
     "coordinates = -coordinates.transpose()",
     "tests/test_cecomplex.py::test_betti_numbers_frozen", "certificate"),
    # the traces of H^0 and H^2 swapped: the Lefschetz number and Hopf hold
    ("lefschetz.py", "cohom_traces = tuple(m.trace() for m in maps)",
     "cohom_traces = tuple(m.trace() for m in maps[2::-1] + maps[3:])",
     "tests/test_generated.py::"
     "test_each_cohomology_trace_is_cocycles_less_coboundaries", "oracle"),
    # the sign of the module action in the differential flipped (d o d
    # still vanishes for heisenberg3 with its adjoint module)
    ("cecomplex.py", "scale = (-1 if odd else 1) * (den // action.den)",
     "scale = (1 if odd else -1) * (den // action.den)",
     "tests/test_cecomplex.py::test_d_squared_zero_random_modules",
     "certificate"),
    # the d o d check stops a degree early, or never runs
    ("cecomplex.py", "for p in range(n - 1):", "for p in range(n - 2):",
     "tests/test_cecomplex.py::test_d_squared_nonzero_is_an_internal_failure",
     "firing"),
    ("cecomplex.py",
     "if not vanishes([(1, differentials[p + 1], differentials[p])]):",
     "if False:",
     "tests/test_cecomplex.py::test_d_squared_nonzero_is_an_internal_failure",
     "firing"),
    # ... or raises as bad input
    ("cecomplex.py",
     'raise InternalConsistencyFailure(f"d squared nonzero at degree {p}")',
     'raise InvalidInput(f"d squared nonzero at degree {p}")',
     "tests/test_cecomplex.py::test_d_squared_nonzero_is_an_internal_failure",
     "firing"),
    # the chain-map check skips degree 0, on both routes
    ("cecomplex.py", "for p, commutes in enumerate(verdicts):",
     "for p, commutes in list(enumerate(verdicts))[1:]:",
     "tests/test_cecomplex.py::test_chain_map_violation_frozen", "firing"),
    # the Kronecker route's check never fails
    ("cecomplex.py",
     "verdicts = (vanishes([(1, blocks[p + 1], d), (-1, d, blocks[p])])",
     "verdicts = (True",
     "tests/test_cecomplex.py::test_chain_map_violation_frozen", "firing"),
    # the chain-map failure raised as bad input
    ("cecomplex.py",
     "raise InternalConsistencyFailure(\n"
     '                f"induced map does not commute',
     "raise InvalidInput(\n"
     '                f"induced map does not commute',
     "tests/test_cecomplex.py::test_chain_map_violation_frozen", "firing"),
]


def _run(entry: tuple) -> tuple[str, str]:
    """(verdict, last failure line) for one entry, run in a fresh copy."""
    file, old, new, test, kind = entry
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info",
                                        ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = Path(tmp) / "src" / "lietrace" / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale", f"{file}: old text occurs {text.count(old)} times"
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", test], cwd=tmp, env=env,
            capture_output=True, text=True, timeout=600)
    output = proc.stdout + proc.stderr
    errors = [line for line in output.splitlines() if line.startswith("E ")]
    detail = errors[-1].strip() if errors else output.strip()[-200:]
    if proc.returncode == 0:
        return "SURVIVED", ""
    if proc.returncode != 1:
        return "ERROR", detail
    if kind == "certificate" and "InternalConsistencyFailure" not in output:
        return "killed by another check", detail
    return "killed", detail


def main(argv: list) -> int:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    bad = 0
    for index in chosen:
        entry = MUTANTS[index]
        verdict, detail = _run(entry)
        bad += verdict != "killed"
        print(f"{index:2d} {verdict} ({entry[4]}, {entry[3]})"
              + (f"\n   {detail}" if detail else ""), flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} killed as listed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
