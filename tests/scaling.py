"""Scaling table for one twisted_lefschetz report: opt-in, stdlib only.

    python tests/scaling.py                 # the library in ./src
    python tests/scaling.py --src OTHER/src # another checkout, to compare

Each row is the median wall time of 3 reports (validation included) on:

- abelian n = 8, 9, 10, trivial module, a seeded dense map with entries
  in {-3..3}/{1, 2}: every exterior power of the map is dense;
- filiform n = 7, 8, 9, [e0, ei] = e(i+1), adjoint module, f = diag(2^w)
  for the weights (1, 1, 2, ..., n-1) and xi = f^-1.

pytest does not collect this file (its name does not start with test_).
"""

import argparse
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

RUNS = 3


def abelian_dense(lib, n):
    rng = random.Random(n)
    algebra = lib.liealg.LieAlgebra(dim=n)
    rows = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
             for _ in range(n)] for _ in range(n)]
    f = lib.liealg.endomorphism(algebra, rows)
    module = lib.repn.trivial_module(algebra)
    return algebra, module, f, lib.repn.identity_intertwiner(f, module)


def filiform_adjoint(lib, n):
    algebra = lib.liealg.LieAlgebra(
        dim=n, brackets={(0, i): {i + 1: 1} for i in range(1, n - 1)})
    weights = (1,) + tuple(range(1, n))
    matrix = lib.ratlin.Matrix.diagonal([2 ** w for w in weights])
    f = lib.liealg.endomorphism(algebra, matrix)
    module = lib.repn.adjoint_module(algebra)
    xi = lib.repn.Intertwiner(morphism=f, module=module,
                              matrix=lib.ratlin.inverse(matrix))
    return algebra, module, f, xi


CASES = [(f"abelian{n} dense", abelian_dense, n) for n in (8, 9, 10)] + \
    [(f"filiform{n}/adj", filiform_adjoint, n) for n in (7, 8, 9)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parents[1] / "src"),
                        help="directory holding the lietrace package")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import lietrace.lefschetz
    import lietrace.liealg
    import lietrace.ratlin
    import lietrace.repn
    lib = lietrace
    print(f"{'case':<18} {'cochains':>8} {'median s':>9}  runs")
    for label, build, n in CASES:
        algebra, module, f, xi = build(lib, n)
        times = []
        for _ in range(RUNS):
            start = time.perf_counter()
            report = lib.lefschetz.twisted_lefschetz(algebra, module, f, xi)
            times.append(time.perf_counter() - start)
        runs = " ".join(f"{t:.3f}" for t in times)
        print(f"{label:<18} {sum(report.dims):>8} "
              f"{statistics.median(times):>9.3f}  {runs}", flush=True)


if __name__ == "__main__":
    main()
