"""Scaling table for one twisted_lefschetz report and for the torus
oracle: opt-in, stdlib only.

    python tests/scaling.py                 # the library in ./src
    python tests/scaling.py --src OTHER/src # another checkout, to compare

Each row times one cold call and then RUNS = 3 warm ones, and prints the
cold time, the median of the warm times and the warm times themselves.
The cold call builds what the library caches per value (coefficient
systems, exterior power tables, the torus oracle's algebra) unless an
earlier row did: count_fixed_points caches nothing, and "torus 9999 pts"
is in dimension 2, which "torus n=2..4" has already seen.  Each report row
times one report (validation included) on, with the number of cochains as
its size:

- abelian n = 8, 9, 10, trivial module, a seeded dense map with entries
  in {-3..3}/{1, 2}: every exterior power of the map is dense;
- filiform n = 7, 8, 9, [e0, ei] = e(i+1), adjoint module, f = diag(2^w)
  for the weights (1, 1, 2, ..., n-1) and xi = f^-1: diagonal, so the
  chain map is built from its weights;
- the same complexes with f = diag(2^w) exp(ad e1), an automorphism that
  is not diagonal (ad e1 takes e0 to -e2), and xi = f^-1: the chain map is
  built from exterior powers and Kronecker products, so the two filiform
  rows of one n time both paths on the same complex.

Each torus row times one pass of count_fixed_points, or of
cross_check_with_ce, with the number of fixed points as its size:

- "torus n=2..4": 30 seeded maps, for each n = 2, 3, 4 the first 10 maps
  drawn from random.Random(n) with entries in {-3..3} and
  0 < |det(A - I)| <= 40;
- "torus 9999 pts": A = [[100, 1], [0, 102]], |det(A - I)| = 99 * 101,
  just under torus_oracle.MAX_FIXED_POINTS.

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


def filiform_adjoint(lib, n, twisted=False):
    algebra = lib.liealg.LieAlgebra(
        dim=n, brackets={(0, i): {i + 1: 1} for i in range(1, n - 1)})
    weights = (1,) + tuple(range(1, n))
    matrix = lib.ratlin.Matrix.diagonal([2 ** w for w in weights])
    if twisted:
        matrix = matrix * (lib.ratlin.Matrix.identity(n)
                           + algebra.basis_ads[1])
    f = lib.liealg.endomorphism(algebra, matrix)
    module = lib.repn.adjoint_module(algebra)
    xi = lib.repn.Intertwiner(morphism=f, module=module,
                              matrix=lib.ratlin.inverse(matrix))
    return algebra, module, f, xi


def filiform_twisted_adjoint(lib, n):
    return filiform_adjoint(lib, n, twisted=True)


CASES = [(f"abelian{n} dense", abelian_dense, n) for n in (8, 9, 10)] + \
    [case for n in (7, 8, 9)
     for case in ((f"filiform{n}/adj", filiform_adjoint, n),
                  (f"filiform{n}/adj exp", filiform_twisted_adjoint, n))]


def int_det(rows) -> int:
    """Integer determinant by first-row Laplace expansion (n <= 4 here)."""
    if not rows:
        return 1
    return sum((-1) ** j * x * int_det([row[:j] + row[j + 1:]
                                        for row in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def seeded_torus_maps() -> list:
    maps = []
    for n in (2, 3, 4):
        rng, found = random.Random(n), 0
        while found < 10:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            b = [[x - (i == j) for j, x in enumerate(row)]
                 for i, row in enumerate(rows)]
            if 0 < abs(int_det(b)) <= 40:
                maps.append(rows)
                found += 1
    return maps


TORUS_CASES = [("torus n=2..4", seeded_torus_maps()),
               ("torus 9999 pts", [[[100, 1], [0, 102]]])]


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
    import lietrace.torus_oracle
    lib = lietrace
    print(f"{'case':<22} {'size':>8} {'cold s':>9} {'warm s':>9}  warm runs")
    for label, build, n in CASES:
        algebra, module, f, xi = build(lib, n)
        times, report = timed(lambda: lib.lefschetz.twisted_lefschetz(
            algebra, module, f, xi))
        show(label, sum(report.dims), times)
    oracle = lib.torus_oracle
    for label, maps in TORUS_CASES:
        torus_maps = [oracle.TorusMap(tuple(map(tuple, rows)))
                      for rows in maps]
        points = sum(oracle.count_fixed_points(m).count for m in torus_maps)
        for name, call in (("count", oracle.count_fixed_points),
                           ("cross", oracle.cross_check_with_ce)):
            show(f"{label} {name}", points,
                 timed(lambda: [call(m) for m in torus_maps])[0])


def timed(call) -> tuple:
    """(times, result): the wall times of one cold call and RUNS warm ones
    after it, and the last result."""
    times = []
    for _ in range(1 + RUNS):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return times, result


def show(label: str, size: int, times: list) -> None:
    cold, warm = times[0], times[1:]
    runs = " ".join(f"{t:.4f}" for t in warm)
    print(f"{label:<22} {size:>8} {cold:>9.4f} {statistics.median(warm):>9.4f}"
          f"  {runs}", flush=True)


if __name__ == "__main__":
    main()
