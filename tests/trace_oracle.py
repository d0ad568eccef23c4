"""The per-degree trace oracle of tests/test_generated.py on every trivial
and adjoint case of tests/generated.py: opt-in, stdlib only.

    python tests/trace_oracle.py                 # the library in ./src
    python tests/trace_oracle.py --src OTHER/src # another checkout

For each case the cohomology_traces of its twisted_lefschetz report must
equal helpers.reference_cohomology_traces, tr(F_p | Z^p) - tr(F_p | B^p)
in every degree p, rebuilt from the dense references alone.  The tier-1
test checks the subset test_generated.ORACLE_SUBSET; this run adds the
trivial dim-7 and adjoint dim-4 and dim-5 cases.  It prints one row per
(kind, dim) with the number of cases and the seconds they took, names
every case whose traces differ, and exits 1 if there is one.

pytest does not collect this file (its name does not start with test_).
"""

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parents[1] / "src"),
                        help="directory holding the lietrace package")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from lietrace.lefschetz import twisted_lefschetz

    from generated import generated_cases
    from helpers import reference_cohomology_traces

    seconds, counts, wrong = defaultdict(float), defaultdict(int), []
    for key, algebra, module, f, xi, kind in generated_cases():
        if kind == "random":
            continue
        start = time.perf_counter()
        traces = twisted_lefschetz(algebra, module, f, xi).cohomology_traces
        if list(traces) != reference_cohomology_traces(algebra, f, xi):
            wrong.append(key)
        group = kind, algebra.dim
        seconds[group] += time.perf_counter() - start
        counts[group] += 1
    print(f"{'kind':<8} {'dim':>3} {'cases':>5} {'s':>8}")
    for (kind, dim), total in sorted(seconds.items()):
        print(f"{kind:<8} {dim:>3} {counts[kind, dim]:>5} {total:>8.2f}")
    print(f"{sum(counts.values())} cases, {sum(seconds.values()):.1f} s, "
          f"{len(wrong)} with a wrong degree trace")
    for key in wrong:
        print("wrong:", key)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
