"""Exhaustive desk-scale verification over the parameter lattice.

For every tuple in [0, max]^4 the script checks that the achievable region
equals the outer bound, optionally cross-checks the Fourier-Motzkin
projection of the regime's constraint system against integer enumeration,
and optionally runs every integer corner through the bit-level simulator.
Writes the sweep CSV and prints a one-line verdict.
"""

import argparse
import sys
import time

from ldbfn.cli import _int_flag, cmd_sweep
from ldbfn.simulator import verify_corner_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=_int_flag(), default=5, choices=range(0, 7))
    parser.add_argument("--out", type=str, default="sweep.csv")
    parser.add_argument("--oracle", action="store_true",
                        help="also run the elimination-vs-enumeration cross-check")
    parser.add_argument("--simulate", action="store_true",
                        help="also run every integer corner through the simulator")
    parser.add_argument("--blocks", type=_int_flag(3), default=8,
                        help="message blocks per simulated corner, at least 3")
    parser.add_argument("--seed", type=_int_flag(), default=1)
    args = parser.parse_args()

    t0 = time.perf_counter()
    rc = cmd_sweep(argparse.Namespace(max=args.max, out=args.out, oracle=args.oracle))
    if rc == 2:  # the CSV could not be opened; cmd_sweep has said why
        return rc
    print(f"sweep CSV -> {args.out} (rc={rc}) in {time.perf_counter() - t0:.1f}s")

    if args.simulate:
        t0 = time.perf_counter()
        summary = verify_corner_sweep(args.max, n_blocks=args.blocks, seed=args.seed)
        print(
            f"simulated {summary.n_runs} corner schemes over {summary.n_params} tuples: "
            f"{len(summary.failures)} failures in {time.perf_counter() - t0:.1f}s"
        )
        rc = rc or (0 if summary.ok else 1)
    return rc


if __name__ == "__main__":
    sys.exit(main())
