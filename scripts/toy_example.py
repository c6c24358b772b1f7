"""Walk through the desk-size showcase network (nc, ns, nr) = (2, 3, 1).

Without feedback its capacity region is the unit square; one feedback level
bends the frontier out to R1 + R2 <= 3.  The script prints both regions and
then actually runs the corner (2, 1) scheme bit by bit.
"""

import argparse
import json

from ldbfn import (
    ChannelParams,
    build_scheme,
    allocate,
    outer_bound_region,
    region_to_jsonable,
    regime_of,
    run,
)
from ldbfn.cli import _int_flag


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=_int_flag(3), default=64,
                        help="message blocks N, at least 3 (default 64)")
    parser.add_argument("--seed", type=_int_flag(), default=1)
    args = parser.parse_args()

    for nf in (0, 1):
        p = ChannelParams(2, 3, 1, nf)
        print(f"nf={nf} regime={regime_of(p).value} "
              f"region={json.dumps(region_to_jsonable(outer_bound_region(p)))}")

    p = ChannelParams(2, 3, 1, 1)
    scheme = build_scheme(p, allocate(p, (2, 1)))
    print(f"corner (2,1): allocation={dict(scheme.alloc.values)} "
          f"delta={scheme.delta} feedback_levels={scheme.feedback_levels}")
    trace, report = run(scheme, n_blocks=args.blocks, seed=args.seed)
    print(json.dumps(report.to_jsonable(), indent=2))
    print("first three channel uses of the trace:")
    print("\n".join(trace.dump().splitlines()[2:2 + 27]))


if __name__ == "__main__":
    main()
