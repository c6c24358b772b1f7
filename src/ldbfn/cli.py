"""Command-line front end: regions, simulations, lattice sweeps, tables.

Exit codes are a stable contract: 0 success, 1 infeasibility or a failed
verification, 2 usage or input-format errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import ExitStack, nullcontext
from fractions import Fraction
from itertools import product

from .fm import (
    EnumerationLimitError,
    InfeasibleSystemError,
    SystemParseError,
    enumerate_integer_projection,
    parse_system,
    project_to_rates,
)
from .gf2 import ChannelParams
from .regions import (
    corner_points,
    frac_to_json,
    integer_points,
    is_bounded,
    achievable_region,
    net_gain,
    outer_bound_region,
    region_to_jsonable,
    regime_of,
    regions_equal,
    sum_capacity,
)
from .schemes import InfeasibleTargetError, allocate, build_scheme, rate_definitions, constraint_system
from .simulator import run, integer_corners, parallel_map

SWEEP_COLUMNS = ["nc", "ns", "nr", "nf", "regime", "sum_capacity", "net_gain", "thm2_equal", "corners"]


def _params(args) -> ChannelParams:
    return ChannelParams(args.nc, args.ns, args.nr, args.nf)


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


_level = _int_at_least(0)


def _input_error(message: object) -> int:
    """Report bad input as one ``error:`` line on stderr; returns exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _add_params(parser: argparse.ArgumentParser, with_nf: bool = True) -> None:
    parser.add_argument("--nc", type=_level, required=True, help="cross link levels")
    parser.add_argument("--ns", type=_level, required=True, help="source-relay levels")
    parser.add_argument("--nr", type=_level, required=True, help="relay-destination levels")
    if with_nf:
        parser.add_argument("--nf", type=_level, default=0, help="feedback levels (default 0)")


def _corners_str(p: ChannelParams) -> str:
    pts = corner_points(outer_bound_region(p))
    return ";".join(f"({frac_to_json(c.r1)},{frac_to_json(c.r2)})" for c in pts)


def _max_sum_corner(p: ChannelParams) -> tuple[int, int]:
    corners = integer_corners(p)
    best_sum = max(r1 + r2 for r1, r2 in corners)
    return max(c for c in corners if c[0] + c[1] == best_sum)


def _feedback_usage(p: ChannelParams) -> int:
    """Feedback levels per use consumed at the sum-capacity corner."""
    corner = _max_sum_corner(p)
    return build_scheme(p, allocate(p, corner)).feedback_levels


def _net_gain_value(p: ChannelParams) -> Fraction:
    """Net gain at ``p``'s feedback strength; 0 without building a scheme when nothing is gained."""
    if net_gain(p, p.nf, 1) == 0:
        return Fraction(0)
    return net_gain(p, p.nf, _feedback_usage(p))


def cmd_region(args) -> int:
    p = _params(args)
    outer = outer_bound_region(p)
    achievable = achievable_region(p)
    payload = {
        "params": {"nc": p.nc, "ns": p.ns, "nr": p.nr, "nf": p.nf, "q": p.q},
        "regime": regime_of(p).value,
        "outer_bound": region_to_jsonable(outer),
        "achievable": region_to_jsonable(achievable),
        "equal": regions_equal(outer, achievable),
        "sum_capacity": frac_to_json(sum_capacity(outer)),
    }
    print(json.dumps(payload, indent=2))
    return 0 if payload["equal"] else 1


def cmd_simulate(args) -> int:
    p = _params(args)
    try:
        alloc = allocate(p, (args.r1, args.r2))
    except InfeasibleTargetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    scheme = build_scheme(p, alloc)
    with ExitStack() as stack:
        try:  # open both outputs before the run, so a bad path fails at once
            scheme_fh = stack.enter_context(open(args.scheme_json, "w")) if args.scheme_json else None
            trace_fh = stack.enter_context(open(args.trace, "w")) if args.trace else None
        except OSError as e:
            return _input_error(e)
        if scheme_fh:
            json.dump(scheme.to_jsonable(), scheme_fh, indent=2, sort_keys=True)
        trace, report = run(scheme, n_blocks=args.blocks, seed=args.seed)
        if trace_fh:
            trace_fh.write(trace.dump())
    print(json.dumps(report.to_jsonable(), indent=2))
    return 0 if not report.errors else 1


def _sweep_row(job: tuple[tuple[int, int, int, int], bool]) -> dict:
    (nc, ns, nr, nf), with_oracle = job
    p = ChannelParams(nc, ns, nr, nf)
    regime = regime_of(p)
    outer = outer_bound_region(p)
    equal = regions_equal(achievable_region(p), outer)
    row = {
        "nc": nc, "ns": ns, "nr": nr, "nf": nf,
        "regime": regime.value,
        "sum_capacity": frac_to_json(sum_capacity(outer)),
        "net_gain": frac_to_json(_net_gain_value(p)),
        "thm2_equal": equal,
        "corners": _corners_str(p),
    }
    if with_oracle:
        system = constraint_system(regime, p)
        r1d, r2d = rate_definitions(regime)
        projected = project_to_rates(system, r1d, r2d)
        row["fm_oracle_equal"] = (
            enumerate_integer_projection(system, r1d, r2d) == integer_points(projected)
            and regions_equal(projected, outer)
        )
    return row


def sweep_rows(max_level: int, with_oracle: bool = False):
    """Rows in lattice order; LDBFN_THREADS > 1 fans tuples out to workers."""
    jobs = [(tup, with_oracle) for tup in product(range(max_level + 1), repeat=4)]
    yield from parallel_map(_sweep_row, jobs, chunksize=32)


def cmd_sweep(args) -> int:
    columns = SWEEP_COLUMNS + (["fm_oracle_equal"] if args.oracle else [])
    try:
        out = open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout)
    except OSError as e:
        return _input_error(e)
    all_ok = True
    with out as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in sweep_rows(args.max, with_oracle=args.oracle):
            all_ok = all_ok and row["thm2_equal"] and row.get("fm_oracle_equal", True)
            writer.writerow({k: row[k] for k in columns})
    return 0 if all_ok else 1


def cmd_netgain(args) -> int:
    writer = csv.writer(sys.stdout)
    writer.writerow(["nf", "sum_capacity", "r_f", "eta"])
    for nf in range(args.nf_max + 1):
        p = ChannelParams(args.nc, args.ns, args.nr, nf)
        cap = sum_capacity(outer_bound_region(p))
        if nf == 0:  # no feedback spent, the ratio is undefined
            writer.writerow([nf, frac_to_json(cap), 0, "-"])
            continue
        writer.writerow([nf, frac_to_json(cap), _feedback_usage(p), frac_to_json(_net_gain_value(p))])
    return 0


def cmd_fm_check(args) -> int:
    try:
        with open(args.system) as fh:
            text = fh.read()
    except OSError as e:
        return _input_error(e)
    try:
        system, r1_def, r2_def = parse_system(text)
    except SystemParseError as e:
        return _input_error(f"{args.system}: {e}")
    try:
        projected = project_to_rates(system, r1_def, r2_def)
    except InfeasibleSystemError:
        print(json.dumps({"infeasible": True}))
        return 1
    if not is_bounded(projected):
        return _input_error(f"{args.system}: the projection onto (R1, R2) is unbounded")
    try:
        oracle = enumerate_integer_projection(system, r1_def, r2_def, bound=args.oracle_bound)
    except EnumerationLimitError as e:
        return _input_error(f"{args.system}: {e}")
    inside = integer_points(projected)
    payload = {
        "system_vars": list(system.vars),
        "projection": region_to_jsonable(projected),
        "projection_integer_points": sorted(inside),
        "oracle_points": sorted(oracle),
        "equal": oracle == inside,
    }
    print(json.dumps(payload, indent=2))
    return 0 if payload["equal"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldbfn",
        description="Capacity regions and zero-error coding schemes for the "
        "linear deterministic butterfly network with relay-source feedback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="print outer bound and achievable region")
    _add_params(p_region)
    p_region.set_defaults(fn=cmd_region)

    p_sim = sub.add_parser("simulate", help="run one scheme at a target rate pair")
    _add_params(p_sim)
    p_sim.add_argument("--r1", type=int, required=True, help="target rate of source 1")
    p_sim.add_argument("--r2", type=int, required=True, help="target rate of source 2")
    p_sim.add_argument("--blocks", type=_int_at_least(3), default=64,
                       help="message blocks N, at least 3 (default 64)")
    p_sim.add_argument("--seed", type=int, default=1, help="message PRNG seed")
    p_sim.add_argument("--trace", type=str, default=None, help="write the full trace to this path")
    p_sim.add_argument("--scheme-json", type=str, default=None,
                       help="write the scheme description (layouts, plans) to this path")
    p_sim.set_defaults(fn=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="CSV over the parameter lattice [0,max]^4")
    p_sweep.add_argument("--max", type=int, default=3, choices=range(0, 7),
                         help="lattice bound per parameter (default 3, capped at 6)")
    p_sweep.add_argument("--out", type=str, default=None, help="CSV output path (default stdout)")
    p_sweep.add_argument("--oracle", action="store_true",
                         help="add the elimination-vs-enumeration verdict column")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_ng = sub.add_parser("netgain", help="sum capacity and net feedback gain per nf")
    _add_params(p_ng, with_nf=False)
    p_ng.add_argument("--nf-max", type=_level, default=4, help="largest feedback strength to tabulate")
    p_ng.set_defaults(fn=cmd_netgain)

    p_fm = sub.add_parser("fm-check", help="project a fixture system and compare to enumeration")
    p_fm.add_argument("--system", type=str, required=True, help="fixture file path")
    p_fm.add_argument("--oracle-bound", type=_int_at_least(0), default=None,
                      help="enumeration bound override (default: max inequality bound)")
    p_fm.set_defaults(fn=cmd_fm_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
