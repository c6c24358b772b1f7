"""Command-line front end: regions, simulations, lattice sweeps, tables.

Exit codes are a stable contract: 0 success, 1 infeasibility or a failed
verification, 2 usage or input-format errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from contextlib import ExitStack, nullcontext
from dataclasses import asdict
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
    integer_columns,
    integer_points,
    achievable_region,
    outer_bound_region,
    region_to_jsonable,
    regime_of,
    regions_equal,
    sum_capacity,
)
from .schemes import (InfeasibleTargetError, allocate, build_scheme, enumerated_points, feedback_usage, net_gain,
                      projected_region)
from .simulator import run

SWEEP_COLUMNS = ["nc", "ns", "nr", "nf", "regime", "sum_capacity", "net_gain", "thm2_equal", "corners"]
# fm-check holds every integer point of the projection twice, its own and the oracle's, and prints
# both lists, about 72 bytes of JSON a point: 10**4 points print 0.7 MB, so more are refused up front.
FM_CHECK_POINT_LIMIT = 10_000


def _params(args) -> ChannelParams:
    return ChannelParams(args.nc, args.ns, args.nr, args.nf)


def _int_flag(low: int | None = None):
    """argparse type: ASCII digits ``-?[0-9]+``, at least ``low`` if given, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        if not re.fullmatch(r"-?[0-9]+", text):
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_level = _int_flag(0)


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


def cmd_region(args) -> int:
    p = _params(args)
    outer = outer_bound_region(p)
    achievable = achievable_region(p)
    payload = {
        "params": {**asdict(p), "q": p.q},
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


def _sweep_row(p: ChannelParams, with_oracle: bool) -> dict:
    regime = regime_of(p)
    outer = outer_bound_region(p)
    equal = regions_equal(achievable_region(p), outer)
    row = {
        "nc": p.nc, "ns": p.ns, "nr": p.nr, "nf": p.nf,
        "regime": regime.value,
        "sum_capacity": frac_to_json(sum_capacity(outer)),
        "net_gain": frac_to_json(net_gain(p)),
        "thm2_equal": equal,
        "corners": _corners_str(p),
    }
    if with_oracle:
        projected = projected_region(regime, p)
        oracle = enumerated_points(regime, p)
        row["fm_oracle_equal"] = oracle == integer_points(projected) and regions_equal(projected, outer)
    return row


def sweep_rows(max_level: int, with_oracle: bool = False):
    """One row per tuple of [0, max_level]^4, in lattice order."""
    for levels in product(range(max_level + 1), repeat=4):
        yield _sweep_row(ChannelParams(*levels), with_oracle)


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
        r_f = feedback_usage(p)
        writer.writerow([nf, frac_to_json(cap), r_f, frac_to_json(net_gain(p, r_f))])
    return 0


def cmd_fm_check(args) -> int:
    try:
        with open(args.system, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        return _input_error(e)
    except UnicodeDecodeError as e:
        return _input_error(f"{args.system}: {e}")
    try:
        system, r1_def, r2_def = parse_system(text)
    except SystemParseError as e:
        return _input_error(f"{args.system}: {e}")
    try:
        projected = project_to_rates(system, r1_def, r2_def)
    except InfeasibleSystemError:
        print(json.dumps({"infeasible": True}))
        return 1
    if projected.rays:
        return _input_error(f"{args.system}: the projection onto (R1, R2) is unbounded")
    inside: set[tuple[int, int]] = set()
    for r1, column in integer_columns(projected):
        if len(inside) + len(column) > FM_CHECK_POINT_LIMIT:
            return _input_error(f"{args.system}: the projection has more than {FM_CHECK_POINT_LIMIT} integer points")
        inside.update((r1, r2) for r2 in column)
    try:
        oracle = enumerate_integer_projection(system, r1_def, r2_def)
    except EnumerationLimitError as e:
        return _input_error(f"{args.system}: {e}")
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
    p_sim.add_argument("--r1", type=_int_flag(), required=True, help="target rate of source 1")
    p_sim.add_argument("--r2", type=_int_flag(), required=True, help="target rate of source 2")
    p_sim.add_argument("--blocks", type=_int_flag(3), default=64, help="message blocks N, at least 3 (default 64)")
    p_sim.add_argument("--seed", type=_int_flag(), default=1, help="message PRNG seed")
    p_sim.add_argument("--trace", type=str, default=None, help="write the full trace to this path")
    p_sim.add_argument("--scheme-json", type=str, default=None,
                       help="write the scheme description (layouts, plans) to this path")
    p_sim.set_defaults(fn=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="CSV over the parameter lattice [0,max]^4")
    p_sweep.add_argument("--max", type=_int_flag(), default=3, choices=range(0, 7),
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
    p_fm.set_defaults(fn=cmd_fm_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a buffered stdout that cannot be written fails here, not at exit
        return code
    except OSError as e:  # a failed write: send the rest of stdout to devnull, so the flush at exit passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        # A reader that closed stdout early fails the run; any other failed write (a full disk) is an input error.
        return 1 if isinstance(e, BrokenPipeError) else _input_error(e)


if __name__ == "__main__":
    sys.exit(main())
