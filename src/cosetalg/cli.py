"""Command-line front end.

Subcommands:
  groups  validate/inspect a group (and optionally its coset space)
  table   emit the structure-constant tensor of G/H, exact rationals
  conv    convolve two measures, on the group or on the quotient
  check   run named verification checks over one pair or the default catalog

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage or input
error. JSON output carries no timings, so identical invocations are
byte-identical; timings appear only in text mode.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from .errors import CosetAlgError
from .groups import (FiniteGroup, Subgroup, build_coset_space, builtin_from_token,
                     group_from_dict, group_to_dict, require_bytes, subgroup_from_tokens,
                     test_normality)
from .measures import group_convolve, measure_from_dict, measure_to_dict
from .quotient_algebra import quotient_convolve, structure_table

USAGE_ERROR = 2


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _resolve_group(token: str) -> FiniteGroup:
    """A builtin token, or a group JSON file. A bare builtin name like S3 is
    a token unless a file of that name exists; a token with a suffix or a
    directory part names a file, so a missing one is reported as missing."""
    if token.startswith("builtin:"):
        return builtin_from_token(token)
    p = Path(token)
    if p.exists() or p.suffix or len(p.parts) > 1:
        return group_from_dict(_load_json(token))
    return builtin_from_token(token)


def _split_tokens(arg: str) -> list[str]:
    # split on commas outside parentheses: "(2,12)(3,11),(1,2)" is two cycle tokens
    toks = [t for t in (s.strip() for s in re.split(r",(?![^()]*\))", arg)) if t]
    if not toks:
        raise CosetAlgError("empty generator list")
    return toks


def _resolve_pair(args) -> tuple[FiniteGroup, Subgroup]:
    """G from --group and H from --subgroup; a missing --subgroup fails
    before G is built."""
    if args.subgroup is None:
        raise CosetAlgError("--subgroup is required for quotient operations")
    G = _resolve_group(args.group)
    return G, subgroup_from_tokens(G, _split_tokens(args.subgroup))


def _emit(payload, fmt: str, text_renderer) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        text_renderer(payload)


def _cmd_groups(args) -> int:
    G = _resolve_group(args.group)
    payload = group_to_dict(G)
    if args.subgroup:
        H = subgroup_from_tokens(G, _split_tokens(args.subgroup))
        Q = build_coset_space(G, H)
        payload["subgroup"] = {
            "members": [G.labels[m] for m in H.members],
            "normal": test_normality(G, H),
        }
        payload["cosets"] = [[G.labels[int(y)] for y in Q.members(c)]
                             for c in range(Q.coset_count)]

    def render(d):
        print(f"group {d['name'] or '(unnamed)'}: order {len(d['elements'])}")
        print("elements:", " ".join(d["elements"]))
        if "subgroup" in d:
            sub = d["subgroup"]
            print(f"subgroup: order {len(sub['members'])}, "
                  f"{'normal' if sub['normal'] else 'not normal'}:",
                  " ".join(sub["members"]))
            for i, cos in enumerate(d["cosets"]):
                print(f"  C{i} = {{{', '.join(cos)}}}")

    _emit(payload, args.format, render)
    return 0


def _cmd_table(args) -> int:
    """The structure constants, written one row (a, b) at a time; the JSON
    is json.dumps of {"c": rows by a then b, "cosets", "group",
    "representatives"} with sorted keys."""
    G, H = _resolve_pair(args)
    Q = build_coset_space(G, H)
    T = structure_table(Q)
    k = T.coset_count
    # one row's mask, strings, JSON pieces and line, the label lists and the
    # output's buffers: traced, 25 KB at 12 cosets, 81 KB at 360 and 534 KB
    # at 2,520 (S7/<(12)>)
    require_bytes(256 * k + (1 << 15), f"table rows with {k} cosets")
    cosets, reps = list(Q.labels), list(map(G.label, Q.reps.tolist()))
    rank, ones = T.segments[3].tolist(), [f"1/{size}" for size in T.suborbit_sizes.tolist()]

    def rows(a: int):
        """Rows (a, b) for b in turn, as strings: c[a][b][z] is 1/|O_b| where
        rel[a, z] is the suborbit O_b of b, else 0."""
        row = T.rel[a]
        for b in range(k):
            one = ones[b]
            yield [one if hit else "0/1" for hit in (row == rank[b]).tolist()]

    write = sys.stdout.write
    if args.format == "json":
        write('{"c": [[')
        for a in range(k):
            for b, row in enumerate(rows(a)):
                write((", " if b else "], [" if a else "") + json.dumps(row))
        write(f']], "cosets": {json.dumps(cosets)}, "group": {json.dumps(G.name)}, '
              f'"representatives": {json.dumps(reps)}}}\n')
    else:
        print(f"structure constants for {G.name}/H, cosets: "
              + " ".join(f"{c}={r}H" for c, r in zip(cosets, reps)))
        for a in range(k):
            for b, row in enumerate(rows(a)):
                print(f"  c[{cosets[a]}][{cosets[b]}] = ({', '.join(row)})")
    return 0


def _cmd_conv(args) -> int:
    if args.quotient:
        carrier = build_coset_space(*_resolve_pair(args))
        convolve = partial(quotient_convolve, structure_table(carrier))
    else:
        carrier = _resolve_group(args.group)
        convolve = partial(group_convolve, carrier)
    out = convolve(*(measure_from_dict(carrier, _load_json(m)) for m in (args.m1, args.m2)))
    payload = measure_to_dict(out)

    def render(d):
        for lab, (re, im) in d["weights"].items():   # in point order
            print(f"  {lab}: {re:+.12g}{im:+.12g}i")

    _emit(payload, args.format, render)
    return 0


def _cmd_check(args) -> int:
    # the one subcommand that needs the verifier; CheckSpec refuses an unknown id
    from .verifier import (CHECK_IDS, CheckSpec, default_catalog, exit_code,
                           make_context, run_check, run_suite)
    if args.group is None and (args.rho is not None or args.subgroup is not None):
        raise CosetAlgError("--rho and --subgroup need --group")
    ids = CHECK_IDS if args.prop == "all" else (args.prop,)
    specs = [CheckSpec(id=i, trials=args.trials, seed=args.seed,
                       tolerance=args.tol, mode=args.mode) for i in ids]
    start = time.perf_counter()
    if args.group is None:
        reports = run_suite(default_catalog(), specs)
    else:
        # one pair, built once; a failed build exits 2, not 1
        G, H = _resolve_pair(args)
        rho = _load_json(args.rho) if args.rho else None
        ctx = make_context(G, H, rho, f"{args.group}/<{args.subgroup}>")
        reports = [run_check(spec, ctx) for spec in specs]
    elapsed = time.perf_counter() - start

    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    else:
        width = max(len(r.entry) for r in reports) if reports else 8
        for r in reports:
            line = (f"{r.status.upper():4s}  {r.id:14s}  {r.entry:{width}s}  "
                    f"residual={r.max_residual:.3g}  trials={r.trials_run}  "
                    f"t={r.elapsed_s * 1000:.0f}ms")
            if r.notes:
                line += f"  [{r.notes}]"
            print(line)
        fails = sum(r.status == "fail" for r in reports)
        infos = sum(r.status == "info" for r in reports)
        print(f"{len(reports)} checks: {len(reports) - fails - infos} pass, "
              f"{fails} fail, {infos} info  ({elapsed:.1f}s)")
    return exit_code(reports)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetalg",
        description="Measure algebras on finite coset spaces: convolution, "
                    "structure tables, and verification checks.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--group", required=False,
                       help="builtin:NAME(k) (e.g. builtin:S3, builtin:cyclic(6)) "
                            "or a path to a group JSON file")
        p.add_argument("--subgroup",
                       help="comma-separated generator tokens, e.g. \"(12)\" or \"i\"")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p_groups = sub.add_parser("groups", help="validate and inspect a group")
    add_common(p_groups)

    p_table = sub.add_parser("table", help="emit the structure-constant tensor")
    add_common(p_table)

    p_conv = sub.add_parser("conv", help="convolve two measures")
    add_common(p_conv)
    p_conv.add_argument("--quotient", action="store_true",
                        help="convolve on the coset space instead of the group")
    p_conv.add_argument("--m1", required=True, help="first measure JSON file")
    p_conv.add_argument("--m2", required=True, help="second measure JSON file")

    p_check = sub.add_parser("check", help="run verification checks")
    add_common(p_check)
    p_check.add_argument("--rho", help="rho JSON file (default: constant 1)")
    p_check.add_argument("--prop", default="all", help="check id or 'all'")
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=42)
    p_check.add_argument("--tol", type=float, default=None)
    p_check.add_argument("--mode", choices=("float", "exact"), default="float")
    p_check.add_argument("--jobs", type=int, default=1,
                         help="ignored: checks run in one thread")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    handlers = {
        "groups": _cmd_groups,
        "table": _cmd_table,
        "conv": _cmd_conv,
        "check": _cmd_check,
    }
    try:
        if args.subcommand != "check" and args.group is None:
            raise CosetAlgError("--group is required")
        return handlers[args.subcommand](args)
    except (CosetAlgError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
