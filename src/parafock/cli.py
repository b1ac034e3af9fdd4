"""Command-line interface.

Subcommands: schur, hook-schur, w1, cohomology, branch, dims, verify.

Conventions shared by all commands: variables are ordered even block first
(1..n) then odd block (n+1..n+m); polynomial JSON lists terms as
{"exp": [...], "coef": "..."} with exponents in half units (an entry 2c
means exponent c) in graded-lexicographic order; partitions are JSON int
arrays.  Output is deterministic: identical argv gives byte-identical
output (reports are timed only under --timings).

Exit codes: 0 success (or non-strict verification), 1 identity failure
under --strict, 2 usage or computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .kostant import (
    _paraboson_reports,
    _w1_walk,
    branching_character,
    cohomology_via_partitions,
    cohomology_via_w1,
    verify_parafermion_identity,
    verify_parastat_identity,
    verify_weyl_character,
)
from .partitions import Partition, _integer, enumerate_partitions
from .schur import SchurContext, hook_schur, schur
from .weyl import ALTERNANT_RANK_LIMIT, Weight, dim_gl, dim_so

DEFAULT_DEGREES = {"paraboson": 10, "parastat": 8}


def _parse_partition(text: str) -> Partition:
    text = text.strip()
    if text in ("", "0"):
        return Partition()
    try:
        return Partition(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from exc


def _parse_range(text: str, name: str) -> list[int]:
    """A single integer, or an inclusive range like 1..3; ``name`` is the
    argument it came from, for the error message."""
    lo, dots, hi = text.strip().partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if dots else lo
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer or a range like 1..3, got {text!r}") from exc
    if hi < lo:
        raise ValueError(f"empty range {text!r} for {name}")
    return list(range(lo, hi + 1))


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _print_tsv(header, rows) -> None:
    """A header line, then one tab-separated line per row.  A list or tuple
    cell joins with commas, None is empty and a dict is compact JSON."""
    print("\t".join(header))
    for row in rows:
        cells = []
        for v in row:
            if v is None:
                v = ""
            elif isinstance(v, dict):
                v = _dump(v)
            elif isinstance(v, (list, tuple)):
                v = ",".join(map(str, v))
            cells.append(str(v))
        print("\t".join(cells))


def _print_poly(poly, fmt: str) -> None:
    if fmt == "json":
        print(_dump(poly.to_json_obj()))
    else:
        _print_tsv(("exp", "coef"), poly.sorted_terms())


def _check_rank_limit(args, *values) -> None:
    if args.force:
        return
    for v in values:
        if v is not None and v > ALTERNANT_RANK_LIMIT:
            raise ValueError(
                f"rank {v} exceeds the safety limit {ALTERNANT_RANK_LIMIT}; "
                "pass --force to override"
            )


def _cmd_poly(args) -> int:
    """The schur and hook-schur commands; ``args.engine`` is the function and
    ``args.m`` the number of odd variables, which schur fixes at 0."""
    lam = _parse_partition(args.lam)
    ctx = SchurContext(args.n, args.m)
    _print_poly(args.engine(lam, ctx, args.algorithm), args.format)
    return 0


def _cmd_w1(args) -> int:
    _check_rank_limit(args, args.n)
    columns = ("I", "word", "signs", "num_phi", "mu")
    rows = [
        (list(I), list(word), list(signs), e.k, e.diagram.to_json())
        for I, word, signs, e in _w1_walk(_integer(args.n, "n", 1), 0)
    ]
    if args.format == "json":
        print(_dump([dict(zip(columns, row)) for row in rows]))
    else:
        _print_tsv(columns, rows)
    return 0


def _cmd_cohomology(args) -> int:
    _check_rank_limit(args, args.n)
    route = cohomology_via_w1 if args.route == "w1" else cohomology_via_partitions
    entries = route(args.n, args.p).to_json_obj()
    if args.format == "json":
        print(_dump(entries))
    else:
        rows = []
        for e in entries:
            ((kind, source),) = e["source"].items()
            rows.append((e["k"], e["mu"], kind, source))
        _print_tsv(("k", "mu", "source_kind", "source"), rows)
    return 0


def _cmd_branch(args) -> int:
    _check_rank_limit(args, args.n)
    _print_poly(branching_character(args.n, args.p), args.format)
    return 0


def _cmd_dims(args) -> int:
    n, p = _integer(args.n, "n", 1), _integer(args.p, "p")
    rows = []
    total = 0
    for lam in enumerate_partitions(max_part=p, max_length=n):
        d = dim_gl(lam, n)
        rows.append({"lambda": lam.to_json(), "dim": d})
        total += d
    so_dim = dim_so(Weight.p_theta(n, p), n)
    out = {
        "n": n,
        "p": p,
        "dim_so": so_dim,
        "sum_dim_gl": total,
        "match": so_dim == total,
        "by_lambda": rows,
    }
    if args.format == "json":
        print(_dump(out))
    else:
        for row in rows:
            print(f"lambda:{','.join(map(str, row['lambda']))}\t{row['dim']}")
        print(f"sum_dim_gl\t{total}")
        print(f"dim_so\t{so_dim}")
        print(f"match\t{'true' if out['match'] else 'false'}")
    return 0


def _cmd_verify(args) -> int:
    identity = args.identity
    ns = _parse_range(args.n, "--n")
    ps = _parse_range(args.p, "--p")
    if identity == "parastat" and args.m is None:
        raise ValueError("parastat needs --m")
    if identity != "parastat" and args.m is not None:
        raise ValueError(f"--m applies only to parastat, not {identity}")
    if identity != "paraboson" and args.alt_denominator:
        raise ValueError(f"--alt-denominator applies only to paraboson, not {identity}")
    if identity not in DEFAULT_DEGREES and args.degree is not None:
        raise ValueError(f"--degree applies only to paraboson and parastat, not {identity}")
    ms = _parse_range(args.m, "--m") if args.m is not None else [None]
    D = args.degree if args.degree is not None else DEFAULT_DEGREES.get(identity)
    rank = max(ns)
    if identity == "paraboson" and not args.alt_denominator:
        # the printed check builds everything in min(n, max(D, 1)) variables;
        # the symmetric variant's known failure is located in all n
        rank = min(rank, max(D, 1))
    _check_rank_limit(args, rank, max(ms) if ms != [None] else None)
    bounds = (min(ns), "--n"), (min(ms), "--m"), (min(ps), "--p"), (args.degree, "--degree")
    for v, name in bounds:
        if v is not None:
            _integer(v, name)
    if identity != "parastat":
        _integer(min(ns), "--n", 1)

    def run(check, *check_args):
        # a check reads no clock, so under --timings each call is timed here
        if not args.timings:
            return check(*check_args)
        t0 = time.perf_counter()
        report = check(*check_args)
        report.millis = int((time.perf_counter() - t0) * 1000)
        return report

    denominators = ("printed", "symmetric") if args.alt_denominator else ("printed",)
    reports = []
    for n in ns:
        for m in ms:
            for p in ps:
                if identity == "parafermion":
                    reports.append(run(verify_parafermion_identity, n, p))
                elif identity == "weyl-character":
                    reports.append(run(verify_weyl_character, n, p))
                elif identity == "paraboson":
                    # both variants share one printed carry; each report is
                    # built, and timed, as it is taken
                    variants = _paraboson_reports(n, p, D, denominators)
                    for _ in denominators:
                        reports.append(run(next, variants))
                elif identity == "parastat":
                    reports.append(run(verify_parastat_identity, n, m, p, D))
    failed = any(not r.passed for r in reports)
    objs = [r.to_json_obj() for r in reports]
    if args.format == "json":
        for obj in objs:
            print(_dump(obj))
    else:
        columns = ("identity", "n", "m", "p", "degree", "status", "denominator",
                   "first_discrepancy", "millis")
        _print_tsv(columns, [[obj.get(c) for c in columns] for obj in objs])
    if args.strict and failed:
        return 1
    return 0


# Options that several commands share, each a (flag, add_argument kwargs)
# pair; argparse copies the kwargs, so one dict serves every parser, and its
# values stay immutable
_FORMAT = ("--format", {"choices": ("json", "tsv"), "default": "json", "help": "output format"})
_FORCE = ("--force", {"action": "store_true", "help": "override the rank limit"})
_RANK = ("--n", {"type": int, "required": True, "help": "rank"})
_EVEN = ("--n", {"type": int, "required": True, "help": "number of even variables"})
_ORDER = ("--p", {"type": int, "required": True, "help": "order of parastatistics"})
_LAMBDA = ("--lambda", {"dest": "lam", "default": "", "help": "partition, e.g. 2,1"})

# name -> (help, options in the order the help lists them, set_defaults), in
# the order the full help lists the commands
COMMANDS = {
    "schur": ("Schur polynomial of a partition", (
        _LAMBDA,
        _EVEN,
        ("--algorithm", {"choices": ("gt", "jt", "alt", "tab"), "default": "gt", "help": (
            "branching rule (gt), determinant (jt), bialternant quotient (alt)"
            " or tableau sum (tab)")}),
        _FORMAT,
    ), {"func": _cmd_poly, "engine": schur, "m": 0}),
    "hook-schur": ("hook (supersymmetric) Schur polynomial", (
        _LAMBDA,
        _EVEN,
        ("--m", {"type": int, "required": True, "help": "number of odd variables"}),
        ("--algorithm", {"choices": ("br", "tab"), "default": "br",
                         "help": "branching rule (br) or super-tableau sum (tab)"}),
        _FORMAT,
    ), {"func": _cmd_poly, "engine": hook_schur}),
    "w1": ("minimal-length coset representatives", (_RANK, _FORCE, _FORMAT), {"func": _cmd_w1}),
    "cohomology": ("nilradical cohomology table", (
        _RANK,
        _ORDER,
        ("--route", {"choices": ("partitions", "w1"), "default": "partitions",
                     "help": "which independent construction to run"}),
        _FORCE,
        _FORMAT,
    ), {"func": _cmd_cohomology}),
    "branch": ("branching character of the level-p module", (_RANK, _ORDER, _FORCE, _FORMAT),
               {"func": _cmd_branch}),
    "dims": ("module dimensions: per-diagram and totals", (_RANK, _ORDER, _FORMAT),
             {"func": _cmd_dims}),
    "verify": ("check a character identity", (
        ("--identity", {"required": True,
                        "choices": ("parafermion", "paraboson", "parastat", "weyl-character")}),
        ("--n", {"required": True, "help": "rank, or inclusive range like 1..3"}),
        ("--m", {"help": "odd variables, int or range (parastat only)"}),
        ("--p", {"required": True, "help": "order, int or inclusive range"}),
        ("--degree", {"type": int, "help": (
            "truncation bound, paraboson and parastat only (default "
            f"{DEFAULT_DEGREES['paraboson']} for paraboson, {DEFAULT_DEGREES['parastat']} "
            "for parastat)")}),
        ("--strict", {"action": "store_true", "help": "exit 1 if any emitted report fails"}),
        ("--alt-denominator", {"action": "store_true", "help": (
            "paraboson only: also run and report the symmetric-square denominator variant")}),
        _FORCE,
        ("--timings", {"action": "store_true",
                       "help": "report real millis (off by default so output is reproducible)"}),
        _FORMAT,
    ), {"func": _cmd_verify}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  Given one of ``COMMANDS``, only that subcommand's
    parser is built, which is all that parsing an argv naming it needs;
    otherwise (help, a missing or an unknown command) all of them are."""
    parser = argparse.ArgumentParser(
        prog="parafock",
        description=(
            "Exact partition / Schur-polynomial combinatorics of "
            "parastatistics Fock-space characters.  Variables are ordered "
            "even block first (1..n), then odd block (n+1..n+m); polynomial "
            "JSON stores exponents in half units (entry 2c = exponent c)."
        ),
    )
    if command in COMMANDS:
        # an error after the subcommand, such as an extra positional, prints
        # the top-level usage, which must still list every command
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}"
        )
        table = {command: COMMANDS[command]}
    else:
        # metavar stays None here: argparse then names the action "command" in
        # its "invalid choice" and "required" errors
        sub = parser.add_subparsers(dest="command", required=True)
        table = COMMANDS
    for name, (help_text, options, defaults) in table.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """Run ``main``; an error it does not handle prints its traceback and exits 2,
    so exit 1 always means a failing report under ``--strict``."""
    try:
        code = main()
    except Exception:
        import traceback  # here, not at start-up: only a crash needs it

        traceback.print_exc()
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry()
