"""Command-line front end.

Exit codes: 0 when everything requested passed or computed, 1 when any
check failed or was inconclusive and on every other error (cache, capacity,
a stdout closed by its reader, internal, the last with a traceback), 2 only
for argparse errors and the commands' argument checks.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .bernoulli import CacheError, CapacityError, obtain_bernoulli, obtain_table
from .certify import (
    STRATEGIES,
    Inconclusive,
    certify_non_integrality,
    scan,
    threshold_for_n,
    threshold_m0,
)
from .euler_char import TORELLI_FORMULA_NOTE, chi_torelli, e_mn, euler_moduli
from .render import (
    bound_sequence_to_json,
    certificate_text,
    certificate_to_json,
    dumps,
    format_rational,
    rational_to_json,
)
from .zeta_special import zeta_product

CACHE_ENV_VAR = "TORELLI_EULER_CACHE"


class UsageError(Exception):
    """Arguments argparse accepts but the command rejects; exit code 2."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def _at_most(limit: int, text: str, unit: str = "", parse=_positive_int) -> int:
    value = parse(text)
    if value > limit:
        raise argparse.ArgumentTypeError(f"expected at most {limit}{unit}, got {text}")
    return value


# Text output rounds to at most this many digits: rounding forms 10**digits,
# and `emn -m 200 -n 677` takes 1.3 s at 10^6 digits and 18 s at 10^7.
_MAX_DIGITS = 100_000


def _digits(text: str) -> int:
    return _at_most(_MAX_DIGITS, text, " digits")


# `threshold --format json` prints the whole chain: at n = 1 and cap 700,
# 358 MB in 46 s on a 2-core container.  700 still admits n = 100000
# (m0 = 539) and n = 2^17 (m0 = 614).
_MAX_M_CAP = 700


def _m_cap(text: str) -> int:
    return _at_most(_MAX_M_CAP, text)


# `zeta --k K` builds B_0..B_2K in time about cubic in K: 1.7 s cold at
# K = 1500 and 12.7 s at K = 3000 (2-core container), so a K mistyped as
# 30000 would run for hours.  A table past B_3000 is refused by the parser
# before any is read or built: `--max-k`, `--k`, `chi -g`, `emn -m`,
# `certify -m` and `scan --m-min/--m-max` above 1500.  The cap on m holds
# under every strategy: the bound alone at m = 10^5 runs out of memory, and
# m0 is at most 614 for every n up to 2^17, so past 1500 the bound only
# repeats its magnitude witness.
_MAX_TABLE_INDEX = 3000


def _table_k(text: str) -> int:
    return _at_most(_MAX_TABLE_INDEX // 2, text)


def _max_k(text: str) -> int:
    return _at_most(_MAX_TABLE_INDEX // 2, text, parse=_nonnegative_int)


# `certify -m 6 -n 3000000 --strategy bound` forms (2m+n-1)!/(2m)! in full
# and ran past 60 s; at n = 10^6, `certify --strategy bound` took 10.6 s and
# `emn` 14.5 s (2-core container).  Every n is capped, by the parser, at the
# largest n the threshold search is quoted for, n = 2^17, where `certify -m 6`
# takes 1.3 s cold.
_MAX_N = 1 << 17


def _n(text: str) -> int:
    return _at_most(_MAX_N, text)


def _marked_points(text: str) -> int:
    return _at_most(_MAX_N, text, parse=_nonnegative_int)


# One `scan` request decides at most this many points.  Each option is capped
# on its own, but together they would allow about 2*10^8 points, nine hours.
# At the cap the slowest grids measured take 18-20 s (2-core container): the
# bound at m = 1491..1500 and n up to 2^17, and e(m,n) at m = 191..200, whose
# text is 470 MB.  At 10^5 points the first took 150 s.
_MAX_SCAN_POINTS = 10_000


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        # Empty, typed or from the variable, means no cache (argparse types a str default).
        type=lambda path: path or None,
        default=os.environ.get(CACHE_ENV_VAR),
        help=f"Bernoulli table cache file (default: ${CACHE_ENV_VAR})",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--digits",
        type=_digits,
        default=12,
        help=f"decimal digits in text output, 1 to {_MAX_DIGITS}",
    )


# Each command: its help line and its own arguments, (flag, add_argument
# keywords) in help order.  Every command also takes the common options.
_COMMANDS = {
    "bernoulli": ("exact Bernoulli numbers B_0..B_2K", (
        ("--max-k", dict(type=_max_k, required=True, metavar="K")),
    )),
    "zeta": ("exact zeta(1-2K) plus decimal", (
        ("--k", dict(type=_table_k, required=True)),
    )),
    "chi": ("orbifold Euler characteristics", (
        ("--space", dict(choices=("siegel", "moduli", "torelli"), required=True)),
        ("-g", dict(type=_table_k, required=True)),
        ("-n", dict(type=_marked_points, default=0)),
    )),
    "emn": ("exact e(m,n)", (
        ("-m", dict(type=_table_k, required=True)),
        ("-n", dict(type=_n, required=True)),
    )),
    "certify": ("non-integrality certificate for e(m,n)", (
        ("-m", dict(type=_table_k, required=True)),
        ("-n", dict(type=_n, required=True)),
        ("--strategy", dict(choices=STRATEGIES, default="auto")),
    )),
    "threshold": ("certified bound threshold for fixed n", (
        ("-n", dict(type=_n, required=True)),
        ("--m-cap", dict(type=_m_cap, default=64, help=f"largest m, at most {_MAX_M_CAP}")),
    )),
    "scan": ("certificates over a grid of (m, n)", (
        ("--m-min", dict(type=_table_k, required=True)),
        ("--m-max", dict(type=_table_k, required=True)),
        ("--n-min", dict(type=_n, required=True)),
        ("--n-max", dict(type=_n, required=True)),
        ("--strategy", dict(choices=STRATEGIES, default="exact")),
    )),
    "verify-paper": ("run the full verification suite", ()),
}


def _add_command(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for flag, options in _COMMANDS[command][1]:
        parser.add_argument(flag, **options)
    _add_common(parser)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torelli-euler",
        description=(
            "Exact zeta values, Bernoulli numbers, orbifold Euler characteristics, "
            "and machine-checkable non-integrality certificates for e(m,n)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        _add_command(sub.add_parser(command, help=help_text), command)
    return parser


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    max_index = 2 * args.max_k
    table = obtain_table(max_index, args.cache)
    values = table.values
    if args.format == "json":
        entries = [
            {"n": n, "value": rational_to_json(values[n])}
            for n in range(max_index + 1)
            if n < 2 or n % 2 == 0
        ]
        print(dumps({"max_index": max_index, "convention": table.convention, "values": entries}))
    else:
        for n in range(max_index + 1):
            if n >= 3 and n % 2 == 1:
                continue
            print(f"B_{n} = {format_rational(values[n], args.digits)}")
    return 0


def _cmd_zeta(args: argparse.Namespace) -> int:
    zeta = -obtain_bernoulli(2 * args.k, args.cache) / (2 * args.k)
    if args.format == "json":
        print(dumps({"k": args.k, "value": rational_to_json(zeta)}))
    else:
        print(f"zeta(1-2k) for k={args.k}: {format_rational(zeta, args.digits)}")
    return 0


def _cmd_chi(args: argparse.Namespace) -> int:
    if args.g < 2:
        raise UsageError("reported spaces need genus g >= 2")
    if args.space == "siegel" and args.n != 0:
        raise UsageError("the Siegel quotient carries no marked points")
    table = obtain_table(2 * args.g, args.cache)
    if args.space == "siegel":
        space, value = "siegel-quotient", zeta_product(args.g, table)
    elif args.space == "moduli":
        space, value = "moduli", euler_moduli(args.g, args.n, table)
    else:
        space, value = "torelli", chi_torelli(args.g, args.n, table)
    note = TORELLI_FORMULA_NOTE if args.space == "torelli" else None
    if args.format == "json":
        payload = {"space": space, "g": args.g, "n": args.n, "value": rational_to_json(value)}
        if note:
            payload["note"] = note
        print(dumps(payload))
    else:
        print(f"{space} (g={args.g}, n={args.n}): {format_rational(value, args.digits)}")
        if note:
            print(f"note: {note}")
    return 0


def _cmd_emn(args: argparse.Namespace) -> int:
    table = obtain_table(2 * args.m, args.cache)
    value = e_mn(args.m, args.n, table)
    if args.format == "json":
        print(dumps({"m": args.m, "n": args.n, "value": rational_to_json(value)}))
    else:
        print(f"e({args.m},{args.n}) = {format_rational(value, args.digits)}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    # Read or built only if the answer needs e(m,n): for `auto`, only when
    # the bound does not decide.
    table = functools.partial(obtain_table, 2 * args.m, args.cache)
    cert = certify_non_integrality(args.m, args.n, args.strategy, table)
    if args.format == "json":
        payload = certificate_to_json(cert)
        payload.update({"m": args.m, "n": args.n})
        print(dumps(payload))
    else:
        print(f"e({args.m},{args.n}): {certificate_text(cert, args.digits)}")
    return 1 if isinstance(cert, Inconclusive) else 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    if args.format == "json":
        result = threshold_for_n(args.n, m_cap=args.m_cap)
        m_found = result.m_found
        print(
            dumps(
                {
                    "n": result.n,
                    "m_cap": result.m_cap,
                    "m_found": result.m_found,
                    "chain": [bound_sequence_to_json(seq) for seq in result.chain],
                }
            )
        )
    else:
        # Text prints m0 alone: the walk decides it, and no link is formed.
        m_found = threshold_m0(args.n, m_cap=args.m_cap)
        if m_found is not None:
            print(
                f"threshold for n={args.n}: m0 = {m_found} "
                f"(bound and ratio certified below 1 through m = {args.m_cap})"
            )
        else:
            print(f"threshold for n={args.n}: not found below cap {args.m_cap}")
    return 0 if m_found is not None else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.m_min > args.m_max or args.n_min > args.n_max:
        raise UsageError("each range needs its minimum at most its maximum")
    grid = (args.m_max - args.m_min + 1) * (args.n_max - args.n_min + 1)
    if grid > _MAX_SCAN_POINTS:
        raise UsageError(f"a scan covers at most {_MAX_SCAN_POINTS} points, this grid has {grid}")
    # Read or built only if some point's answer needs e(m,n), as for certify.
    table = functools.partial(obtain_table, 2 * args.m_max, args.cache)
    points = scan((args.m_min, args.m_max), (args.n_min, args.n_max), args.strategy, table)
    any_inconclusive = False
    if args.format == "json":
        rows = []
        for point in points:
            cert = certificate_to_json(point.certificate)
            row = {"m": point.m, "n": point.n, "certificate": cert}
            if point.preferred_witness is not None:
                row["preferred_witness"] = point.preferred_witness
            rows.append(row)
            any_inconclusive |= isinstance(point.certificate, Inconclusive)
        print(dumps({"strategy": args.strategy, "points": rows}))
    else:
        for point in points:
            flag = ""
            if point.preferred_witness is True:
                flag = " [691/3617]"
            print(
                f"m={point.m} n={point.n}: "
                f"{certificate_text(point.certificate, args.digits)}{flag}"
            )
            any_inconclusive |= isinstance(point.certificate, Inconclusive)
    return 1 if any_inconclusive else 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    from .verify import report_to_json, run_verification_suite

    echo = print if args.format == "text" else None
    report = run_verification_suite("standard", cache_path=args.cache, echo=echo)
    if args.format == "json":
        print(dumps(report_to_json(report)))
    else:
        summary = report.summary
        print(
            f"summary: {summary['pass']} pass, {summary['fail']} fail, "
            f"{summary['inconclusive']} inconclusive (mode={report.mode})"
        )
    return 0 if report.passed else 1


_HANDLERS = {
    "bernoulli": _cmd_bernoulli,
    "zeta": _cmd_zeta,
    "chi": _cmd_chi,
    "emn": _cmd_emn,
    "certify": _cmd_certify,
    "threshold": _cmd_threshold,
    "scan": _cmd_scan,
    "verify-paper": _cmd_verify_paper,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else None
    # A request builds only its own command's parser, which parses exactly as
    # that subparser of the full parser does.  Help for the whole program,
    # a missing or unknown command, and leftover arguments (reported with
    # the top-level usage) go to the full parser.
    if command in _COMMANDS:
        parser = _add_command(argparse.ArgumentParser(prog=f"torelli-euler {command}"), command)
        args, leftover = parser.parse_known_args(argv[1:])
    if command not in _COMMANDS or leftover:
        args = _build_parser().parse_args(argv)
        command = args.command
    try:
        status = _HANDLERS[command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader closed stdout early: not a fault of the program.  Point
        # stdout at devnull, so that the flush at exit prints nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - an internal fault: its traceback names the type
        import traceback

        traceback.print_exc()
        return 1


def console_entry() -> None:
    sys.exit(main())
