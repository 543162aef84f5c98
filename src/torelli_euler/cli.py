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
import traceback

from .bernoulli import CacheError, CapacityError, bernoulli_table, obtain_table
from .certify import (
    Inconclusive,
    certify_non_integrality,
    scan,
    threshold_for_n,
)
from .euler_char import (
    EmnQuery,
    TORELLI_FORMULA_NOTE,
    chi_torelli,
    e_mn,
    euler_moduli,
    euler_siegel_quotient,
)
from .render import (
    bound_sequence_to_json,
    certificate_text,
    certificate_to_json,
    dumps,
    format_rational,
    rational_to_json,
)
from .verify import report_to_json, run_verification_suite

CACHE_ENV_VAR = "TORELLI_EULER_CACHE"


class UsageError(Exception):
    """Arguments argparse accepts but the command rejects; exit code 2."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


# Text output rounds to at most this many digits: rounding forms 10**digits,
# and `emn -m 200 -n 677` takes 1.3 s at 10^6 digits and 18 s at 10^7.
_MAX_DIGITS = 100_000


def _digits(text: str) -> int:
    value = _positive_int(text)
    if value > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"expected at most {_MAX_DIGITS} digits, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        # An empty variable means no cache, not the current directory.
        default=os.environ.get(CACHE_ENV_VAR) or None,
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
        ("--max-k", dict(type=_nonnegative_int, required=True, metavar="K")),
        ("--algorithm", dict(choices=("seidel", "akiyama-tanigawa", "both"), default="seidel")),
    )),
    "zeta": ("exact zeta(1-2K) plus decimal", (
        ("--k", dict(type=_positive_int, required=True)),
    )),
    "chi": ("orbifold Euler characteristics", (
        ("--space", dict(choices=("siegel", "moduli", "torelli"), required=True)),
        ("-g", dict(type=_positive_int, required=True)),
        ("-n", dict(type=_nonnegative_int, default=0)),
    )),
    "emn": ("exact e(m,n)", (
        ("-m", dict(type=_positive_int, required=True)),
        ("-n", dict(type=_positive_int, required=True)),
    )),
    "certify": ("non-integrality certificate for e(m,n)", (
        ("-m", dict(type=_positive_int, required=True)),
        ("-n", dict(type=_positive_int, required=True)),
        ("--strategy", dict(choices=("auto", "exact", "bound"), default="auto")),
    )),
    "threshold": ("certified bound threshold for fixed n", (
        ("-n", dict(type=_positive_int, required=True)),
        ("--m-cap", dict(type=_positive_int, default=64)),
    )),
    "scan": ("certificates over a grid of (m, n)", (
        ("--m-min", dict(type=_positive_int, required=True)),
        ("--m-max", dict(type=_positive_int, required=True)),
        ("--n-min", dict(type=_positive_int, required=True)),
        ("--n-max", dict(type=_positive_int, required=True)),
        ("--strategy", dict(choices=("auto", "exact", "bound"), default="exact")),
    )),
    "verify-paper": ("run the full verification suite", (
        ("--deep", dict(action="store_true", help="extend the scan to m = 1470")),
    )),
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
    both = args.algorithm == "both"
    table = obtain_table(max_index, args.cache, "seidel" if both else args.algorithm)
    values = table.values
    agreement = None
    if both:
        agreement = values == bernoulli_table(max_index, "akiyama-tanigawa").values
    if args.format == "json":
        payload = {
            "max_index": max_index,
            "algorithm": table.algorithm,
            "convention": table.convention,
            "values": [
                {"n": n, "value": rational_to_json(values[n])}
                for n in range(max_index + 1)
                if n < 2 or n % 2 == 0
            ],
        }
        if agreement is not None:
            payload["agreement"] = agreement
        print(dumps(payload))
    else:
        for n in range(max_index + 1):
            if n >= 3 and n % 2 == 1:
                continue
            print(f"B_{n} = {format_rational(values[n], args.digits)}")
        if agreement is not None:
            print(f"agreement between algorithms: {'yes' if agreement else 'NO'}")
    if agreement is False:
        return 1
    return 0


def _cmd_zeta(args: argparse.Namespace) -> int:
    from .zeta_special import zeta_one_minus_2k

    table = obtain_table(2 * args.k, args.cache)
    zeta = zeta_one_minus_2k(args.k, table)
    if args.format == "json":
        print(dumps({"k": zeta.k, "value": rational_to_json(zeta.value)}))
    else:
        print(f"zeta(1-2k) for k={args.k}: {format_rational(zeta.value, args.digits)}")
    return 0


def _cmd_chi(args: argparse.Namespace) -> int:
    if args.g < 2:
        raise UsageError("reported spaces need genus g >= 2")
    if args.space == "siegel" and args.n != 0:
        raise UsageError("the Siegel quotient carries no marked points")
    table = obtain_table(2 * args.g, args.cache)
    if args.space == "siegel":
        result = euler_siegel_quotient(args.g, table)
    elif args.space == "moduli":
        result = euler_moduli(args.g, args.n, table)
    else:
        result = chi_torelli(args.g, args.n, table)
    note = TORELLI_FORMULA_NOTE if args.space == "torelli" else None
    if args.format == "json":
        payload = {
            "space": result.space.kind,
            "g": result.space.g,
            "n": result.space.n,
            "value": rational_to_json(result.value),
        }
        if note:
            payload["note"] = note
        print(dumps(payload))
    else:
        label = f"{result.space.kind} (g={result.space.g}, n={result.space.n})"
        print(f"{label}: {format_rational(result.value, args.digits)}")
        if note:
            print(f"note: {note}")
    return 0


def _cmd_emn(args: argparse.Namespace) -> int:
    table = obtain_table(2 * args.m, args.cache)
    value = e_mn(EmnQuery(args.m, args.n), table)
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
    result = threshold_for_n(args.n, m_cap=args.m_cap)
    if args.format == "json":
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
    elif result.found:
        print(
            f"threshold for n={args.n}: m0 = {result.m_found} "
            f"(bound and ratio certified below 1 through m = {args.m_cap})"
        )
    else:
        print(f"threshold for n={args.n}: not found below cap {args.m_cap}")
    return 0 if result.found else 1


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.m_min > args.m_max or args.n_min > args.n_max:
        raise UsageError("each range needs its minimum at most its maximum")
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
    mode = "deep" if args.deep else "standard"
    echo = print if args.format == "text" else None
    report = run_verification_suite(mode, cache_path=args.cache, echo=echo)
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
        traceback.print_exc()
        return 1


def console_entry() -> None:
    sys.exit(main())
