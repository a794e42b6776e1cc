"""Batch command line front end.

Verbs: classify, count, list, series, realize, verify.  Exit codes: 0 on
success, 1 on usage errors, 2 when verify finds a mathematical disagreement,
3 when a search budget is exhausted.  Output is deterministic; verify only
includes timing when asked, so identical invocations stay byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import classify as classify_mod
from .classdata import (
    datum_from_json,
    is_real,
    signed_partition,
    sp_datum_from_json,
    symplectic_datum,
    unipotent_datum,
)
from .errors import BudgetExceededError, EnumerationBoundError, RealizationBudgetError, StrongRealError
from .fields import prime_power


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def size(text: str) -> int:
    """argparse type of the size options; argparse names it in "invalid size value"."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _read_datum(path: str, q, reader):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(str(exc)) from None
    try:
        signed = isinstance(obj, dict) and {"t_minus_1", "t_plus_1"} & obj.keys()
        if reader is datum_from_json and signed:
            raise UsageError(
                "malformed datum file: t_minus_1/t_plus_1 belong to a symplectic datum "
                "(classify --sp)"
            )
        datum = reader(obj)
    except (KeyError, TypeError, AttributeError) as exc:
        raise UsageError(f"malformed datum file: {exc!r}") from None
    if datum.q != q:
        raise UsageError("datum file is for a different q")
    return datum


def _unipotent(q, text: str):
    """The unipotent class of U(n, F_q) whose type is the comma list text."""
    try:
        parts = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from None
    return unipotent_datum(q, parts)


def _sp_unipotent(q, text: str):
    """The unipotent class of Sp(2n, F_q) whose type is a comma list with
    sign suffixes on even parts, e.g. '4-,2+,1,1'."""
    parts = []
    signs = {}
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        sign = None
        if tok.endswith("+") or tok.endswith("-"):
            sign = 1 if tok.endswith("+") else -1
            tok = tok[:-1]
        try:
            part = int(tok)
        except ValueError:
            raise UsageError(f"bad signed part {tok!r}") from None
        if part % 2 == 0:
            if sign is None:
                raise UsageError(f"even part {part} needs a +/- suffix")
            if signs.setdefault(part, sign) != sign:
                raise UsageError(f"conflicting signs for part {part}")
        elif sign is not None:
            raise UsageError(f"odd part {part} must not carry a sign")
        parts.append(part)
    return symplectic_datum(q, signed_plus=signed_partition(parts, signs))


def _cmd_classify(args) -> int:
    q = prime_power(args.q)
    if args.sp and q.p == 2:
        raise UsageError("symplectic classification requires odd q")
    reader, unipotent, verdict_of = (
        (sp_datum_from_json, _sp_unipotent, classify_mod.sp_strongly_real)
        if args.sp
        else (datum_from_json, _unipotent, classify_mod.strongly_real)
    )
    if args.datum is not None:
        datum = _read_datum(args.datum, q, reader)
    elif args.unipotent is not None:
        datum = unipotent(q, args.unipotent)
    else:
        raise UsageError("classify needs --datum or --unipotent")
    verdict = verdict_of(datum)
    if args.format == "plain":
        rule = f" (rule {verdict.rule})" if verdict.rule else ""
        print(f"{verdict.status}{rule}")
    else:
        print(_dump(verdict.to_json()))
    return 0


def _cmd_count(args) -> int:
    from .counting import cross_check_counts

    q = prime_power(args.q)
    if q.p == 2:
        raise UsageError("count requires odd q (no strongly-real counting formula for even q)")
    table = cross_check_counts(args.n_max, q)
    if args.format == "json":
        out = table.to_json()
        out["agreement"] = True  # cross_check_counts raises on mismatch
        print(_dump(out))
    else:
        print(table.format_table())
        print("series-vs-direct agreement: ok")
        for note in table.notes:
            print(f"note: {note}")
    return 0


def _cmd_list(args) -> int:
    from .counting import iter_class_data

    q = prime_power(args.q)
    for datum in iter_class_data(args.n, q):
        if args.filter == "real" and not is_real(datum):
            continue
        if (
            args.filter == "strongly_real"
            and classify_mod.strongly_real(datum).status != classify_mod.STRONGLY_REAL
        ):
            continue
        print(_dump(datum.to_json()))
    return 0


def _cmd_series(args) -> int:
    from .counting import series_K, series_R, series_T

    q = prime_power(args.q)
    which = args.which.upper()
    series_of = {"K": series_K, "R": series_R, "T": series_T}
    if which not in series_of:
        raise UsageError("--which must be K, R, or T")
    series = series_of[which](q, args.order)
    if args.format == "plain":
        print(" ".join(str(c) for c in series.coeffs))
    else:
        print(_dump({"q": q.q, "which": which, "coeffs": list(series.coeffs)}))
    return 0


def _cmd_realize(args) -> int:
    from .oracle import _block_representative, identity_form, matrix_to_json, realize_class

    q = prime_power(args.q)
    budgets = _budgets(args)
    datum = _read_datum(args.datum, q, datum_from_json)
    form = identity_form(datum.n, q)
    try:
        g = realize_class(datum, form, budgets)
    except RealizationBudgetError:
        # one form scan per primary block instead of one over the whole datum
        g = _block_representative(datum, form, budgets, {})
    print(_dump({"matrix": matrix_to_json(q, g), "form": form.to_json()}))
    return 0


def _cmd_verify(args) -> int:
    from .oracle import reconcile

    q = prime_power(args.q)
    budgets = _budgets(args)
    started = time.perf_counter()
    report = reconcile(args.n, q, budgets)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    payload = report.to_json()
    if args.timing:
        payload["elapsed_ms"] = elapsed_ms
    if args.format == "plain":
        print(
            f"U({args.n}, F_{q.q}): {len(report.records)} classes, "
            f"{len(report.disagreements)} disagreements, "
            f"{len(report.undecided)} undecided ({report.strategy})"
        )
    else:
        print(_dump(payload))
    if report.disagreements:
        return 2
    if report.undecided:
        return 3
    return 0


def _budgets(args):
    from .oracle import DEFAULT_BUDGETS, Budgets

    if args.budget is None:
        return DEFAULT_BUDGETS
    if args.budget < 1:
        raise UsageError(f"--budget must be at least 1, got {args.budget}")
    return Budgets.uniform(args.budget)


def build_parser() -> _Parser:
    parser = _Parser(prog="strongreal", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="classify a class datum")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--sp", action="store_true", help="symplectic datum")
    p.add_argument("--datum", help="JSON datum file")
    p.add_argument("--unipotent", help="comma separated partition, e.g. 5,3,2,2")
    p.add_argument("--format", choices=("json", "plain"), default="json")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("count", help="K/R/T table with cross-checks")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-max", type=size, required=True, dest="n_max")
    p.add_argument("--format", choices=("csv", "json", "plain"), default="csv")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("list", help="stream class data as JSON lines")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=size, required=True)
    p.add_argument(
        "--filter", choices=("all", "real", "strongly_real"), default="all"
    )
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("series", help="series coefficients")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--order", type=size, required=True)
    p.add_argument("--which", required=True, help="K, R, or T")
    p.add_argument("--format", choices=("json", "plain"), default="json")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("realize", help="matrix representative of a datum")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--datum", required=True, help="JSON datum file")
    p.add_argument("--budget", type=int, metavar="N", help="set every search budget to N (>= 1)")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("verify", help="brute-force reconciliation")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=size, required=True)
    p.add_argument("--budget", type=int, metavar="N", help="set every search budget to N (>= 1)")
    p.add_argument("--timing", action="store_true", help="include elapsed_ms")
    p.add_argument("--format", choices=("json", "plain"), default="json")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # interpreter's flush at exit cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (BudgetExceededError, EnumerationBoundError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except StrongRealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
