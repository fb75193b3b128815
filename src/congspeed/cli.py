"""Command-line front end; `--output` picks text, JSON or CSV for every command.

Big integers are always serialized as decimal strings in JSON so output
survives any consumer; bases are read and integers printed at any length,
past CPython's 4,300-digit conversion limit.  Every failure prints one
`error:` line to stderr and exits with 1 (precision or search budget
exhausted), 2 (usage error, including a base divisible by 10, the empty
class 5 at speed 1 and a `q` cache path that cannot be read or appended to)
or 3 (verification failure: a fixture, formula or oracle-certificate
mismatch, or a torn, undecodable, mistyped or failing `q` cache line).  The
oracle sizes every table from the LTE bound, so no command takes a
precision.  `main` may be called many times in one process: it builds the
parser once and shares it between calls.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from typing import NamedTuple

from . import classes, decadic, primes, verify
from .arith import decimal, to_decimal
from .primes import PrimeSpeedRecord
from .speed import (
    CertificateMismatch,
    PrecisionError,
    UndefinedSpeedError,
    speed_at_height,
    speed_profile,
)

EXIT_OK = 0
EXIT_RESOURCE = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3


class Output(NamedTuple):
    """A command's result in every format; `--output` picks which one prints."""

    payload: object  # printed as JSON
    header: list  # the CSV header line ...
    rows: list  # ... and one CSV line per row
    lines: list  # text lines
    code: int = EXIT_OK


def _text(v) -> str:
    """A CSV cell or text line; an int of any length prints in decimal."""
    return "" if v is None else to_decimal(v) if type(v) is int else str(v)


def _write(out: Output, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(out.payload))
    elif fmt == "csv":
        print(",".join(out.header))
        for row in out.rows:
            print(",".join(map(_text, row)))
    else:
        for line in out.lines:
            print(_text(line))


def _at_least(low: int):
    """argparse type for an int of at least `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() rejects the text
    return parse


def _speeds(text: str) -> tuple:
    """argparse type for a comma list of speeds, each at least 1 ('' for none)."""
    return tuple(map(_at_least(1), text.split(","))) if text else ()


_speeds.__name__ = "speed list"  # argparse names the type when int() rejects an item


def _record_dict(rec: PrimeSpeedRecord) -> dict:
    return {
        "n": rec.n,
        "q": to_decimal(rec.q),
        "method": rec.method,
        "oracle_checked": rec.oracle_checked,
    }


class CacheError(RuntimeError):
    """A `q` cache line is unreadable or its record fails verification."""


@contextlib.contextmanager
def _cache_file(path: str, mode: str):
    """The `q` cache opened in binary `mode`; a path that cannot be used is a usage error."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"cannot use cache {path}: {exc.strerror}") from exc


@functools.lru_cache(maxsize=1024)
def _cached_record(line: str) -> PrimeSpeedRecord:
    """A stripped cache line's record; pure, so each distinct line is checked once per process."""
    obj = json.loads(line, parse_int=decimal)
    n, q, method, checked = (obj[k] for k in ("n", "q", "method", "oracle_checked"))
    q = decimal(q) if isinstance(q, str) and q.isascii() and q.isdecimal() else q
    # type(), not isinstance(): a JSON true is neither a count nor a prime
    typed = (type(n), type(q), type(checked)) == (int, int, bool)
    if not typed or method != primes.primality_method(q):
        raise ValueError("mistyped field, or a method that is not q's")
    return PrimeSpeedRecord(n, q, method, checked)


def _load_cache(path: str) -> dict:
    """n -> record over the whole file, read on every call: another process may append to it."""
    cache = {}
    if not path or not os.path.exists(path):
        return cache
    with _cache_file(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line = line.decode("utf-8").strip()
                if line:
                    rec = _cached_record(line)
                    cache[rec.n] = rec
            except (ValueError, KeyError, TypeError) as exc:  # UnicodeDecodeError included
                raise CacheError(f"{path}:{lineno}: unreadable cache line") from exc
    return cache


def _append_cache(fh, rec: PrimeSpeedRecord) -> None:
    fh.write(json.dumps(_record_dict(rec)).encode() + b"\n")
    fh.flush()


@functools.lru_cache(maxsize=1024)
def _verified(n: int, q: int) -> bool:
    """Whether q is a prime of speed n; a pure function, so tested once per process."""
    return primes.is_prime(q) and classes.speed_by_formula(q) == n


def _resolver(cache_path: str | None, budget: int | None):
    """n -> PrimeSpeedRecord over one read of the cache.

    Every call reads every line of the cache.  `_cached_record` checks each
    distinct line once per process; a line that fails is not memoised, so it
    fails every call.  A cached record is verified, not recomputed, through
    `_verified`, which tests each (n, q) once per process and then serves the
    verdict, a failing one too.
    A miss opens the cache for append before it is searched for, so a path
    that cannot take the record fails before the search, not after it.
    """
    cache = _load_cache(cache_path) if cache_path else {}

    def resolve(n: int) -> PrimeSpeedRecord:
        rec = cache.get(n)
        if rec is None:
            sink = _cache_file(cache_path, "ab") if cache_path else contextlib.nullcontext()
            with sink as fh:
                rec = primes.smallest_prime_with_speed(n, budget=budget)
                if fh is not None:
                    _append_cache(fh, rec)
        elif not _verified(n, rec.q):
            raise CacheError(f"{cache_path}: cache entry for n = {n} fails verification")
        return rec

    return resolve


def _cmd_speed(args) -> Output:
    a = args.a
    if args.height is not None:
        v = speed_at_height(a, args.height)
        heights = [[args.height, v]]
    else:
        profile = speed_profile(a)
        v = profile.constant_speed
        heights = [[e.height, e.speed] for e in profile.entries]
    return Output({"a": to_decimal(a), "V": v, "heights": heights}, ["a", "V"], [[a, v]], [v])


def _cmd_profile(args) -> Output:
    profile = speed_profile(args.a, args.max_height)
    rows = [[e.height, e.frozen, e.speed] for e in profile.entries]
    payload = {
        "a": to_decimal(args.a),
        "precision": profile.precision_digits,
        "entries": rows,
        "V": profile.constant_speed,
    }
    lines = ["# b frozen V"]
    lines += [f"{b} {'-' if nu is None else nu} {v}" for b, nu, v in rows]
    lines.append(f"# constant {profile.constant_speed}")
    return Output(payload, ["height", "frozen", "speed"], rows, lines)


def _cmd_min_base(args) -> Output:
    if args.s1 is not None:
        if args.n < 1:
            args.error(f"argument n: must be at least 1 with --class, got {args.n}")
        value = classes.min_base_class(args.s1, args.n)
    else:
        value = classes.min_base(args.n)
    return Output({"n": args.n, "s1": args.s1, "value": to_decimal(value)},
                  ["n", "s1", "value"], [[args.n, args.s1, value]], [value])


def _cmd_class(args) -> Output:
    spec = classes.class_spec(args.s1, args.n)
    # an empty class (last digit 5, speed 1) has no members: smallest() names it in a ValueError
    members = list(itertools.islice(spec.members(), args.count)) or [spec.smallest()]
    return Output({"s1": args.s1, "n": args.n, "members": list(map(to_decimal, members))},
                  ["member"], [[v] for v in members], members)


def _cmd_root(args) -> Output:
    res = decadic.root_residue(args.i, args.digits)
    text = to_decimal(res.value).zfill(args.digits)
    return Output({"root": args.i, "digits": args.digits, "value": text},
                  ["root", "digits", "value"], [[args.i, args.digits, text]], [text])


def _cmd_q(args) -> Output:
    rec = _resolver(args.cache, args.budget)(args.n)
    return Output(_record_dict(rec), ["n", "q", "method", "oracle_checked"],
                  [[rec.n, rec.q, rec.method, rec.oracle_checked]], [rec.q])


def _cmd_table1(args) -> Output:
    rows = classes.table1_rows(args.max)
    payload = {
        "rows": [
            {"n": n, "class5": None if a5 is None else to_decimal(a5), "others": to_decimal(other)}
            for n, a5, other in rows
        ]
    }
    lines = [f"{r['n']} {r['class5'] or '-'} {r['others']}" for r in payload["rows"]]
    return Output(payload, ["n", "class5", "others"], rows, lines)


def _cmd_table2(args) -> Output:
    resolve = _resolver(args.cache, args.budget)
    records = primes.smallest_prime_table(args.max, args.extra, resolve)
    flags = primes.non_monotonic_flags(records, resolver=lambda n: resolve(n).q)
    return Output(
        {"rows": [dict(_record_dict(r), non_monotonic=r.n in flags) for r in records]},
        ["n", "q", "method", "oracle_checked", "non_monotonic"],
        [[r.n, r.q, r.method, r.oracle_checked, r.n in flags] for r in records],
        [f"{r.n} {to_decimal(r.q)}{' *' if r.n in flags else ''}" for r in records],
    )


def _cmd_verify(args) -> Output:
    # The sweep checks its range, so a bad one fails before the costly fixture runs.
    report = verify.sweep(2, args.sweep)
    try:
        verify.phase_shift_fixture()
        fixture_ok = True
    except verify.FixtureMismatch:
        fixture_ok = False
    lines = [
        f"phase-shift fixture: {'ok' if fixture_ok else 'MISMATCH'}",
        f"sweep 2..{args.sweep} @ {report.precision} digits: {len(report.mismatches)} mismatches",
    ]
    lines += [f"  mismatch a={a} oracle={o} formula={f} membership={m}"
              for a, o, f, m in report.mismatches[:20]]
    return Output(
        dict(report.to_dict(), fixture_ok=fixture_ok),
        ["a_min", "a_max", "precision", "mismatches", "fixture_ok"],
        [[report.a_min, report.a_max, report.precision, len(report.mismatches), fixture_ok]],
        lines,
        EXIT_OK if fixture_ok and report.ok else EXIT_MISMATCH,
    )


def _cmd_oeis(args) -> Output:
    rows = [(n, classes.min_base(n)) for n in range(args.terms)]
    return Output({"rows": [{"n": n, "a": to_decimal(a)} for n, a in rows]},
                  ["n", "a"], rows, [f"{n} {to_decimal(a)}" for n, a in rows])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser; `main` shares it between calls, so do not modify it."""
    parser = argparse.ArgumentParser(
        prog="congspeed",
        description="Congruence speed of integer tetration in base 10.",
    )
    parser.add_argument(
        "--output",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("speed", help="constant speed V(a), or V(a, b) with --height")
    p.add_argument("a", type=decimal)
    p.add_argument("--height", type=_at_least(1), default=None)
    p.set_defaults(func=_cmd_speed)

    p = sub.add_parser("profile", help="per-height frozen digits and speeds")
    p.add_argument("a", type=decimal)
    p.add_argument("--max-height", type=_at_least(1), required=True)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("min-base", help="smallest base with speed N")
    p.add_argument("n", type=_at_least(0))
    p.add_argument("--class", dest="s1", type=int, choices=range(1, 10), metavar="S1")
    p.set_defaults(func=_cmd_min_base, error=p.error)

    p = sub.add_parser("class", help="ascending members of a speed class")
    p.add_argument("s1", type=int, choices=range(1, 10), metavar="s1")
    p.add_argument("n", type=_at_least(1))
    p.add_argument("--count", type=_at_least(1), required=True)
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("root", help="n-digit truncation of a y^5 = y root")
    p.add_argument("i", type=int, choices=range(1, 14), metavar="i")
    p.add_argument("--digits", type=_at_least(1), required=True)
    p.set_defaults(func=_cmd_root)

    p = sub.add_parser("q", help="smallest prime with speed N")
    p.add_argument("n", type=_at_least(1))
    p.add_argument("--cache", type=str, default=None)
    p.add_argument("--budget", type=_at_least(1), default=None)
    p.set_defaults(func=_cmd_q)

    p = sub.add_parser("table1", help="smallest bases: class 5 vs the rest")
    p.add_argument("--max", type=_at_least(1), default=19)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="smallest primes per speed")
    p.add_argument("--max", type=_at_least(0), default=21)
    p.add_argument("--extra", type=_speeds, default=())
    p.add_argument("--cache", type=str, default=None)
    p.add_argument("--budget", type=_at_least(1), default=None)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("verify", help="oracle-vs-formula sweep plus fixtures")
    p.add_argument("--sweep", type=_at_least(2), required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oeis", help="b-file export")
    p.add_argument("--min-bases", action="store_true", required=True)
    p.add_argument("--terms", type=_at_least(1), required=True)
    p.set_defaults(func=_cmd_oeis)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
    except (PrecisionError, primes.SearchBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (UndefinedSpeedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        verify.FixtureMismatch, classes.FormulaMismatch, CertificateMismatch, CacheError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    _write(out, args.output)
    return out.code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
