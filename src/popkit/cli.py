"""Command-line interface.

Subcommands:

    count      exact avoiders (or quasi-avoiders) of a pattern at one length
    seq        a whole counting sequence, brute force or named generator
    series     disjoint-chain counts through the e.g.f. composition rule
    classify   empirical Wilf classes of a pattern family
    verify     named generator vs brute force, term by term
    parse      canonicalize a pattern string and show its relations

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error
or an --out file that cannot be written, 3 enumeration cap exceeded.
The cap defaults to 12, overridable with --cap or the POPKIT_CAP
environment variable (the flag wins).
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import itertools
import json
import os
import sys
from typing import Iterable, Iterator, Sequence

from .counting import avoidance_sequence, count_avoiders, count_quasi_avoiders
from .egf import DEFAULT_ORDER, chain_egf, dc_pop_egf
from .errors import InvalidInputError, PopkitError, ResourceLimitError
from .notation import build_pop, parse_pop, poset_text, render_pop
from .perms import DEFAULT_CAP
from .recurrences import theorem_sequence, THEOREM_IDS
from .wilf import DEFAULT_NMAX, cb_family, classify, n_pattern_family

ENV_CAP = "POPKIT_CAP"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _resolve_cap(args: argparse.Namespace) -> int:
    if args.cap is not None:
        return args.cap
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(
            f"{ENV_CAP} must be an integer, got {raw!r}"
        ) from None


def _output(
    args: argparse.Namespace,
    payload: object,
    lines: Iterable[str],
    rows: Iterable[Sequence[object]] | None = None,
    code: int = EXIT_OK,
) -> int:
    """Render a command's result in --format, write it, return its exit code.

    payload is the JSON object, lines the table text and rows the CSV
    rows, header first; a command passes only the forms its --format
    choices allow.  This is the only code that picks a format or writes.
    """
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(
            f"cannot write {args.out}: {exc.strerror or exc}"
        ) from None
    return code


def _texts(values: Sequence[int]) -> list[str]:
    """Decimal text of each value, however many digits it has."""
    try:
        return [str(v) for v in values]
    except ValueError:
        # str refuses ints above the interpreter's digit limit
        # (sys.get_int_max_str_digits); Decimal's exact text has none.
        return [str(decimal.Decimal(v)) for v in values]


def _sequence_views(
    identity: dict[str, object], values: Sequence[int]
) -> tuple[dict[str, object], Iterator[str], Iterator[Sequence[object]]]:
    """JSON payload, aligned table lines and CSV rows of a(0..).

    Each value becomes text once; the lines and rows are generated only
    when --format asks for them.
    """
    texts = _texts(values)
    width = len(str(len(texts) - 1))
    lines = (f"{n:>{width}}  {t}" for n, t in enumerate(texts))
    rows = itertools.chain([("n", "value")], enumerate(texts))
    return {**identity, "values": texts}, lines, rows


def _cmd_count(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    spec = parse_pop(args.pattern)
    count = count_quasi_avoiders if args.quasi else count_avoiders
    [value] = _texts([count(build_pop(spec), args.n, cap=cap)])
    pattern = render_pop(spec)
    payload = {"pattern": pattern, "n": args.n, "quasi": args.quasi, "count": value}
    rows = [
        ["pattern", "n", "quasi", "count"],
        [pattern, str(args.n), str(args.quasi).lower(), value],
    ]
    return _output(args, payload, [value], rows)


def _cmd_seq(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    if (args.pattern is None) == (args.theorem is None):
        raise InvalidInputError("give exactly one of --pattern or --theorem")
    if args.pattern is not None:
        if args.k is not None or args.j is not None:
            raise InvalidInputError("--k/--j apply only to --theorem")
        spec = parse_pop(args.pattern)
        seq = avoidance_sequence(build_pop(spec), args.nmax, cap=cap)
        identity: dict[str, object] = {"pattern": render_pop(spec)}
    else:
        seq = theorem_sequence(args.theorem, args.nmax, k=args.k, j=args.j)
        identity = {"theorem": str(seq.pattern)}
    identity.update(source=seq.source, nmax=args.nmax)
    return _output(args, *_sequence_views(identity, seq.values))


def _cmd_series(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    text = args.dc.strip()
    if not text.startswith("dc:"):
        text = "dc:" + text
    spec = parse_pop(text)
    build_pop(spec)  # validate the words before any series work
    series = dc_pop_egf([chain_egf(w, args.order, cap) for w in spec.words])
    identity = {
        "pattern": render_pop(spec),
        "source": "egf-expansion",
        "order": args.order,
    }
    return _output(args, *_sequence_views(identity, series.counts))


def _parse_family(text: str):
    if text == "npatterns":
        return n_pattern_family()
    kind, *params = text.split(":")
    if kind == "cb" and len(params) == 2:
        try:
            k, a_size = map(int, params)
        except ValueError:
            raise InvalidInputError(
                f"bad family {text!r}; use npatterns or cb:K:A_SIZE"
            ) from None
        return cb_family(k, a_size)
    raise InvalidInputError(
        f"unknown family {text!r}; use npatterns or cb:K:A_SIZE"
    )


def _cmd_classify(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    report = classify(_parse_family(args.family), n_max=args.nmax, cap=cap)
    classes = [
        {
            "prefix": _texts(cls.prefix),
            "size": cls.size,
            "members": list(cls.member_names),
            "orbit_representatives": list(cls.representative_names),
        }
        for cls in report.classes
    ]
    lines = [
        f"family {report.family}: {len(classes)} classes by a(0..{report.n_max})",
        f"note: {report.caveat}",
    ]
    for i, cls in enumerate(classes, start=1):
        lines += [
            f"class {i} ({cls['size']} members): " + ",".join(cls["prefix"]),
            "  members: " + " ".join(cls["members"]),
            "  orbit representatives: " + " ".join(cls["orbit_representatives"]),
        ]
    payload = {
        "family": report.family,
        "nmax": report.n_max,
        "caveat": report.caveat,
        "classes": classes,
    }
    return _output(args, payload, lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    theorem_seq = theorem_sequence(args.theorem, args.nmax, k=args.k, j=args.j)
    spec = parse_pop(args.pattern)
    brute_seq = avoidance_sequence(build_pop(spec), args.nmax, cap=cap)
    pairs = enumerate(zip(theorem_seq.values, brute_seq.values))
    first_bad = next((n for n, (a, b) in pairs if a != b), None)
    lines = [
        f"theorem {theorem_seq.pattern}: " + ",".join(_texts(theorem_seq.values)),
        f"brute force {render_pop(spec)}: " + ",".join(_texts(brute_seq.values)),
        f"match through n={args.nmax}"
        if first_bad is None
        else f"MISMATCH at n={first_bad}",
    ]
    code = EXIT_OK if first_bad is None else EXIT_MISMATCH
    return _output(args, None, lines, code=code)


def _cmd_parse(args: argparse.Namespace) -> int:
    spec = parse_pop(args.pattern)
    poset = build_pop(spec)
    canonical = render_pop(spec)
    payload = {
        "input": args.pattern,
        "canonical": canonical,
        "k": poset.k,
        "relations": [list(pair) for pair in sorted(poset.relations)],
    }
    lines = [f"canonical: {canonical}", f"poset: {poset_text(poset)}"]
    return _output(args, payload, lines)


def _add_common(
    sub: argparse.ArgumentParser, fmt_choices=("table", "json", "csv")
) -> None:
    cap_help = f"enumeration cap (default {DEFAULT_CAP}; env {ENV_CAP})"
    sub.add_argument("--cap", type=int, help=cap_help)
    sub.add_argument(
        "--format", choices=fmt_choices, default=fmt_choices[0], help="output format"
    )
    sub.add_argument("--out", help="write output to a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by run_cli."""
    parser = argparse.ArgumentParser(
        prog="popkit",
        description="Partially ordered patterns: matching, counting, classification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_count = subs.add_parser("count", help="avoiders of a pattern at one length")
    p_count.add_argument("--pattern", required=True, help="pattern notation")
    p_count.add_argument("--n", type=int, required=True, help="permutation length")
    p_count.add_argument(
        "--quasi", action="store_true", help="count quasi-avoiders instead"
    )
    _add_common(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_seq = subs.add_parser("seq", help="counting sequence a(0..nmax)")
    p_seq.add_argument("--pattern", help="pattern notation (brute force)")
    theorem_help = "generator id: " + ", ".join(sorted(THEOREM_IDS))
    p_seq.add_argument("--theorem", help=theorem_help)
    p_seq.add_argument("--k", type=int, help="pattern length parameter")
    p_seq.add_argument("--j", type=int, help="interval width parameter")
    p_seq.add_argument("--nmax", type=int, required=True)
    _add_common(p_seq)
    p_seq.set_defaults(func=_cmd_seq)

    p_series = subs.add_parser(
        "series", help="disjoint-chain counts via the e.g.f. composition rule"
    )
    p_series.add_argument(
        "--dc", required=True, help='chain words, e.g. "[12|43|65]"'
    )
    p_series.add_argument(
        "--order", type=int, default=DEFAULT_ORDER, help="truncation order"
    )
    _add_common(p_series)
    p_series.set_defaults(func=_cmd_series)

    p_classify = subs.add_parser("classify", help="empirical Wilf classes of a family")
    p_classify.add_argument(
        "--family", required=True, help="npatterns or cb:K:A_SIZE"
    )
    p_classify.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    _add_common(p_classify, fmt_choices=("table", "json"))
    p_classify.set_defaults(func=_cmd_classify)

    p_verify = subs.add_parser(
        "verify", help="compare a named generator against brute force"
    )
    p_verify.add_argument("--theorem", required=True)
    p_verify.add_argument("--pattern", required=True)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--j", type=int)
    p_verify.add_argument("--nmax", type=int, required=True)
    _add_common(p_verify, fmt_choices=("table",))
    p_verify.set_defaults(func=_cmd_verify)

    p_parse = subs.add_parser("parse", help="canonicalize pattern notation")
    p_parse.add_argument("--pattern", required=True)
    _add_common(p_parse, fmt_choices=("table", "json"))
    p_parse.set_defaults(func=_cmd_parse)

    return parser


def run_cli(argv: Sequence[str]) -> int:
    """Run one CLI invocation and return its exit code."""
    try:
        args = build_parser().parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"popkit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PopkitError as exc:
        print(f"popkit: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
