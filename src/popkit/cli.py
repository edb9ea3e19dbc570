"""Command-line interface.

Subcommands:

    count      exact avoiders (or quasi-avoiders) of a pattern at one length
    seq        a whole counting sequence, brute force or named generator
    series     disjoint-chain counts through the e.g.f. composition rule
    classify   empirical Wilf classes of a pattern family
    verify     named generator vs brute force, term by term
    parse      canonicalize a pattern string and show its relations

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error,
3 enumeration cap exceeded.  The cap defaults to 12, overridable with
--cap or the POPKIT_CAP environment variable (the flag wins).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Sequence

from .counting import avoidance_sequence, count_avoiders, count_quasi_avoiders
from .egf import chain_egf, dc_pop_egf
from .errors import InvalidInputError, PopkitError, ResourceLimitError
from .notation import DcSpec, build_pop, parse_pop, poset_text, render_pop
from .perms import DEFAULT_CAP
from .recurrences import theorem_sequence, THEOREM_IDS
from .wilf import cb_family, classify, n_pattern_family

ENV_CAP = "POPKIT_CAP"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _resolve_cap(args: argparse.Namespace) -> int:
    if getattr(args, "cap", None) is not None:
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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\r\n")


def _sequence_text(
    fmt: str, identity: dict[str, object], values: Sequence[int]
) -> str:
    if fmt == "json":
        payload = dict(identity)
        payload["values"] = [str(v) for v in values]
        return json.dumps(payload, indent=2)
    if fmt == "csv":
        return _csv_text(
            ["n", "value"], [[str(n), str(v)] for n, v in enumerate(values)]
        )
    width = max(len(str(len(values) - 1)), 1)
    return "\n".join(
        f"{n:>{width}}  {v}" for n, v in enumerate(values)
    )


def _cmd_count(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    spec = parse_pop(args.pattern)
    poset = build_pop(spec)
    if args.quasi:
        value = count_quasi_avoiders(poset, args.n, cap=cap)
    else:
        value = count_avoiders(poset, args.n, cap=cap)
    if args.format == "json":
        text = json.dumps(
            {
                "pattern": render_pop(spec),
                "n": args.n,
                "quasi": bool(args.quasi),
                "count": str(value),
            },
            indent=2,
        )
    elif args.format == "csv":
        text = _csv_text(
            ["pattern", "n", "quasi", "count"],
            [[render_pop(spec), str(args.n), str(bool(args.quasi)).lower(), str(value)]],
        )
    else:
        text = str(value)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_seq(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    if (args.pattern is None) == (args.theorem is None):
        raise InvalidInputError("give exactly one of --pattern or --theorem")
    if args.pattern is not None:
        if args.k is not None or args.j is not None:
            raise InvalidInputError("--k/--j apply only to --theorem")
        spec = parse_pop(args.pattern)
        seq = avoidance_sequence(build_pop(spec), args.nmax, cap=cap)
        identity: dict[str, object] = {
            "pattern": render_pop(spec),
            "source": seq.source,
            "nmax": args.nmax,
        }
    else:
        seq = theorem_sequence(args.theorem, args.nmax, k=args.k, j=args.j)
        identity = {
            "theorem": str(seq.pattern),
            "source": seq.source,
            "nmax": args.nmax,
        }
    _emit(_sequence_text(args.format, identity, seq.values), args.out)
    return EXIT_OK


def _cmd_series(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    text = args.dc.strip()
    if not text.startswith("dc:"):
        text = "dc:" + text
    spec = parse_pop(text)
    if not isinstance(spec, DcSpec):
        raise InvalidInputError("--dc takes disjoint-chain notation like [12|43|65]")
    build_pop(spec)  # validate the words before any series work
    series = dc_pop_egf([chain_egf(w, args.order, cap) for w in spec.words])
    identity: dict[str, object] = {
        "pattern": render_pop(spec),
        "source": "egf-expansion",
        "order": args.order,
    }
    _emit(_sequence_text(args.format, identity, series.counts), args.out)
    return EXIT_OK


def _parse_family(text: str):
    if text == "npatterns":
        return n_pattern_family()
    if text.startswith("cb:"):
        parts = text.split(":")
        if len(parts) == 3:
            try:
                k, a_size = int(parts[1]), int(parts[2])
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
    family = _parse_family(args.family)
    report = classify(family, n_max=args.nmax, cap=cap)
    if args.format == "json":
        payload = {
            "family": report.family,
            "nmax": report.n_max,
            "caveat": report.caveat,
            "classes": [
                {
                    "prefix": [str(v) for v in cls.prefix],
                    "size": cls.size,
                    "members": list(cls.member_names),
                    "orbit_representatives": [
                        poset_text(p) for p in cls.orbit_representatives
                    ],
                }
                for cls in report.classes
            ],
        }
        text = json.dumps(payload, indent=2)
    else:
        lines = [
            f"family {report.family}: {len(report.classes)} classes "
            f"by a(0..{report.n_max})",
            f"note: {report.caveat}",
        ]
        for i, cls in enumerate(report.classes, start=1):
            prefix = ",".join(str(v) for v in cls.prefix)
            lines.append(f"class {i} ({cls.size} members): {prefix}")
            lines.append("  members: " + " ".join(cls.member_names))
            lines.append(
                "  orbit representatives: "
                + " ".join(poset_text(p) for p in cls.orbit_representatives)
            )
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    theorem_seq = theorem_sequence(args.theorem, args.nmax, k=args.k, j=args.j)
    spec = parse_pop(args.pattern)
    brute_seq = avoidance_sequence(build_pop(spec), args.nmax, cap=cap)
    matches = theorem_seq.values == brute_seq.values
    lines = [
        f"theorem {theorem_seq.pattern}: "
        + ",".join(str(v) for v in theorem_seq.values),
        f"brute force {render_pop(spec)}: "
        + ",".join(str(v) for v in brute_seq.values),
    ]
    if matches:
        lines.append(f"match through n={args.nmax}")
    else:
        first_bad = next(
            n
            for n, (a, b) in enumerate(zip(theorem_seq.values, brute_seq.values))
            if a != b
        )
        lines.append(f"MISMATCH at n={first_bad}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK if matches else EXIT_MISMATCH


def _cmd_parse(args: argparse.Namespace) -> int:
    spec = parse_pop(args.pattern)
    poset = build_pop(spec)
    if args.format == "json":
        text = json.dumps(
            {
                "input": args.pattern,
                "canonical": render_pop(spec),
                "k": poset.k,
                "relations": [list(pair) for pair in sorted(poset.relations)],
            },
            indent=2,
        )
    else:
        text = "\n".join(
            [
                f"canonical: {render_pop(spec)}",
                f"poset: {poset_text(poset)}",
            ]
        )
    _emit(text, args.out)
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser, fmt_choices=("table", "json", "csv")) -> None:
    sub.add_argument(
        "--cap",
        type=int,
        default=None,
        help=f"enumeration cap (default {DEFAULT_CAP}; env {ENV_CAP})",
    )
    sub.add_argument(
        "--format",
        choices=fmt_choices,
        default=fmt_choices[0],
        help="output format",
    )
    sub.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
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
    p_seq.add_argument("--pattern", default=None, help="pattern notation (brute force)")
    p_seq.add_argument(
        "--theorem",
        default=None,
        help="generator id: " + ", ".join(sorted(THEOREM_IDS)),
    )
    p_seq.add_argument("--k", type=int, default=None, help="pattern length parameter")
    p_seq.add_argument("--j", type=int, default=None, help="interval width parameter")
    p_seq.add_argument("--nmax", type=int, required=True)
    _add_common(p_seq)
    p_seq.set_defaults(func=_cmd_seq)

    p_series = subs.add_parser(
        "series", help="disjoint-chain counts via the e.g.f. composition rule"
    )
    p_series.add_argument(
        "--dc", required=True, help='chain words, e.g. "[12|43|65]"'
    )
    p_series.add_argument("--order", type=int, default=15, help="truncation order")
    _add_common(p_series)
    p_series.set_defaults(func=_cmd_series)

    p_classify = subs.add_parser("classify", help="empirical Wilf classes of a family")
    p_classify.add_argument(
        "--family", required=True, help="npatterns or cb:K:A_SIZE"
    )
    p_classify.add_argument("--nmax", type=int, default=9)
    _add_common(p_classify, fmt_choices=("table", "json"))
    p_classify.set_defaults(func=_cmd_classify)

    p_verify = subs.add_parser(
        "verify", help="compare a named generator against brute force"
    )
    p_verify.add_argument("--theorem", required=True)
    p_verify.add_argument("--pattern", required=True)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--j", type=int, default=None)
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
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
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
