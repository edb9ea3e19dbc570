"""Exact CLI output, byte for byte, for every command in every format.

These pin what the looser checks in test_cli.py leave open: table
alignment, CSV line endings (RFC 4180: CRLF after every row, the last
one included), JSON indentation and key order, and the order of
the verify lines.  Inputs are kept small so the whole file runs fast.
"""

import itertools
import textwrap

import pytest

from popkit.cli import build_parser, run_cli


def text(block: str) -> str:
    """A dedented triple-quoted block, without its leading newline."""
    return textwrap.dedent(block).lstrip("\n")


def values_json(head: str, values: list[str]) -> str:
    """Indented JSON for a sequence payload: head keys, then "values"."""
    items = ",\n".join(f'    "{v}"' for v in values)
    return "{\n" + head + '  "values": [\n' + items + "\n  ]\n}\n"


CB4_12 = ["1", "1", "2", "6", "20", "68", "232", "792", "2704", "9232", "31520"]
DC_12_34 = ["1", "1", "2", "6", "18", "50", "130", "322", "770", "1794", "4098"]


def values_table(values: list[str]) -> str:
    return "".join(f"{n:>2}  {v}\n" for n, v in enumerate(values))


def values_csv(values: list[str]) -> str:
    rows = ["n,value"] + [f"{n},{v}" for n, v in enumerate(values)]
    return "".join(row + "\r\n" for row in rows)


COUNT = ["count", "--pattern", "n:2134", "--n", "5"]
QUASI = ["count", "--pattern", "cb:4:{1,2}", "--n", "6", "--quasi"]
SEQ_PATTERN = ["seq", "--pattern", "cb:4:{1,2}", "--nmax", "10"]
SEQ_THEOREM = ["seq", "--theorem", "b2", "--k", "4", "--nmax", "10"]
SERIES = ["series", "--dc", "[12|34]", "--order", "10"]
CLASSIFY = ["classify", "--family", "npatterns", "--nmax", "6"]
PARSE = ["parse", "--pattern", "cb:5:{2,1}"]

CLASSIFY_TABLE = text(
    """
    family npatterns: 3 classes by a(0..6)
    note: equal counting prefixes are evidence of Wilf-equivalence, not proof
    class 1 (14 members): 1,1,2,6,19,59,180
      members: n:1234 n:1243 n:1324 n:1432 n:2134 n:2143 n:2341 n:3214 \
n:3412 n:3421 n:4123 n:4231 n:4312 n:4321
      orbit representatives: rel:4:{(1,2),(1,3),(4,3)} rel:4:{(1,2),(1,4),(3,2)} \
rel:4:{(1,2),(1,4),(3,4)} rel:4:{(1,2),(3,2),(3,4)} rel:4:{(1,3),(2,3),(2,4)}
    class 2 (8 members): 1,1,2,6,19,60,189
      members: n:1342 n:1423 n:2314 n:2431 n:3124 n:3241 n:4132 n:4213
      orbit representatives: rel:4:{(1,2),(1,3),(4,2)} rel:4:{(1,3),(1,4),(2,3)}
    class 3 (2 members): 1,1,2,6,19,61,196
      members: n:2413 n:3142
      orbit representatives: rel:4:{(1,3),(1,4),(2,4)}
    """
)


def classify_json_class(prefix, size, members, reps) -> str:
    def block(items):
        return ",\n".join(f'        "{s}"' for s in items)

    return (
        "    {\n"
        '      "prefix": [\n' + block(prefix) + "\n      ],\n"
        f'      "size": {size},\n'
        '      "members": [\n' + block(members) + "\n      ],\n"
        '      "orbit_representatives": [\n' + block(reps) + "\n      ]\n"
        "    }"
    )


CLASSIFY_JSON = (
    "{\n"
    '  "family": "npatterns",\n'
    '  "nmax": 6,\n'
    '  "caveat": "equal counting prefixes are evidence of Wilf-equivalence, '
    'not proof",\n'
    '  "classes": [\n'
    + ",\n".join(
        [
            classify_json_class(
                ["1", "1", "2", "6", "19", "59", "180"],
                14,
                [
                    "n:1234", "n:1243", "n:1324", "n:1432", "n:2134",
                    "n:2143", "n:2341", "n:3214", "n:3412", "n:3421",
                    "n:4123", "n:4231", "n:4312", "n:4321",
                ],
                [
                    "rel:4:{(1,2),(1,3),(4,3)}",
                    "rel:4:{(1,2),(1,4),(3,2)}",
                    "rel:4:{(1,2),(1,4),(3,4)}",
                    "rel:4:{(1,2),(3,2),(3,4)}",
                    "rel:4:{(1,3),(2,3),(2,4)}",
                ],
            ),
            classify_json_class(
                ["1", "1", "2", "6", "19", "60", "189"],
                8,
                [
                    "n:1342", "n:1423", "n:2314", "n:2431",
                    "n:3124", "n:3241", "n:4132", "n:4213",
                ],
                ["rel:4:{(1,2),(1,3),(4,2)}", "rel:4:{(1,3),(1,4),(2,3)}"],
            ),
            classify_json_class(
                ["1", "1", "2", "6", "19", "61", "196"],
                2,
                ["n:2413", "n:3142"],
                ["rel:4:{(1,3),(1,4),(2,4)}"],
            ),
        ]
    )
    + "\n  ]\n}\n"
)

CB7_3 = ["classify", "--family", "cb:7:3", "--nmax", "5"]
# Every member is longer than n_max, so all 35 share 0!..5!.  Only 7 of
# the 19 orbit representatives are members; the rest are order duals.
CB7_3_MEMBERS = [
    "cb:7:{" + ",".join(map(str, a)) + "}"
    for a in itertools.combinations(range(1, 8), 3)
]
CB7_3_REPS = [
    "rel:7:{(1,2),(1,3),(1,4),(1,5),(6,2),(6,3),(6,4),(6,5),(7,2),(7,3),(7,4),(7,5)}",
    "rel:7:{(1,2),(1,3),(1,4),(1,6),(5,2),(5,3),(5,4),(5,6),(7,2),(7,3),(7,4),(7,6)}",
    "rel:7:{(1,2),(1,3),(1,4),(1,7),(5,2),(5,3),(5,4),(5,7),(6,2),(6,3),(6,4),(6,7)}",
    "rel:7:{(1,2),(1,3),(1,4),(5,2),(5,3),(5,4),(6,2),(6,3),(6,4),(7,2),(7,3),(7,4)}",
    "rel:7:{(1,2),(1,3),(1,5),(1,6),(4,2),(4,3),(4,5),(4,6),(7,2),(7,3),(7,5),(7,6)}",
    "rel:7:{(1,2),(1,3),(1,5),(1,7),(4,2),(4,3),(4,5),(4,7),(6,2),(6,3),(6,5),(6,7)}",
    "rel:7:{(1,2),(1,3),(1,5),(4,2),(4,3),(4,5),(6,2),(6,3),(6,5),(7,2),(7,3),(7,5)}",
    "rel:7:{(1,2),(1,3),(1,6),(1,7),(4,2),(4,3),(4,6),(4,7),(5,2),(5,3),(5,6),(5,7)}",
    "rel:7:{(1,2),(1,3),(1,6),(4,2),(4,3),(4,6),(5,2),(5,3),(5,6),(7,2),(7,3),(7,6)}",
    "rel:7:{(1,2),(1,4),(1,5),(1,7),(3,2),(3,4),(3,5),(3,7),(6,2),(6,4),(6,5),(6,7)}",
    "rel:7:{(1,2),(1,4),(1,5),(3,2),(3,4),(3,5),(6,2),(6,4),(6,5),(7,2),(7,4),(7,5)}",
    "rel:7:{(1,2),(1,4),(1,6),(1,7),(3,2),(3,4),(3,6),(3,7),(5,2),(5,4),(5,6),(5,7)}",
    "rel:7:{(1,2),(1,4),(1,6),(3,2),(3,4),(3,6),(5,2),(5,4),(5,6),(7,2),(7,4),(7,6)}",
    "rel:7:{(1,2),(1,5),(1,6),(1,7),(3,2),(3,5),(3,6),(3,7),(4,2),(4,5),(4,6),(4,7)}",
    "rel:7:{(1,2),(1,6),(1,7),(3,2),(3,6),(3,7),(4,2),(4,6),(4,7),(5,2),(5,6),(5,7)}",
    "rel:7:{(1,3),(1,4),(1,5),(2,3),(2,4),(2,5),(6,3),(6,4),(6,5),(7,3),(7,4),(7,5)}",
    "rel:7:{(1,3),(1,4),(1,6),(1,7),(2,3),(2,4),(2,6),(2,7),(5,3),(5,4),(5,6),(5,7)}",
    "rel:7:{(1,3),(1,5),(1,6),(1,7),(2,3),(2,5),(2,6),(2,7),(4,3),(4,5),(4,6),(4,7)}",
    "rel:7:{(1,4),(1,5),(1,6),(1,7),(2,4),(2,5),(2,6),(2,7),(3,4),(3,5),(3,6),(3,7)}",
]
CB7_3_PREFIX = ["1", "1", "2", "6", "24", "120"]
CB7_3_TABLE = (
    "family cb:7:3: 1 classes by a(0..5)\n"
    "note: equal counting prefixes are evidence of Wilf-equivalence, not proof\n"
    "class 1 (35 members): 1,1,2,6,24,120\n"
    "  members: " + " ".join(CB7_3_MEMBERS) + "\n"
    "  orbit representatives: " + " ".join(CB7_3_REPS) + "\n"
)
CB7_3_JSON = (
    "{\n"
    '  "family": "cb:7:3",\n'
    '  "nmax": 5,\n'
    '  "caveat": "equal counting prefixes are evidence of Wilf-equivalence, '
    'not proof",\n'
    '  "classes": [\n'
    + classify_json_class(CB7_3_PREFIX, 35, CB7_3_MEMBERS, CB7_3_REPS)
    + "\n  ]\n}\n"
)

PARSE_JSON = (
    text(
        """
        {
          "input": "cb:5:{2,1}",
          "canonical": "cb:5:{1,2}",
          "k": 5,
          "relations": [
        """
    )
    + ",\n".join(
        f"    [\n      {a},\n      {b}\n    ]"
        for a, b in [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]
    )
    + "\n  ]\n}\n"
)

GOLDEN = {
    "count-table": (COUNT, 0, "59\n"),
    "count-json": (
        COUNT + ["--format", "json"],
        0,
        text(
            """
            {
              "pattern": "n:2134",
              "n": 5,
              "quasi": false,
              "count": "59"
            }
            """
        ),
    ),
    "count-csv": (
        COUNT + ["--format", "csv"],
        0,
        "pattern,n,quasi,count\r\nn:2134,5,false,59\r\n",
    ),
    "quasi-table": (QUASI, 0, "176\n"),
    "quasi-json": (
        QUASI + ["--format", "json"],
        0,
        text(
            """
            {
              "pattern": "cb:4:{1,2}",
              "n": 6,
              "quasi": true,
              "count": "176"
            }
            """
        ),
    ),
    "quasi-csv": (
        QUASI + ["--format", "csv"],
        0,
        'pattern,n,quasi,count\r\n"cb:4:{1,2}",6,true,176\r\n',
    ),
    "seq-pattern-table": (SEQ_PATTERN, 0, values_table(CB4_12)),
    "seq-pattern-json": (
        SEQ_PATTERN + ["--format", "json"],
        0,
        values_json(
            '  "pattern": "cb:4:{1,2}",\n'
            '  "source": "brute-force",\n'
            '  "nmax": 10,\n',
            CB4_12,
        ),
    ),
    "seq-pattern-csv": (SEQ_PATTERN + ["--format", "csv"], 0, values_csv(CB4_12)),
    "seq-theorem-table": (SEQ_THEOREM, 0, values_table(CB4_12)),
    "seq-theorem-json": (
        SEQ_THEOREM + ["--format", "json"],
        0,
        values_json(
            '  "theorem": "B2(k=4)",\n'
            '  "source": "theorem-name",\n'
            '  "nmax": 10,\n',
            CB4_12,
        ),
    ),
    "seq-theorem-csv": (SEQ_THEOREM + ["--format", "csv"], 0, values_csv(CB4_12)),
    "seq-one-term-table": (
        ["seq", "--theorem", "n-class1", "--nmax", "0"],
        0,
        "0  1\n",
    ),
    "seq-ten-terms-table": (
        ["seq", "--theorem", "b1", "--k", "3", "--nmax", "9"],
        0,
        "0  1\n1  1\n2  2\n3  4\n4  8\n5  16\n6  32\n7  64\n8  128\n9  256\n",
    ),
    "series-table": (SERIES, 0, values_table(DC_12_34)),
    "series-json": (
        SERIES + ["--format", "json"],
        0,
        values_json(
            '  "pattern": "dc:[12|34]",\n'
            '  "source": "egf-expansion",\n'
            '  "order": 10,\n',
            DC_12_34,
        ),
    ),
    "series-csv": (SERIES + ["--format", "csv"], 0, values_csv(DC_12_34)),
    "classify-table": (CLASSIFY, 0, CLASSIFY_TABLE),
    "classify-json": (CLASSIFY + ["--format", "json"], 0, CLASSIFY_JSON),
    "classify-wide-table": (CB7_3, 0, CB7_3_TABLE),
    "classify-wide-json": (CB7_3 + ["--format", "json"], 0, CB7_3_JSON),
    "verify-match": (
        ["verify", "--theorem", "n-class3", "--pattern", "n:3142", "--nmax", "6"],
        0,
        text(
            """
            theorem N-class3: 1,1,2,6,19,61,196
            brute force n:3142: 1,1,2,6,19,61,196
            match through n=6
            """
        ),
    ),
    "verify-mismatch": (
        [
            "verify", "--theorem", "b1", "--k", "3",
            "--pattern", "cb:4:{1}", "--nmax", "6",
        ],
        1,
        text(
            """
            theorem B1(k=3): 1,1,2,4,8,16,32
            brute force cb:4:{1}: 1,1,2,6,18,54,162
            MISMATCH at n=3
            """
        ),
    ),
    "parse-table": (
        PARSE,
        0,
        text(
            """
            canonical: cb:5:{1,2}
            poset: rel:5:{(3,1),(3,2),(4,1),(4,2),(5,1),(5,2)}
            """
        ),
    ),
    "parse-json": (PARSE + ["--format", "json"], 0, PARSE_JSON),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_is_exact(capsys, case):
    argv, code, expected = GOLDEN[case]
    assert run_cli(argv) == code
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


@pytest.mark.parametrize(
    "case", ["seq-pattern-csv", "series-table", "classify-json", "parse-table"]
)
def test_out_file_is_exact(capsys, tmp_path, case):
    argv, code, expected = GOLDEN[case]
    target = tmp_path / "out.txt"
    assert run_cli(argv + ["--out", str(target)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""
    assert target.read_bytes() == expected.encode("utf-8")


def test_parser_reused_after_a_failed_parse(capsys):
    assert build_parser() is build_parser()
    for bad in (["seq", "--nmax", "ten"], ["seq", "--k"], ["nosuch"]):
        assert run_cli(bad) == 2
    capsys.readouterr()
    argv, code, expected = GOLDEN["seq-theorem-json"]
    assert run_cli(argv) == code
    assert capsys.readouterr().out == expected
