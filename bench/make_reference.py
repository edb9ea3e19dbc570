"""Derive the stored reference counts in reference.json.

Every value comes from the subset definition (oracles.naive_avoider_counts)
and is confirmed by recounting an orbit partner of the pattern, which must
give the same sequence.  popkit is not used.  Run from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
from patterns import REFERENCE_TARGETS, zz  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def main() -> None:
    table = {}
    for pattern, n_max in REFERENCE_TARGETS:
        values = oracles.naive_avoider_counts(pattern.k, pattern.relations, n_max)
        # Alternate the partner so both symmetries are exercised.
        if len(table) % 2:
            partner = oracles.label_complement(pattern.k, pattern.relations)
        else:
            partner = oracles.order_dual(pattern.relations)
        again = oracles.naive_avoider_counts(pattern.k, partner, n_max)
        if again != values:
            sys.exit(f"orbit partner disagrees for {pattern.text}: {values} vs {again}")
        table[pattern.text] = values
        print(pattern.text, values[-3:], flush=True)
    fixture = table[zz("^v^v", "31425").text]
    if fixture[6:8] != [454, 1968]:
        sys.exit(f"zz:^v^v:31425 gives {fixture[6:8]}, expected [454, 1968]")
    lines = [f"{json.dumps(t)}: {json.dumps(table[t])}" for t in sorted(table)]
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
