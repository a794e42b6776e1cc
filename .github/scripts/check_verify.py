"""Check one JSON report of `strongreal verify`.

    python .github/scripts/check_verify.py REPORT STRATEGY [CLASS_COUNT]

Prints the report's size, strategy, group order, class count, undecided and
disagreement counts.  Exits 1 unless the strategy is STRATEGY, no record is
undecided or disagrees, and, when CLASS_COUNT is given, the report has that
many classes.
"""

import json
import sys


def main(argv) -> int:
    path, strategy, *count = argv
    with open(path) as fh:
        r = json.load(fh)
    q = r["q"]["p"] ** r["q"]["e"]
    print(
        f"U({r['n']}, F_{q})", r["strategy"], r["group_order"], r["class_count"],
        r["undecided"], r["disagreements"],
    )
    ok = r["strategy"] == strategy and not r["undecided"] and not r["disagreements"]
    if count:
        ok = ok and r["class_count"] == int(count[0])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
