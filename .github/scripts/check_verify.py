"""Check one JSON report of `strongreal verify`.

    python .github/scripts/check_verify.py REPORT STRATEGY [CLASS_COUNT]

Prints the report's size, strategy, group order, class count, undecided and
disagreement counts.  Exits 1 unless the strategy is STRATEGY, no record is
undecided or disagrees, and, when CLASS_COUNT is given, the report has that
many classes.  For odd q, the real and strongly real records must also
number the coefficients n of `strongreal series --q Q --order N --which R`
and `--which T` (the series are defined for odd q only), run with this
Python, so strongreal must then be importable.
"""

import json
import subprocess
import sys


def series_coefficient(q: int, n: int, which: str) -> int:
    argv = ["series", "--q", str(q), "--order", str(n), "--which", which]
    out = subprocess.run(
        [sys.executable, "-m", "strongreal", *argv], check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout)["coeffs"][n]


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
    if q % 2:
        found = (
            sum(1 for rec in r["records"] if rec["is_real"]),
            sum(1 for rec in r["records"] if rec["is_strongly_real"]),
        )
        expected = tuple(series_coefficient(q, r["n"], which) for which in "RT")
        print("real, strongly real:", *found, "series R_n, T_n:", *expected)
        ok = ok and found == expected
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
