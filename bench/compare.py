"""Compare two benchmark records written to ``.bench_out/``.

    python3 bench/compare.py BASE.json NEW.json

Prints every metric of both records with the ratio new / base, after
flagging each environment-stamp field that differs.  Machine, library,
thread-count or seed differences make the comparison suspect; a commit or
source difference is what a comparison of two versions expects.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

EXPECTED_TO_DIFFER = ("commit", "src_sha256")


def compare(base: dict, new: dict) -> list[str]:
    lines = []
    for key in sorted(set(base["environment"]) | set(new["environment"])):
        a = base["environment"].get(key)
        b = new["environment"].get(key)
        if a != b:
            tag = "note" if key in EXPECTED_TO_DIFFER else "STAMP DIFFERS"
            lines.append(f"{tag}: {key}: {a} -> {b}")
    for field in ("workload", "trace", "seconds"):
        if base[field] != new[field]:
            lines.append(f"STAMP DIFFERS: {field}: {base[field]} -> {new[field]}")
    for name, metric in base["metrics"].items():
        other = new["metrics"].get(name)
        if other is None:
            lines.append(f"{name}: {metric['value']:.6g} -> missing")
            continue
        ratio = other["value"] / metric["value"] if metric["value"] else float("nan")
        lines.append(f"{name}: {metric['value']:.6g} -> {other['value']:.6g} "
                     f"{metric['unit']} (x{ratio:.3f})")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in args)
    print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
