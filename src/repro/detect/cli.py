"""``python -m repro detect`` -- exercise the silent-fault detectors.

Prints the detection-coverage table and the fault-free overhead table
(the ``--only detect`` harness experiment).
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro detect",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--apps", type=str, default=None,
                    help="comma-separated benchmark subset (default: lcs,cholesky)")
    ap.add_argument("--count", type=int, default=2, help="silent faults per run")
    ap.add_argument("--reps", type=int, default=3, help="repetitions per table row")
    ap.add_argument("--scale", choices=("tiny", "default", "large"), default="tiny",
                    help="benchmark instance scale")
    ap.add_argument("--digest", type=str, default="crc32",
                    help="checksum digest: crc32 | adler32 | blake2b | sha256")
    args = ap.parse_args(argv)

    from repro.harness.detection import (
        detection_coverage,
        detection_overhead,
        format_coverage,
        format_overhead,
    )

    apps = tuple(args.apps.split(",")) if args.apps else None
    rows = detection_coverage(
        apps, count=args.count, reps=args.reps, scale=args.scale, digest=args.digest
    )
    print(format_coverage(rows))
    print()
    rows = detection_overhead(apps, reps=args.reps, scale=args.scale)
    print(format_overhead(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
