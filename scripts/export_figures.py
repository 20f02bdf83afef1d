#!/usr/bin/env python3
"""Export the lmFH pattern family for one (p, u) as CSV data files.

Writes the time-domain pattern, both transform flips (reverse side), the
conjugation-eliminated DFT pattern (obverse side), and the cyclically
shifted variants - the data behind the usual pattern plots.
"""

import argparse
from pathlib import Path

from zcdft.pattern import export_pattern, flip_conjugate, flip_dft, flip_idft, make_pattern


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=13, help="prime length")
    ap.add_argument("--u", type=int, default=3, help="root")
    ap.add_argument("--ts", type=int, default=2, help="cyclic shift for the shifted variants")
    ap.add_argument("--outdir", default="patterns", help="output directory")
    args = ap.parse_args()

    base = make_pattern(args.p, -args.u)
    shifted = make_pattern(args.p, -args.u, ts=args.ts)
    tag = f"p{args.p}_u{args.u}"
    exports = {
        f"{tag}_time.csv": base,
        f"{tag}_dft_reverse.csv": flip_dft(base),
        f"{tag}_dft_obverse.csv": flip_conjugate(flip_dft(base)),
        f"{tag}_idft_reverse.csv": flip_idft(base),
        f"{tag}_ts{args.ts}_time.csv": shifted,
        f"{tag}_ts{args.ts}_dft_reverse.csv": flip_dft(shifted),
    }

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, pat in exports.items():
        (outdir / name).write_text(export_pattern(pat))
        print(f"wrote {outdir / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
