#!/usr/bin/env python3
"""Render the reference galleries and the full 4x6 enumeration as SVG files.

Usage:
    python scripts/render_gallery.py [--out out/gallery]
"""

import argparse
import sys
from pathlib import Path

from gridcuts import enumerate_canonical, regenerate_figures
from gridcuts.board import boards_to_svg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # a usage error is one line and exit code 2, like every other refusal here
    parser.error = lambda message: parser.exit(2, f"render_gallery: {message}\n")
    parser.add_argument("--out", default="out/gallery")
    args = parser.parse_args()

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"render_gallery: {exc}", file=sys.stderr)
        return 2

    galleries = regenerate_figures()
    (out / "gallery_3x6.svg").write_text(boards_to_svg(galleries["three_by_six"]))
    (out / "gallery_4x6.svg").write_text(boards_to_svg(galleries["four_by_six"]))

    boards = enumerate_canonical(4, 6)
    (out / "all_canonical_4x6.svg").write_text(boards_to_svg(boards))
    print(f"wrote {out}/gallery_3x6.svg, gallery_4x6.svg and "
          f"all_canonical_4x6.svg ({len(boards)} boards)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
