#!/usr/bin/env python3
"""End-to-end m* scan on a generated band-limited dataset.

Writes a synthetic dataset whose top zigzag slots are zero, runs the
Frechet-distance scan over drop counts, and prints the (m, distance)
curve with the selected m* and the corresponding compression ratio.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from dctpipe.cli import main as cli_main
from dctpipe.fd_metric import compression_ratio
from dctpipe.image_io import write_image
from dctpipe.synth import band_limited_image


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--images", type=int, default=500)
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--block-size", type=int, default=4)
    ap.add_argument("--zero-top", type=int, default=6)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data = root / "imgs"
        data.mkdir()
        for i in range(args.images):
            write_image(
                data / f"img_{i:05d}.ppm",
                band_limited_image(rng, args.size, args.block_size, args.zero_top),
            )
        report = root / "curve.csv"
        code = cli_main(
            [
                "scan-m", "--input", str(data), "--block-size", str(args.block_size),
                "--gamma", str(args.gamma), "--features", "dctstats",
                "--report", str(report),
            ]
        )
        if code != 0:
            raise SystemExit(code)
        print(report.read_text())
    b2 = args.block_size**2
    print(f"dataset zeroed the top {args.zero_top} of {b2} zigzag slots")
    print(f"compression ratio at m={args.zero_top}: "
          f"{compression_ratio(args.block_size, args.zero_top):.2f}x")


if __name__ == "__main__":
    main()
