#!/usr/bin/env python3
"""Head-to-head PSNR of DCT upsampling vs bilinear on smooth synthetic images.

Each trial builds a bandlimited cosine-mixture ground truth, downsamples it
by 2x2 average pooling, upsamples with both methods, and scores PSNR
against the ground truth.
"""

import argparse

import numpy as np

from dctpipe.block_dct import avg_pool
from dctpipe.synth import smooth_cosine_plane
from dctpipe.upsample import bilinear_upsample, dct_upsample, psnr


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--images", type=int, default=50)
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--max-freq", type=int, default=8)
    ap.add_argument("--block-size", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    rows = []
    for _ in range(args.images):
        truth = smooth_cosine_plane(rng, args.size, args.max_freq)
        low = avg_pool(truth, 2)
        rows.append(
            (
                psnr(truth, dct_upsample(low, args.block_size)),
                psnr(truth, bilinear_upsample(low)),
            )
        )
    dct_scores, bil_scores = map(np.array, zip(*rows))
    wins = int(np.sum(dct_scores > bil_scores))
    print(f"images: {args.images}, size {args.size}x{args.size}, B={args.block_size}")
    print(f"PSNR dct      mean {dct_scores.mean():7.2f} dB  min {dct_scores.min():7.2f} dB")
    print(f"PSNR bilinear mean {bil_scores.mean():7.2f} dB  min {bil_scores.min():7.2f} dB")
    print(f"dct wins {wins}/{args.images}, mean margin {(dct_scores - bil_scores).mean():.2f} dB")


if __name__ == "__main__":
    main()
