import numpy as np

from dctpipe.colorspace import subsample_rgb
from dctpipe.synth import band_limited_image
from dctpipe.tokenizer import dct_coefficient_matrices


def test_band_limited_image_zeroes_top_ranks_and_keeps_last_live_rank():
    # the m* scan finds zero_top only if the zeroed ranks stay (near) empty
    # after uint8 rounding while the last live rank keeps real energy
    b, zero_top = 4, 6
    live = b * b - zero_top
    for seed in range(30):
        img = band_limited_image(np.random.default_rng(seed), 64, b, zero_top)
        for name, d in zip(("y", "cb", "cr"), dct_coefficient_matrices(subsample_rgb(img), b)):
            assert np.abs(d[:, live:]).max() < 1.0, (seed, name)
            assert np.sqrt(np.mean(d[:, live - 1] ** 2)) > 2.0, (seed, name)
