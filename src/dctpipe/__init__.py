"""DCT-space image pipeline: codec, scaling, schedules, and spectra."""

from .block_dct import avg_pool, dct2, idct2, zigzag_order
from .colorspace import (
    SubsampledImage,
    assemble_rgb,
    rgb_to_ycbcr,
    subsample_rgb,
    ycbcr_to_rgb,
)
from .diffuse import counter_normals, perturb, perturb_params
from .fd_metric import (
    GaussianStats,
    MStarResult,
    compression_ratio,
    frechet_distance,
    gaussian_stats,
    scan_mstar,
)
from .freq_stats import (
    EntropyWeights,
    apply_ebfr,
    apsd,
    entropy_weights,
    power_law_fit,
    snr_threshold_time,
)
from .image_io import GrayImage, PnmError, RgbImage, read_image, write_image
from .scaling import ScalingBounds, estimate_ecs_bound, estimate_naive_bounds
from .schedule import (
    DiscreteSchedule,
    NoiseSchedule,
    beta_prime,
    discrete_schedule,
    lambda_of_t,
    snr,
    t_of_lambda,
    y_integral,
    y_scaled,
)
from .tokenizer import TokenArray, TokenConfig, detokenize, read_dctk, tokenize, write_dctk
from .upsample import bilinear_upsample, dct_upsample, psnr

__version__ = "0.1.0"
