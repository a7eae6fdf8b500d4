"""Independent reference implementations used only to check the library.

Everything here is deliberately written the slow, direct way (explicit
loops, direct formulas) so the fast paths in the package have something
independent to be compared against.
"""

from __future__ import annotations

import decimal
import json
import math

import numpy as np

from dctpipe.block_dct import blockify, dct2, idct2, unblockify
from dctpipe.colorspace import subsample_rgb
from dctpipe.diffuse import derive_stream, noisy, perturb_params
from dctpipe.fd_metric import (
    frechet_distance,
    gaussian_stats,
    make_feature_extractor,
    reconstruct_rgb,
)
from dctpipe.scaling import estimate_ecs_bound, reservoir_sample
from dctpipe.schedule import NoiseSchedule
from dctpipe.tokenizer import dct_coefficient_matrices


def naive_dct2_loops(block: np.ndarray) -> np.ndarray:
    """Direct quadruple-loop evaluation of the 2D DCT-II definition."""
    block = np.asarray(block, dtype=float)
    b = block.shape[0]
    out = np.zeros((b, b))
    for u in range(b):
        for v in range(b):
            alpha_u = math.sqrt(1.0 / b) if u == 0 else math.sqrt(2.0 / b)
            alpha_v = math.sqrt(1.0 / b) if v == 0 else math.sqrt(2.0 / b)
            acc = 0.0
            for x in range(b):
                for y in range(b):
                    acc += (
                        block[x, y]
                        * math.cos((2 * x + 1) * u * math.pi / (2 * b))
                        * math.cos((2 * y + 1) * v * math.pi / (2 * b))
                    )
            out[u, v] = alpha_u * alpha_v * acc
    return out


def naive_idct2_loops(coeffs: np.ndarray) -> np.ndarray:
    """Direct quadruple-loop inverse DCT-II."""
    coeffs = np.asarray(coeffs, dtype=float)
    b = coeffs.shape[0]
    out = np.zeros((b, b))
    for x in range(b):
        for y in range(b):
            acc = 0.0
            for u in range(b):
                for v in range(b):
                    alpha_u = math.sqrt(1.0 / b) if u == 0 else math.sqrt(2.0 / b)
                    alpha_v = math.sqrt(1.0 / b) if v == 0 else math.sqrt(2.0 / b)
                    acc += (
                        alpha_u
                        * alpha_v
                        * coeffs[u, v]
                        * math.cos((2 * x + 1) * u * math.pi / (2 * b))
                        * math.cos((2 * y + 1) * v * math.pi / (2 * b))
                    )
            out[x, y] = acc
    return out


def naive_dct2_stack(blocks: np.ndarray) -> np.ndarray:
    """Per-coefficient direct evaluation for a whole stack of blocks.

    Same double sum as the quadruple loop, but the inner sum over (x, y)
    is one weighted outer product per (u, v), so 1000-block batches stay
    affordable. Cross-checked against :func:`naive_dct2_loops` in tests.
    """
    blocks = np.asarray(blocks, dtype=float)
    b = blocks.shape[-1]
    out = np.zeros_like(blocks)
    xs = np.arange(b)
    for u in range(b):
        cu = np.cos((2 * xs + 1) * u * np.pi / (2 * b))
        alpha_u = math.sqrt(1.0 / b) if u == 0 else math.sqrt(2.0 / b)
        for v in range(b):
            cv = np.cos((2 * xs + 1) * v * np.pi / (2 * b))
            alpha_v = math.sqrt(1.0 / b) if v == 0 else math.sqrt(2.0 / b)
            out[..., u, v] = alpha_u * alpha_v * np.sum(
                blocks * np.outer(cu, cv), axis=(-2, -1)
            )
    return out


def dct_basis(b: int) -> np.ndarray:
    """T[u, x] = alpha(u) cos((2x+1) u pi / 2B), evaluated in the same order as the package."""
    x = np.arange(b)
    u = np.arange(b)[:, None]
    t = np.cos((2 * x + 1) * u * np.pi / (2 * b)) * np.sqrt(2.0 / b)
    t[0, :] = np.sqrt(1.0 / b)
    return t


def per_block_dct2(blocks: np.ndarray) -> np.ndarray:
    """T X T^T through numpy's stacked matmul: two small products per block."""
    t = dct_basis(np.shape(blocks)[-1])
    return t @ np.asarray(blocks, dtype=float) @ t.T


def per_block_idct2(coeffs: np.ndarray) -> np.ndarray:
    """T^T D T through numpy's stacked matmul: two small products per block."""
    t = dct_basis(np.shape(coeffs)[-1])
    return t.T @ np.asarray(coeffs, dtype=float) @ t


def zigzag_by_diagonal_walk(b: int) -> list[tuple[int, int]]:
    """Enumerate the zigzag path by literally walking the grid."""
    coords = []
    r = c = 0
    up = True  # moving up-right
    for _ in range(b * b):
        coords.append((r, c))
        if up:
            if c == b - 1:
                r, up = r + 1, False
            elif r == 0:
                c, up = c + 1, False
            else:
                r, c = r - 1, c + 1
        else:
            if r == b - 1:
                c, up = c + 1, True
            elif c == 0:
                r, up = r + 1, True
            else:
                r, c = r + 1, c - 1
    return coords


def percentile_sorted(samples, q: float) -> float:
    """Linear interpolation between closest order statistics."""
    xs = sorted(float(v) for v in samples)
    if len(xs) == 1:
        return xs[0]
    pos = q / 100.0 * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] + frac * (xs[hi] - xs[lo])


def pool2_loops(plane: np.ndarray) -> np.ndarray:
    plane = np.asarray(plane, dtype=float)
    h, w = plane.shape
    out = np.zeros((h // 2, w // 2))
    for i in range(h // 2):
        for j in range(w // 2):
            out[i, j] = plane[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean()
    return out


def bilinear2x_loops(plane: np.ndarray) -> np.ndarray:
    """Per-pixel 2x bilinear interpolation, half-pixel aligned, edge clamped."""
    plane = np.asarray(plane, dtype=float)
    h, w = plane.shape
    out = np.zeros((2 * h, 2 * w))
    for i in range(2 * h):
        for j in range(2 * w):
            sy = (i + 0.5) / 2.0 - 0.5
            sx = (j + 0.5) / 2.0 - 0.5
            y0 = min(max(int(math.floor(sy)), 0), h - 1)
            x0 = min(max(int(math.floor(sx)), 0), w - 1)
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy = min(max(sy - y0, 0.0), 1.0)
            fx = min(max(sx - x0, 0.0), 1.0)
            out[i, j] = (
                plane[y0, x0] * (1 - fy) * (1 - fx)
                + plane[y0, x1] * (1 - fy) * fx
                + plane[y1, x0] * fy * (1 - fx)
                + plane[y1, x1] * fy * fx
            )
    return out


def covariance_twopass(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and unbiased covariance with explicit loops over pairs."""
    x = np.asarray(features, dtype=float)
    n, d = x.shape
    mean = np.array([x[:, j].sum() / n for j in range(d)])
    cov = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            cov[i, j] = ((x[:, i] - mean[i]) * (x[:, j] - mean[j])).sum() / (n - 1)
    return mean, cov


def gaussian_differential_entropy(sigma: float) -> float:
    return 0.5 * math.log(2.0 * math.pi * math.e * sigma * sigma)


def histogram_entropy(samples: np.ndarray, bins: int) -> float:
    """Histogram entropy of one rank as the package took it before it binned in place:
    np.histogram's counts over the samples' own range, plus the log bin width."""
    lo, hi = samples.min(), samples.max()
    if hi == lo:
        return np.nan
    counts, _ = np.histogram(samples, bins=bins, range=(lo, hi))
    p = counts[counts > 0] / samples.size
    return float(-(p * np.log(p)).sum() + np.log((hi - lo) / bins))


# BT.601 full-range matrix, written out again so the oracles below share no
# code with dctpipe.colorspace
_BT601 = np.array(
    [[0.299, 0.587, 0.114], [-0.168736, -0.331264, 0.5], [0.5, -0.418688, -0.081312]]
)
_BT601_OFFSET = np.array([0.0, 128.0, 128.0])


def interleaved_rgb_to_ycbcr(pixels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward map on (h, w, 3) interleaved pixels: ``pixels @ M.T + offset``."""
    planes = np.asarray(pixels).astype(np.float64) @ _BT601.T + _BT601_OFFSET
    return planes[..., 0], planes[..., 1], planes[..., 2]


def interleaved_ycbcr_to_rgb(y, cb, cr) -> np.ndarray:
    """Inverse map on a stacked (h, w, 3) array, then round, clamp and cast to uint8."""
    stacked = np.stack([y, cb, cr], axis=-1) - _BT601_OFFSET
    rgb = stacked @ np.linalg.inv(_BT601).T
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def repeat_assemble_rgb(y, cb, cr) -> np.ndarray:
    """Half-size chroma replicated 2x2 with ``np.repeat``, then the inverse map."""
    cb, cr = (np.repeat(np.repeat(p, 2, axis=0), 2, axis=1) for p in (cb, cr))
    return interleaved_ycbcr_to_rgb(y, cb, cr)


_U64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def splitmix64_mix(z: int) -> int:
    """SplitMix64's finaliser (Steele, Lea & Flood 2014) on a Python int, mod 2^64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def splitmix64_uniform(seed: int, counter: int) -> float:
    """Uniform in (0, 1] of ``counter`` under ``seed``: the top 53 bits of its word, plus one."""
    key = splitmix64_mix((seed + _GOLDEN64) & _U64)
    word = splitmix64_mix((key + (counter + 1) * _GOLDEN64) & _U64)
    return ((word >> 11) + 1) * 2.0**-53


def box_muller_normal(seed: int, index: int) -> float:
    """Normal ``index`` from counters 2 index and 2 index + 1, through libm's log and cos."""
    u1, u2 = splitmix64_uniform(seed, 2 * index), splitmix64_uniform(seed, 2 * index + 1)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def whole_planes_to_rgb(y, cb, cr, cell: int) -> np.ndarray:
    """The whole-image inverse conversion: one (3, h, w) buffer and one GEMM.

    Y plus Cb/Cr at 1/``cell`` of its size -> (h, w, 3) uint8, as the package
    computed it before it converted strips of rows.
    """
    h, w = y.shape
    planes = np.empty((3, h, w))
    planes[0] = y
    for dst, src, off in zip(planes[1:], (cb, cr), _BT601_OFFSET[1:]):
        np.subtract(src[:, None, :, None], off, out=dst.reshape(h // cell, cell, w // cell, cell))
    rgb = np.linalg.inv(_BT601) @ planes.reshape(3, h * w)
    np.rint(rgb, out=rgb)
    np.clip(rgb, 0, 255, out=rgb)
    return rgb.reshape(3, h, w).transpose(1, 2, 0).astype(np.uint8, order="C")


def whole_plane_dct_upsample(low: np.ndarray, block_size: int) -> np.ndarray:
    """DCT upsampling with one size-2B inverse transform over the whole padded plane.

    The package's transforms are used as they are; only the strip loop is left out.
    """
    b = block_size
    coeffs = dct2(blockify(np.asarray(low, dtype=np.float64), b))
    k = np.cos(np.arange(b) * np.pi / (4 * b))
    gh, gw = coeffs.shape[:2]
    big = np.zeros((gh, 2 * b, gw, 2 * b)).swapaxes(1, 2)  # the plane layout idct2 reads
    big[..., :b, :b] = coeffs * (2.0 / np.outer(k, k))
    return unblockify(idct2(big))


def per_m_scan_curve(images, block_size: int, m_grid, features: str) -> tuple:
    """The m* scan's (m, distance) curve with one pass over every image per m.

    This is the loop order the package used before it took each image once:
    all images are held, the originals' features are stacked first, then
    each m's reconstructions are formed and stacked in turn.
    """
    extract = make_feature_extractor(features, block_size)
    images = list(images)
    ref = gaussian_stats(np.stack([extract(subsample_rgb(img)) for img in images]))
    curve = []
    for m in m_grid:
        # each call converts its image afresh, as every feature and round trip once did
        recon = [
            extract(subsample_rgb(reconstruct_rgb(subsample_rgb(img), block_size, m)))
            for img in images
        ]
        curve.append((m, frechet_distance(ref, gaussian_stats(np.stack(recon)))))
    return tuple(curve)


def numpy_dct_stat_features(img, block_size: int) -> np.ndarray:
    """``dctstats`` as np.mean, then np.std, of each channel's coefficient matrix.

    This is the form ``extract_dct_stat_features`` used before it took each
    matrix's mean once; np.std computes that mean again.
    """
    mats = dct_coefficient_matrices(subsample_rgb(img), block_size)
    return np.concatenate([f(mat, axis=0) for mat in mats for f in (np.mean, np.std)])


def whole_matrix_apsd(coeffs, sched, t_grid, seed: int = 0, mode: str = "vp") -> np.ndarray:
    """APSD over one (n, ranks) matrix: one noisy draw and one mean per time.

    This is the form the package used before ``apsd`` folded over per-image
    parts: the whole matrix is perturbed at once and averaged by np.mean.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    powers = []
    for i, t in enumerate(t_grid):
        xt = noisy(coeffs, t, sched, derive_stream(seed, i), mode)
        powers.append(np.mean(np.square(xt), axis=0))
    return np.array(powers)


def stacked_reservoirs(mats, limit: int) -> list[np.ndarray]:
    """Each channel's per-rank reservoirs, drawn from its whole matrix and stacked.

    This is the form ``bounds --mode naive`` used before it picked its rows
    from the row counts: every channel is collected whole, then column r is
    subsampled by ``reservoir_sample(column, limit, seed=r)``.
    """
    return [
        np.stack([reservoir_sample(m[:, r], limit, seed=r) for r in range(m.shape[1])], axis=1)
        for m in mats
    ]


def channel_percentile_bounds(mats, tau: float) -> np.ndarray:
    """Naive bounds with one np.percentile over each whole channel (axis 0), as before
    ``estimate_naive_bounds`` took one column at a time."""
    out = []
    for m in mats:
        up, low = np.percentile(np.asarray(m, dtype=np.float64), (tau, 100.0 - tau), axis=0)
        out.append(np.maximum(np.abs(up), np.abs(low)))
    return np.concatenate(out)


def collected_ecs_bound(y_dc, limit: int, tau: float) -> float:
    """The ecs bound in the form ``bounds`` used before it drew its Y DC rows from the
    row count: the whole Y DC column collected, then subsampled by its values."""
    return estimate_ecs_bound(reservoir_sample(y_dc, limit), tau)


def explicit_bounds_json(bounds) -> str:
    """A bounds file's text with its keys written one by one per mode, as ``save_bounds``
    wrote them before it wrote the fields of ``ScalingBounds`` that are not None."""
    doc = {"mode": bounds.mode, "tau": bounds.tau, "block_size": bounds.block_size}
    if bounds.mode == "ecs":
        doc["eta"] = bounds.eta
    else:
        doc["naive_bounds"] = list(bounds.naive_bounds)
    return json.dumps(doc, indent=2) + "\n"


def kernel_crossing_time(s0: float, gamma: float, sched, mode: str) -> float:
    """First time the sampled kernel's SNR s0 m(t)^2 / s(t)^2 falls to gamma, by bisection.

    m and s come from ``perturb_params``, which takes t in [0, 1]. The kernel
    at t = h u is that of the schedule (a h, b h^2, c) at u, so h doubles
    until the SNR at u = 1 is at most gamma (inf past h = 2^64), then u is
    bisected in [0, 1] down to adjacent floats. SNRs are compared in logs, so
    an s0 near the float max or an m near underflow stays finite; an m that
    underflows to 0 (perturb_params raises) is SNR 0.
    """

    def above(u, stretched):
        try:
            m, s = perturb_params(u, stretched, mode)
        except ValueError:
            return False
        return s == 0 or math.log(s0) + 2 * math.log(m) - 2 * math.log(s) > math.log(gamma)

    h = 1.0
    while above(1.0, NoiseSchedule(sched.a * h, sched.b * h * h, sched.c)):
        h *= 2.0
        if h > 2.0**64:
            return math.inf
    stretched = NoiseSchedule(sched.a * h, sched.b * h * h, sched.c)
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if above(mid, stretched) else (lo, mid)
    return h * hi


def _decimal_schedule(sched, *values):
    """The schedule's a, b, c and ``values`` as Decimals, each exactly the float it was."""
    return [decimal.Decimal(float(v)) for v in (sched.a, sched.b, sched.c, *values)]


def decimal_t_of_lambda(lam: float, sched) -> float:
    """t(lambda) in 80-digit decimal arithmetic, by the textbook root of a t + b t^2 / 2 = y.

    y = ln(1 + c e^{-2 lam}) is the base integral at the crossing, taken for lam < 0 as
    ln c - 2 lam + ln(1 + e^{2 lam} / c) so that no e^{-2 lam} passes the decimal range, and
    t = (-a + sqrt(a^2 + 2 b y)) / b loses to cancellation only the digits
    that 2 b y / a^2 is below 1, which 80 digits leave to spare for lam up to 40.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        a, b, c, lam = _decimal_schedule(sched, lam)
        if lam < 0:
            y = c.ln() - 2 * lam + (1 + (2 * lam).exp() / c).ln()
        else:
            y = (1 + c * (-2 * lam).exp()).ln()
        return float((-a + (a * a + 2 * b * y).sqrt()) / b)


def decimal_beta_prime(t: float, sched) -> float:
    """beta'(t; c) = a + b t + w (-a - b t) / (1 + w), w = (c - 1) e^{-y}, in 80-digit
    decimal arithmetic: the module docstring's form, whose terms cancel for large c in floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        a, b, c, t = _decimal_schedule(sched, t)
        base = a + b * t
        w = (c - 1) * (-(a * t + b * t * t / 2)).exp()
        return float(base + w * (-base) / (1 + w))
