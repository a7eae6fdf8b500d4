"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or in
failure output) and then asserts, so the suite both reports and gates.
"""

import time

import numpy as np
import pytest

from dctpipe.block_dct import avg_pool, dct2, idct2
from dctpipe.cli import main
from dctpipe.colorspace import subsample_rgb
from dctpipe.fd_metric import (
    GaussianStats,
    compression_ratio,
    frechet_distance,
    gaussian_stats,
    scan_mstar,
)
from dctpipe.freq_stats import apsd, snr_threshold_time
from dctpipe.image_io import read_image, write_image
from dctpipe.scaling import estimate_ecs_bound
from dctpipe.schedule import (
    NoiseSchedule,
    beta_prime,
    discrete_schedule,
    lambda_of_t,
    snr,
    t_of_lambda,
    y_integral,
    y_scaled,
)
from dctpipe.synth import band_limited_image, power_law_coefficients, smooth_cosine_plane
from dctpipe.tokenizer import detokenize, tokenize
from dctpipe.upsample import bilinear_upsample, dct_upsample, psnr

from oracles import naive_dct2_loops, naive_dct2_stack
from synth import cell_chroma_image

SEED = 20250808


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_dct_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    max_vs_oracle = max_roundtrip = max_parseval = 0.0
    for b in (2, 4, 8, 16):
        blocks = rng.normal(size=(1000, b, b)) * 50.0
        coeffs = dct2(blocks)
        max_vs_oracle = max(max_vs_oracle, np.abs(coeffs - naive_dct2_stack(blocks)).max())
        max_roundtrip = max(max_roundtrip, np.abs(idct2(coeffs) - blocks).max())
        parseval = np.abs((coeffs**2).sum(axis=(1, 2)) - (blocks**2).sum(axis=(1, 2)))
        max_parseval = max(max_parseval, parseval.max())
        # the vectorized oracle itself is pinned to the quadruple loop
        if b <= 8:
            sample = blocks[:3]
            for blk, ref in zip(sample, naive_dct2_stack(sample)):
                assert np.abs(naive_dct2_loops(blk) - ref).max() < 1e-12
    elapsed = time.monotonic() - start
    ok = max_vs_oracle < 1e-9 and max_roundtrip < 1e-9 and max_parseval < 1e-9 and elapsed < 10
    report(
        1, "DCT correctness", ok,
        f"oracle {max_vs_oracle:.2e}, roundtrip {max_roundtrip:.2e}, "
        f"parseval {max_parseval:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_pipeline_losslessness(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst_pixel = 0
    worst_y = 0.0
    for i in range(100):
        img = cell_chroma_image(rng, 64, 64)
        s = subsample_rgb(img)
        back = detokenize(tokenize(s, 4, 0, 250.0))
        worst_y = max(worst_y, np.abs(back.y - s.y).max())
        if i < 10:  # file-level round trip through the CLI for a subset
            src = tmp_path / f"in_{i}.ppm"
            write_image(src, img)
            dctk, out = tmp_path / f"t_{i}.dctk", tmp_path / f"out_{i}.ppm"
            assert main(["encode", "--input", str(src), "--block-size", "4", "--drop", "0",
                         "--eta", "250", "--out", str(dctk)]) == 0
            assert main(["decode", "--input", str(dctk), "--out", str(out)]) == 0
            recon = read_image(out).pixels.astype(int)
        else:
            from dctpipe.colorspace import assemble_rgb

            recon = assemble_rgb(back).pixels.astype(int)
        worst_pixel = max(worst_pixel, int(np.abs(recon - img.pixels.astype(int)).max()))
    elapsed = time.monotonic() - start
    ok = worst_pixel <= 1 and worst_y < 1e-9 and elapsed < 30
    report(
        2, "pipeline losslessness", ok,
        f"pixel dev {worst_pixel}, Y plane {worst_y:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_table_ratios():
    table = {(4, 7): 3.56, (4, 8): 4.00, (4, 9): 4.57, (8, 44): 6.40, (8, 46): 7.11, (8, 48): 8.00}
    ok = all(round(compression_ratio(b, m), 2) == v for (b, m), v in table.items())
    report(3, "compression ratio table", ok, ", ".join(
        f"({b},{m})->{compression_ratio(b, m):.2f}" for (b, m) in table))


def test_criterion_4_eta_doubling():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)

    def eta_for(planes, b):
        dc = []
        for plane in planes:
            h, w = plane.shape
            blocks = (plane - 128.0).reshape(h // b, b, w // b, b).swapaxes(1, 2)
            dc.append(dct2(blocks)[..., 0, 0].ravel())
        return estimate_ecs_bound(np.concatenate(dc), 98.25)

    const_planes = [np.full((32, 32), float(v)) for v in (40, 90, 170, 220)]
    ratio_const = eta_for(const_planes, 8) / eta_for(const_planes, 4)
    exact = ratio_const == 2.0

    smooth = [smooth_cosine_plane(rng, 32, max_freq=2) for _ in range(1000)]
    ratio_smooth = eta_for(smooth, 8) / eta_for(smooth, 4)
    elapsed = time.monotonic() - start
    ok = exact and 1.8 <= ratio_smooth <= 2.2 and elapsed < 60
    report(
        4, "eta doubling", ok,
        f"constant ratio {ratio_const}, smooth ratio {ratio_smooth:.3f}, {elapsed:.1f}s",
    )


def test_criterion_5_snr_scaling_closed_forms():
    start = time.monotonic()
    t = np.linspace(1e-4, 1.0, 1000)
    base = NoiseSchedule(c=1.0)
    worst_ratio = worst_fd = worst_lam = 0.0
    for c in (1.0, 4.0, 12.0):
        sched = NoiseSchedule(c=c)
        worst_ratio = max(worst_ratio, np.abs(snr(t, sched) / snr(t, base) / c - 1.0).max())
        h = 1e-6
        interior = t[(t > h) & (t < 1 - h)]
        fd = (y_scaled(interior + h, sched) - y_scaled(interior - h, sched)) / (2 * h)
        worst_fd = max(worst_fd, np.abs(fd - beta_prime(interior, sched)).max())
        worst_lam = max(
            worst_lam, np.abs(t_of_lambda(lambda_of_t(t, sched), sched) - t).max()
        )

    base_d = discrete_schedule(1000, 1e-4, 0.02, c=1.0)
    worst_step = worst_c1 = 0.0
    for c in (1.0, 4.0, 12.0):
        d = discrete_schedule(1000, 1e-4, 0.02, c=c)
        lhs = d.alpha_bar / (1.0 - d.alpha_bar)
        rhs = c * base_d.alpha_bar / (1.0 - base_d.alpha_bar)
        worst_step = max(worst_step, np.abs(lhs / rhs - 1.0).max())
    worst_c1 = np.abs(base_d.beta - np.linspace(1e-4, 0.02, 1000)).max()
    elapsed = time.monotonic() - start
    ok = (
        worst_ratio < 1e-9 and worst_fd < 1e-4 and worst_lam < 1e-9
        and worst_step < 1e-10 and worst_c1 < 1e-12 and elapsed < 5
    )
    report(
        5, "SNR scaling closed forms", ok,
        f"ratio {worst_ratio:.2e}, fd {worst_fd:.2e}, lambda rt {worst_lam:.2e}, "
        f"discrete {worst_step:.2e}, c1 {worst_c1:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_spectral_autoregression():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    sched = NoiseSchedule()
    coeffs = power_law_coefficients(rng, 100_000, 8, k=3.0, alpha=2.0)
    t = 0.4
    clean, noisy = apsd([coeffs], sched, [0.0, t], seed=7, mode="ve")
    diff = noisy - clean
    sigma2 = float(y_integral(t, sched))
    flat_dev = np.abs(diff / diff.mean() - 1.0).max()
    floor_dev = abs(diff.mean() / sigma2 - 1.0)

    crossings = [
        snr_threshold_time(s0, 0.05, sched, mode="ve") for s0 in clean
    ]
    monotone = all(b <= a + 1e-12 for a, b in zip(crossings, crossings[1:]))
    crossings_vp = [
        snr_threshold_time(s0, 0.05, sched, mode="vp") for s0 in clean
    ]
    monotone_vp = all(b <= a + 1e-12 for a, b in zip(crossings_vp, crossings_vp[1:]))
    elapsed = time.monotonic() - start
    ok = flat_dev < 0.05 and floor_dev < 0.05 and monotone and monotone_vp and elapsed < 120
    report(
        6, "spectral autoregression", ok,
        f"flatness {flat_dev:.3f}, floor {floor_dev:.3f}, ordering {monotone}/{monotone_vp}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_dct_upsampling():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    b = 4
    # DC exactness on arbitrary images: block means are preserved
    worst_dc = 0.0
    for _ in range(20):
        low = rng.uniform(0, 255, (16, 16))
        up = dct_upsample(low, b)
        low_means = low.reshape(16 // b, b, 16 // b, b).mean(axis=(1, 3))
        up_means = up.reshape(16 // b, 2 * b, 16 // b, 2 * b).mean(axis=(1, 3))
        worst_dc = max(worst_dc, np.abs(up_means - low_means).max())

    # band-limited reconstruction within 2% relative L2
    worst_rel = 0.0
    for _ in range(20):
        spec = np.zeros((4, 4, 2 * b, 2 * b))
        spec[..., :b, :b] = rng.normal(size=(4, 4, b, b)) * 10.0
        high = 128.0 + idct2(spec).swapaxes(1, 2).reshape(32, 32)
        recon = dct_upsample(avg_pool(high, 2), b)
        worst_rel = max(worst_rel, np.linalg.norm(recon - high) / np.linalg.norm(high))

    wins = 0
    for _ in range(50):
        truth = smooth_cosine_plane(rng, 64)
        low = avg_pool(truth, 2)
        if psnr(truth, dct_upsample(low, b)) > psnr(truth, bilinear_upsample(low)):
            wins += 1
    elapsed = time.monotonic() - start
    ok = worst_dc < 1e-9 and worst_rel < 0.02 and wins == 50 and elapsed < 120
    report(
        7, "DCT upsampling", ok,
        f"DC {worst_dc:.2e}, band-limited rel {worst_rel:.2e}, wins {wins}/50, {elapsed:.1f}s",
    )


def test_criterion_8_frechet_metric():
    rng = np.random.default_rng(SEED)
    s = gaussian_stats(rng.normal(size=(100, 5)))
    zero_ok = abs(frechet_distance(s, s)) < 1e-8

    def stats_1d(mean, var):
        return GaussianStats(np.array([mean]), np.array([[var]]))

    case_mean = abs(frechet_distance(stats_1d(0, 1), stats_1d(1, 1)) - 1.0) < 1e-6
    case_var = abs(frechet_distance(stats_1d(0, 1), stats_1d(0, 4)) - 1.0) < 1e-6

    sym_ok = nonneg_ok = True
    for _ in range(100):
        d = int(rng.integers(2, 10))
        s1 = gaussian_stats(rng.normal(size=(4 * d, d)) * rng.uniform(0.5, 3.0))
        s2 = gaussian_stats(rng.normal(size=(4 * d, d)) + rng.normal(size=d))
        d12, d21 = frechet_distance(s1, s2), frechet_distance(s2, s1)
        sym_ok &= abs(d12 - d21) <= 1e-8 * max(1.0, d12)
        nonneg_ok &= d12 > -1e-10
    ok = zero_ok and case_mean and case_var and sym_ok and nonneg_ok
    report(
        8, "Frechet metric", ok,
        f"zero {zero_ok}, analytic {case_mean}/{case_var}, sym {sym_ok}, nonneg {nonneg_ok}",
    )


def test_criterion_9_mstar_scan():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    b, zero_top = 4, 6
    images = [band_limited_image(rng, 64, b=b, zero_top=zero_top) for _ in range(500)]
    result = scan_mstar(images, b, gamma=1.0, m_grid=range(b * b), features="dctstats")
    values = [d for _, d in result.curve]
    inversions = sum(1 for i in range(len(values) - 1) if values[i + 1] < values[i])
    elapsed = time.monotonic() - start
    ok = (
        result.m_star >= zero_top and not result.saturated
        and inversions <= 1 and elapsed < 300
    )
    report(
        9, "m* scan", ok,
        f"m*={result.m_star} (>= {zero_top}), inversions {inversions}, {elapsed:.1f}s",
    )


def _run_cli_bytes(tag, argv, outputs, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, f"{tag}: {captured.err}"
    return (captured.out.encode(),) + tuple(p.read_bytes() for p in outputs)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    data = tmp_path / "imgs"
    data.mkdir()
    for i in range(16):
        write_image(data / f"img_{i:03d}.ppm", cell_chroma_image(rng, 32, 32))
    scan_data = tmp_path / "scan_imgs"
    scan_data.mkdir()
    for i in range(500):
        write_image(scan_data / f"img_{i:03d}.ppm", band_limited_image(rng, 16, 2, 1))
    src = data / "img_000.ppm"
    lo = tmp_path / "lo.pgm"
    from dctpipe.image_io import GrayImage

    write_image(lo, GrayImage(rng.integers(0, 256, (16, 16), dtype=np.uint8)))

    d = tmp_path
    commands = {
        "ratio": (["ratio", "--block-size", "8", "--drop", "46"], []),
        "bounds": (
            ["bounds", "--input", str(data), "--block-size", "4", "--out", str(d / "b.json")],
            [d / "b.json"],
        ),
        "weights": (
            ["weights", "--input", str(data), "--block-size", "2", "--bins", "64",
             "--out", str(d / "w.json")],
            [d / "w.json"],
        ),
        "encode": (
            ["encode", "--input", str(src), "--block-size", "4", "--eta", "250",
             "--out", str(d / "x.dctk")],
            [d / "x.dctk"],
        ),
        "decode": (
            ["decode", "--input", str(d / "x.dctk"), "--out", str(d / "x.ppm")],
            [d / "x.ppm"],
        ),
        "diffuse": (
            ["diffuse", "--input", str(d / "x.dctk"), "--t", "0.3", "--seed", "9",
             "--out", str(d / "x_t.dctk")],
            [d / "x_t.dctk"],
        ),
        "apsd": (
            ["apsd", "--input", str(data), "--block-size", "2", "--t-list", "0,0.4",
             "--seed", "3", "--out", str(d / "p.csv")],
            [d / "p.csv"],
        ),
        "upsample": (
            ["upsample", "--method", "dct", "--block-size", "4", "--input", str(lo),
             "--output", str(d / "hi.pgm")],
            [d / "hi.pgm"],
        ),
        "scan-m": (
            ["scan-m", "--input", str(scan_data), "--block-size", "2", "--gamma", "1.0",
             "--grid", "0..3", "--features", "dctstats", "--report", str(d / "curve.csv")],
            [d / "curve.csv"],
        ),
        "fd": (
            ["fd", "--dir-a", str(data), "--dir-b", str(data), "--features", "pixels8"],
            [],
        ),
    }

    # encode/decode/diffuse consume earlier outputs: preserve dict order
    all_ok = True
    detail = []
    for tag, (argv, outputs) in commands.items():
        first = _run_cli_bytes(tag, argv, outputs, capsys)
        rerun = _run_cli_bytes(tag, argv, outputs, capsys)
        threaded = [_run_cli_bytes(tag, argv + ["--threads", n], outputs, capsys) for n in "23"]
        same = first == rerun == threaded[0] == threaded[1]
        all_ok &= same
        if not same:
            detail.append(tag)
    report(10, "CLI determinism", all_ok, "nondeterministic: " + ", ".join(detail) if detail else "all commands byte-identical")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
