"""The three benchmark workloads: corpus, commands, output checks, expected counts.

Each workload is a closed loop with one client: the next ``dctpipe``
command starts when the previous one returns. Work is grouped in units
(one image's command chain, or one pass of corpus-wide commands); the
measured process repeats units until its time is up.

Checks compare outputs with oracles computed here from the generated
pixels with plain numpy, never through dctpipe.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import corpus

TAU = 98.25  # dctpipe's default percentile, used by `bounds` without --tau
DCTK_HEADER = 4 + 2 + struct.calcsize("<IIHHdQ")  # magic, version, geometry
ROUNDTRIP_FLOOR_DB = 40.0  # decode(encode(x)) at m=0 is about 44 dB on this corpus
UPSAMPLE_FLOOR_DB = 50.0  # pool(upsample(x)) against x is about 65 dB on this corpus
REL_TOL = 1e-9
CSV_REL_TOL = 1e-5  # the CLI prints 6 significant digits


def ppm_bytes(size: int) -> int:
    return len(b"P6\n%d %d\n255\n" % (size, size)) + 3 * size * size


def luma_dc(pixels: np.ndarray, b: int) -> np.ndarray:
    """DC coefficient of every level-shifted BxB luma block: B*mean - 128B."""
    y = pixels.astype(np.float64) @ corpus.RGB_TO_YCBCR[0]
    h, w = y.shape
    means = y.reshape(h // b, b, w // b, b).mean(axis=(1, 3))
    return (b * means - 128.0 * b).ravel()


def ecs_eta(dc: np.ndarray, tau: float = TAU) -> float:
    return float(max(abs(np.percentile(dc, tau)), abs(np.percentile(dc, 100.0 - tau))))


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@dataclass(frozen=True)
class Op:
    """One CLI command, the files it writes, and the check of its output.

    ``check`` gets the command's captured stdout and returns an error
    message, or None when the output is correct.
    """

    kind: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...] = ()
    check: Callable[[str], str | None] = lambda out: None


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    images: int
    size: int
    images_per_unit: int
    build: Callable  # (rng, work dir) -> oracle dict, written once per run
    units: Callable  # (work dir, oracle) -> list of units, each a list of Ops
    setup: Callable  # (work dir, tag) -> the cold command's Op
    expected: Callable  # () -> per-pass counts that the workload geometry predicts


def _flag_threads(n: int) -> tuple[str, ...]:
    return ("--threads", str(n))


# --- codec_files --------------------------------------------------------------

CODEC_N, CODEC_SIZE, CODEC_B, CODEC_UP_B = 128, 256, 8, 4
CODEC_ETA = 1024.0  # fixed scale bound: |DC| <= 128B for 8-bit input at B=8
DIFFUSE_T = 0.3


def _codec_build(rng, work: Path) -> dict:
    corpus.write_corpus(
        work / "images", (corpus.smooth_image(rng, CODEC_SIZE, 2.0) for _ in range(CODEC_N))
    )
    return {}


def _dctk_size_check(path: Path, size: int, b: int, m: int):
    tokens = size * size // (4 * b * b)
    want = DCTK_HEADER + tokens * 6 * (b * b - m) * 8

    def check(_out: str) -> str | None:
        got = path.stat().st_size
        return None if got == want else f"{path.name}: {got} bytes, want {want}"

    return check


def _psnr_error(a: np.ndarray, b: np.ndarray, floor: float, path: Path) -> str | None:
    mse = np.mean((a - b) ** 2)
    db = np.inf if mse == 0 else 10.0 * np.log10(255.0**2 / mse)
    return None if db > floor else f"{path.name}: PSNR {db:.2f} dB <= {floor}"


def _roundtrip_check(ref: Path, test: Path):
    def check(_out: str) -> str | None:
        a = corpus.read_ppm(ref).astype(np.float64)
        b = corpus.read_ppm(test).astype(np.float64)
        if a.shape != b.shape:
            return f"{test.name}: shape {b.shape}, want {a.shape}"
        return _psnr_error(a, b, ROUNDTRIP_FLOOR_DB, test)

    return check


def read_tokens(path: Path) -> np.ndarray:
    return np.frombuffer(Path(path).read_bytes(), dtype="<f8", offset=DCTK_HEADER)


def vp_noise_var(t: float, resolution: int) -> float:
    """Noise variance 1 / (1 + SNR(t)) of the documented VP kernel.

    SNR(t) = c e^-y / (1 - e^-y) with y = a t + b t^2 / 2, defaults a=0.1,
    b=19.9, and c=4 for resolutions up to 256 (12 above).
    """
    y = 0.1 * t + 0.5 * 19.9 * t * t
    c = 4.0 if resolution <= 256 else 12.0
    return 1.0 / (1.0 + c * np.exp(-y) / -np.expm1(-y))


def _diffuse_check(clean: Path, noisy: Path, size: int):
    """x_t - m x_0 must be noise of mean 0 and variance s^2, with m^2 + s^2 = 1."""
    var = vp_noise_var(DIFFUSE_T, size)

    def check(_out: str) -> str | None:
        x0, xt = read_tokens(clean), read_tokens(noisy)
        if x0.shape != xt.shape:
            return f"{noisy.name}: {xt.size} tokens, want {x0.size}"
        eps = xt - np.sqrt(1.0 - var) * x0
        n = eps.size
        if abs(eps.mean()) > 5.0 * np.sqrt(var / n) or abs(eps.var() / var - 1.0) > 0.03:
            return f"{noisy.name}: noise mean {eps.mean():.3g}, variance {eps.var():.4g}, want 0, {var:.4g}"
        return None

    return check


def _upsample_check(low: Path, big: Path):
    """2x2 mean pooling of the DCT upsampled image gives back its input."""

    def check(_out: str) -> str | None:
        a = corpus.read_ppm(low).astype(np.float64)
        b = corpus.read_ppm(big).astype(np.float64)
        h, w, _ = a.shape
        if b.shape != (2 * h, 2 * w, 3):
            return f"{big.name}: shape {b.shape}, want {(2 * h, 2 * w, 3)}"
        return _psnr_error(a, b.reshape(h, 2, w, 2, 3).mean(axis=(1, 3)), UPSAMPLE_FLOOR_DB, big)

    return check


def _codec_encode(image: Path, out: Path) -> Op:
    return Op(
        "encode",
        ("encode", "--input", str(image), "--block-size", str(CODEC_B), "--drop", "0",
         "--eta", repr(CODEC_ETA), *_flag_threads(1), "--out", str(out)),
        (out,),
        _dctk_size_check(out, CODEC_SIZE, CODEC_B, 0),
    )


def _codec_units(work: Path, oracle: dict) -> list[list[Op]]:
    out = work / "out"
    out.mkdir(exist_ok=True)
    tok, noisy = out / "x.dctk", out / "x_t.dctk"
    back, big = out / "back.ppm", out / "big.ppm"
    units = []
    for image in sorted((work / "images").iterdir()):
        units.append([
            _codec_encode(image, tok),
            Op("diffuse",
               ("diffuse", "--input", str(tok), "--t", repr(DIFFUSE_T), *_flag_threads(1),
                "--out", str(noisy)),
               (noisy,), _diffuse_check(tok, noisy, CODEC_SIZE)),
            Op("decode", ("decode", "--input", str(tok), *_flag_threads(1), "--out", str(back)),
               (back,), _roundtrip_check(image, back)),
            Op("upsample",
               ("upsample", "--method", "dct", "--block-size", str(CODEC_UP_B),
                "--input", str(back), *_flag_threads(1), "--output", str(big)),
               (big,), _upsample_check(back, big)),
        ])
    return units


def _codec_setup(work: Path, tag: str) -> Op:
    return _codec_encode(work / "images" / "img_0000.ppm", work / f"setup-{tag}.dctk")


def _codec_expected() -> dict:
    n, s, b, ub = CODEC_N, CODEC_SIZE, CODEC_B, CODEC_UP_B
    tokens = s * s // (4 * b * b)
    codec_blocks = (s // b) ** 2 + 2 * (s // (2 * b)) ** 2  # Y plus half-size Cb, Cr
    up_blocks = 3 * (s // ub) ** 2  # three full-size planes, dct2 at B then idct2 at 2B
    return {
        "image_io.bytes_read": n * 2 * ppm_bytes(s),
        "image_io.bytes_written": n * (ppm_bytes(s) + ppm_bytes(2 * s)),
        "block_dct.blocks": n * (2 * codec_blocks + 2 * up_blocks),
        "diffuse.normals": n * tokens * 6 * b * b,
        "tokenizer.tokens": n * 2 * tokens,
        "fd_metric.reconstruct_calls": 0,
        "scaling.samples_in": 0,
        "scaling.samples_kept": 0,
        "upsample.planes": n * 3,
    }


# --- corpus_stats -------------------------------------------------------------

STATS_N, STATS_SIZE, STATS_B, STATS_DROP = 128, 256, 4, 8
STATS_MAX_SAMPLES = 100_000  # below every rank's pooled count, so all 48 reservoirs engage
STATS_T_LIST = "0,0.1,0.5"


def _stats_threads() -> int:
    return min(2, os.cpu_count() or 1)


def _stats_build(rng, work: Path) -> dict:
    images = [corpus.smooth_image(rng, STATS_SIZE, 8.0) for _ in range(STATS_N)]
    corpus.write_corpus(work / "images", images)
    corpus.write_corpus(work / "first", images[:1])
    dc = np.concatenate([luma_dc(pixels, STATS_B) for pixels in images])
    return {"eta": ecs_eta(dc), "dc_power": float(np.mean(dc * dc))}


def _eta_check(path: Path, eta: float):
    def check(_out: str) -> str | None:
        doc = json.loads(path.read_text())
        if doc.get("mode") != "ecs" or rel_err(doc.get("eta", 0.0), eta) > REL_TOL:
            return f"eta {doc.get('eta')} != oracle {eta!r}"
        return None

    return check


def _naive_check(path: Path):
    want = 3 * STATS_B**2

    def check(_out: str) -> str | None:
        bounds = json.loads(path.read_text()).get("naive_bounds") or []
        if len(bounds) != want or min(bounds) <= 0:
            return f"naive bounds: {len(bounds)} values, want {want} positive"
        return None

    return check


def _weights_check(path: Path):
    want = 3 * (STATS_B**2 - STATS_DROP)

    def check(_out: str) -> str | None:
        w = np.asarray(json.loads(path.read_text())["weights"], dtype=np.float64)
        if w.shape != (want,) or abs(w.mean() - 1.0) > REL_TOL or np.any(w <= 0):
            return f"weights: {w.size} values with mean {w.mean()!r}, want {want} with mean 1"
        return None

    return check


def _apsd_check(path: Path, dc_power: float):
    n_t = len(STATS_T_LIST.split(","))

    def check(_out: str) -> str | None:
        rows = [line.split(",") for line in path.read_text().split()[1:]]
        if len(rows) != n_t * STATS_B**2:
            return f"apsd: {len(rows)} rows, want {n_t * STATS_B**2}"
        t0, r0, p0 = rows[0]
        if float(t0) != 0.0 or int(r0) != 0 or rel_err(float(p0), dc_power) > CSV_REL_TOL:
            return f"apsd rank 0 at t=0: {p0}, oracle mean DC^2 {dc_power!r}"
        return None

    return check


def _stats_bounds(source: Path, out: Path, eta: float | None) -> Op:
    check = _eta_check(out, eta) if eta is not None else (lambda _out: None)
    return Op(
        "bounds",
        ("bounds", "--input", str(source), "--block-size", str(STATS_B),
         *_flag_threads(_stats_threads()), "--out", str(out)),
        (out,), check,
    )


def _stats_units(work: Path, oracle: dict) -> list[list[Op]]:
    out = work / "out"
    out.mkdir(exist_ok=True)
    images, threads = str(work / "images"), _flag_threads(_stats_threads())
    b = ("--block-size", str(STATS_B))
    ecs, naive = out / "ecs.json", out / "naive.json"
    weights, profile = out / "weights.json", out / "apsd.csv"
    return [[
        _stats_bounds(work / "images", ecs, oracle["eta"]),
        Op("bounds_naive",
           ("bounds", "--input", images, *b, "--mode", "naive",
            "--max-samples", str(STATS_MAX_SAMPLES), *threads, "--out", str(naive)),
           (naive,), _naive_check(naive)),
        Op("weights",
           ("weights", "--input", images, *b, "--drop", str(STATS_DROP), *threads,
            "--out", str(weights)),
           (weights,), _weights_check(weights)),
        Op("apsd",
           ("apsd", "--input", images, *b, "--t-list", STATS_T_LIST, *threads,
            "--out", str(profile)),
           (profile,), _apsd_check(profile, oracle["dc_power"])),
    ]]


def _stats_setup(work: Path, tag: str) -> Op:
    return _stats_bounds(work / "first", work / f"setup-{tag}.json", None)


def _stats_expected() -> dict:
    n, s, b = STATS_N, STATS_SIZE, STATS_B
    y_blocks, c_blocks = (s // b) ** 2, (s // (2 * b)) ** 2
    per_rank = (n * y_blocks,) * b * b + (n * c_blocks,) * 2 * b * b
    return {
        "image_io.bytes_read": 4 * n * ppm_bytes(s),
        "image_io.bytes_written": 0,
        # bounds, bounds --mode naive and weights transform all planes; apsd only Y.
        "block_dct.blocks": 3 * n * (y_blocks + 2 * c_blocks) + n * y_blocks,
        "diffuse.normals": 2 * n * y_blocks * b * b,  # apsd at the two nonzero times
        "tokenizer.tokens": 0,
        "fd_metric.reconstruct_calls": 0,
        # ecs pools the Y DC column (under the default cap); naive every rank.
        "scaling.samples_in": n * y_blocks + sum(per_rank),
        "scaling.samples_kept": n * y_blocks + len(per_rank) * STATS_MAX_SAMPLES,
        "upsample.planes": 0,
    }


# --- mstar_scan ---------------------------------------------------------------

SCAN_N, SCAN_SIZE, SCAN_B, SCAN_ZERO_TOP = 500, 64, 4, 6
SCAN_GRID = range(16)


def _scan_build(rng, work: Path) -> dict:
    corpus.write_corpus(
        work / "images",
        (corpus.band_limited_image(rng, SCAN_SIZE, SCAN_B, SCAN_ZERO_TOP) for _ in range(SCAN_N)),
    )
    pair = work / "pair"
    pair.mkdir()
    for name in ("img_0000.ppm", "img_0001.ppm"):
        (pair / name).write_bytes((work / "images" / name).read_bytes())
    return {}


def _scan_check(report: Path):
    def check(out: str) -> str | None:
        if out.strip() != str(SCAN_ZERO_TOP):
            return f"scan-m printed {out.strip()!r}, want m*={SCAN_ZERO_TOP}"
        rows = report.read_text().split()[1:]
        if [int(r.split(",")[0]) for r in rows] != list(SCAN_GRID):
            return f"scan-m report has m values {[r.split(',')[0] for r in rows]}"
        return None

    return check


def _scan_units(work: Path, oracle: dict) -> list[list[Op]]:
    out = work / "out"
    out.mkdir(exist_ok=True)
    report = out / "curve.csv"
    grid = f"{SCAN_GRID.start}..{SCAN_GRID.stop - 1}"
    return [[Op(
        "scan_m",
        ("scan-m", "--input", str(work / "images"), "--block-size", str(SCAN_B),
         "--grid", grid, "--gamma", "1.0", "--features", "dctstats", *_flag_threads(1),
         "--report", str(report)),
        (report,), _scan_check(report),
    )]]


def _scan_setup(work: Path, tag: str) -> Op:
    # scan-m needs 500 images; `fd` on two images runs its feature, stats and
    # Frechet layers cold, with the scan's flags.
    pair = str(work / "pair")

    def check(out: str) -> str | None:
        return None if abs(float(out)) < 1e-6 else f"fd of a set with itself is {out.strip()}"

    return Op(
        "fd",
        ("fd", "--dir-a", pair, "--dir-b", pair, "--features", "dctstats",
         "--block-size", str(SCAN_B), *_flag_threads(1)),
        (), check,
    )


def _scan_expected() -> dict:
    n, s, b = SCAN_N, SCAN_SIZE, SCAN_B
    calls = n * len(SCAN_GRID)
    blocks = (s // b) ** 2 + 2 * (s // (2 * b)) ** 2
    tokens = s * s // (4 * b * b)
    return {
        "image_io.bytes_read": n * ppm_bytes(s),
        "image_io.bytes_written": 0,
        # each reconstruction runs dct2 and idct2 on every block; the dctstats
        # features transform every original once and every reconstruction.
        "block_dct.blocks": calls * 2 * blocks + (n + calls) * blocks,
        "diffuse.normals": 0,
        "tokenizer.tokens": calls * 2 * tokens,
        "fd_metric.reconstruct_calls": calls,
        "scaling.samples_in": 0,
        "scaling.samples_kept": 0,
        "upsample.planes": 0,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "codec_files",
            1, CODEC_N, CODEC_SIZE, 1,
            _codec_build, _codec_units, _codec_setup, _codec_expected,
        ),
        Workload(
            "corpus_stats",
            _stats_threads(), STATS_N, STATS_SIZE, STATS_N,
            _stats_build, _stats_units, _stats_setup, _stats_expected,
        ),
        Workload(
            "mstar_scan",
            1, SCAN_N, SCAN_SIZE, SCAN_N,
            _scan_build, _scan_units, _scan_setup, _scan_expected,
        ),
    )
}
