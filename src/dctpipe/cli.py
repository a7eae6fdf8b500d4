"""Command-line entry point.

Every subcommand is a thin adapter over one library operation. Directory
inputs are processed in lexicographic order and all reductions preserve
that order, so reruns with identical flags, seeds, and any thread count
produce byte-identical outputs. Numeric output uses >= 6 significant
digits. Exit code 2 signals a usage or precondition error, reported as a
single line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import fd_metric, freq_stats, scaling, upsample
from .block_dct import _check_int, kept_ranks
from .colorspace import assemble_rgb, subsample_rgb
from .diffuse import perturb
from .image_io import RgbImage, read_image, read_shape, write_image
from .schedule import NoiseSchedule, _check_t, snr_factor_for_resolution
from .tokenizer import (
    _check_eta,
    _check_patch_tiling,
    dct_coefficient_matrices,
    detokenize,
    plane_to_zigzag,
    read_dctk,
    tokenize,
    write_dctk,
)

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:#.6g}"


def _flag(parse, check):
    """An argparse ``type=``: parse a flag's text, then run the library's own check on it."""

    def convert(text):
        try:
            value = parse(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(exc) from None
        return value

    return convert


def _check_flag(flag: str, check, value):
    """Run the library's own check (or a parse) on a flag's value before any file is read."""
    try:
        return check(value)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _per_file(fn):
    """Wrap a per-file function so that a ValueError it raises names the file."""
    return lambda path: _check_flag(path, fn, path)


def _imap(fn, items, threads: int):
    """fn(item) for item in items, in order, on ``threads`` threads, as a generator.

    Items are taken as they are needed: at most 2 * threads of them are in
    flight, so only those (and the results not yet taken) are alive at once.
    Closing the generator early, or an item's error, cancels the items not
    yet started and waits for the running ones, so no worker outlives it.
    """
    if threads == 1:  # one item at a time: only the item in hand is alive
        yield from map(fn, items)
        return
    window = deque()
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        for it in items:
            if len(window) == 2 * threads:
                yield window.popleft().result()
            window.append(pool.submit(fn, it))
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _pmap(fn, items, threads: int) -> list:
    """[fn(item) for item in items], in order, on ``threads`` threads (see :func:`_imap`)."""
    return list(_imap(fn, items, threads))


def _image_paths(directory) -> list[Path]:
    root = Path(directory)
    if not root.is_dir():
        raise ValueError(f"not a directory: {root}")
    paths = sorted(p for p in root.iterdir() if p.suffix in (".ppm", ".pgm"))
    if not paths:
        raise ValueError(f"no .ppm/.pgm files in {root}")
    return paths


_NOT_P6 = "expected a P6 color image"


def _read_rgb(path) -> RgbImage:
    img = read_image(path)
    if not isinstance(img, RgbImage):
        raise ValueError(_NOT_P6)
    return img


def _parse_grid(text: str, block_size: int) -> range | tuple[int, ...]:
    # ranges stay lazy: fd_metric._check_grid checks them by their ends, however large B or hi is
    if text == "full":
        return range(block_size**2)
    if ".." in text:
        lo, hi = (int(v) for v in text.split("..", 1))
        return range(lo, hi + 1)
    return tuple(int(v) for v in text.split(","))


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    """--a and --b; each command states its own --c default."""
    p.add_argument("--a", type=_flag(float, lambda a: NoiseSchedule(a=a)), default=NoiseSchedule.a,
                   help="beta intercept")
    p.add_argument("--b", type=_flag(float, lambda b: NoiseSchedule(b=b)), default=NoiseSchedule.b,
                   help="beta slope")


def _cmd_encode(args) -> int:
    def eta_of(path):  # the file's checks run in its per-file step, so their errors name it
        b = scaling.load_bounds(path)
        if b.mode != "ecs":
            raise ValueError("encode needs an ecs bounds file (one global eta)")
        if b.block_size != args.block_size:
            raise ValueError(f"bounds were estimated for B={b.block_size}, not B={args.block_size}")
        return b.eta

    _check_flag("--drop", lambda m: kept_ranks(args.block_size, m), args.drop)
    eta = args.eta if args.bounds is None else _per_file(eta_of)(args.bounds)
    s = subsample_rgb(_per_file(_read_rgb)(args.input))
    write_dctk(args.out, tokenize(s, args.block_size, args.drop, eta))
    return 0


def _cmd_decode(args) -> int:
    write_image(args.out, assemble_rgb(_per_file(lambda p: detokenize(read_dctk(p)))(args.input)))
    return 0


def _cmd_ratio(args) -> int:
    _check_flag("--drop", lambda m: kept_ranks(args.block_size, m), args.drop)
    print(_fmt(fd_metric.compression_ratio(args.block_size, args.drop)))
    return 0


def _y_blocks(path, b: int) -> int:
    """Y blocks of a P6 image, from its header: every check of reading it and tiling it by 2B."""
    height, width, channels = read_shape(path)
    if channels != 3:
        raise ValueError(_NOT_P6)
    _check_patch_tiling(height, width, b)
    return (height // b) * (width // b)


def _collect_samples(args, widths, limit: int | None = None):
    """(y, cb, cr) matrices of every block's leading zigzag ranks, rows in path order.

    ``widths`` holds one count of leading ranks per channel; a channel of
    width 0 keeps nothing (its matrix is (rows, 0)), though its planes are
    still transformed. A size pass over the headers fails on the first bad
    file, as reading would, and fixes each image's rows. So each matrix is
    allocated once and every image writes its own rows in place: the corpus
    is held once.

    With ``limit``, column r of a channel holds only the rows that
    ``scaling.reservoir_sample(samples, limit, seed=r)`` keeps of it. Its
    keys depend only on the sample count, so the rows are drawn from the
    row numbers before any pixel is read, one rank per job on the ``--threads``
    workers, into one (width, limit) matrix per channel. Each image writes only
    its picked rows: a channel's matrix is (min(rows, limit), width).
    """
    b, paths = args.block_size, _image_paths(args.input)
    rows = list(map(_per_file(lambda p: _y_blocks(p, b)), paths))
    index, n = {p: k for k, p in enumerate(paths)}, sum(rows)
    sizes = (n, n // 4, n // 4)  # a chroma plane has a quarter of the Y blocks
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    starts = np.fromiter(accumulate(rows, initial=0), dtype, len(rows) + 1)
    starts = (starts, starts // 4, starts // 4)  # each image's first row, in the picks' dtype
    # per channel that keeps fewer rows than it has: each rank's sorted row numbers, and
    # where each image's first row cuts them; None keeps every row
    picks = [np.empty((w, limit), dtype) if limit is not None and 0 < w and limit < size else None
             for size, w in zip(sizes, widths)]
    cuts = [None if p is None else np.empty((len(p), len(rows) + 1), np.intp) for p in picks]

    def draw(job):  # a rank that keeps every row is drawn too: traces count each draw
        c, r = job
        picked = scaling.reservoir_sample(np.arange(sizes[c], dtype=dtype), limit, seed=r)
        if picks[c] is not None:  # searched in the picks' dtype: no cast of them
            picks[c][r], cuts[c][r] = picked, np.searchsorted(picked, starts[c])

    if limit is not None:
        _pmap(draw, [(c, r) for c, w in enumerate(widths) for r in range(w)], args.threads)
    mats = tuple(np.empty((size if pick is None else limit, width))
                 for size, width, pick in zip(sizes, widths, picks))

    def fill(path):
        k = index[path]
        coeffs = dct_coefficient_matrices(subsample_rgb(_read_rgb(path)), b)
        for mat, pick, cut, part, at in zip(mats, picks, cuts, coeffs, (s[k] for s in starts)):
            if pick is None:
                mat[at : at + len(part)] = part[:, : mat.shape[1]]
                continue
            for r, (picked, i, j) in enumerate(zip(pick, cut[:, k], cut[:, k + 1])):
                mat[i:j, r] = part[picked[i:j] - at, r]

    _pmap(_per_file(fill), paths, args.threads)
    return mats


def _cmd_bounds(args) -> int:
    ecs = args.mode == "ecs"  # ecs pools Y's DC column alone, naive every rank of each channel
    widths = (1, 0, 0) if ecs else (kept_ranks(args.block_size),) * 3
    mats = _collect_samples(args, widths, args.max_samples)
    bounds = scaling.ScalingBounds(
        mode=args.mode, tau=args.tau, block_size=args.block_size,
        eta=scaling.estimate_ecs_bound(mats[0], args.tau) if ecs else None,
        naive_bounds=None if ecs else scaling.estimate_naive_bounds(
            mats, args.tau, map_fn=lambda fn, it: _pmap(fn, it, args.threads)),
    )
    scaling.save_bounds(args.out, bounds)
    return 0


def _cmd_weights(args) -> int:
    kept = _check_flag("--drop", lambda m: kept_ranks(args.block_size, m), args.drop)
    mats = _collect_samples(args, (kept,) * 3)
    w = freq_stats.entropy_weights(mats, args.block_size, args.drop, bins=args.bins,
                                   map_fn=lambda fn, it: _pmap(fn, it, args.threads))
    freq_stats.save_weights(args.out, w)
    return 0


def _cmd_scan_m(args) -> int:
    b = args.block_size
    grid = _check_flag("--grid", lambda g: fd_metric._check_grid(_parse_grid(g, b), b), args.grid)
    paths = _image_paths(args.input)
    fd_metric._check_image_count(len(paths))
    result = fd_metric.scan_mstar(
        map(_per_file(_read_rgb), paths), b, args.gamma, grid,
        features=args.features, map_fn=lambda fn, it: _pmap(fn, it, args.threads),
    )
    if args.report:
        lines = ["m,distance"] + [f"{m},{_fmt(d)}" for m, d in result.curve]
        Path(args.report).write_text("\n".join(lines) + "\n")
    print(result.m_star)
    if result.saturated:
        print("no drop count satisfied the threshold; reporting m*=0", file=sys.stderr)
    return 0


def _cmd_diffuse(args) -> int:
    tokens = _per_file(read_dctk)(args.input)
    c = args.c
    if c is None:
        c = snr_factor_for_resolution(max(tokens.config.height, tokens.config.width))
    sched = NoiseSchedule(a=args.a, b=args.b, c=c)
    write_dctk(args.out, perturb(tokens, args.t, sched, args.seed))
    return 0


def _cmd_apsd(args) -> int:
    sched = NoiseSchedule(a=args.a, b=args.b, c=args.c)
    b = args.block_size

    def coeffs_of(path):
        img = read_image(path)
        if isinstance(img, RgbImage):
            plane = getattr(subsample_rgb(img), args.channel)
        elif args.channel == "y":
            plane = img.pixels
        else:
            raise ValueError(f"a P5 gray image has no {args.channel} channel; use --channel y")
        return plane_to_zigzag(plane, b).reshape(-1, b * b)

    # images are read and transformed on the workers, in path order, as the draws need them
    parts = _imap(_per_file(coeffs_of), _image_paths(args.input), args.threads)
    powers = freq_stats.apsd(parts, sched, args.t_list, seed=args.seed, mode=args.mode,
                             map_fn=lambda fn, it: _imap(fn, it, args.threads))
    lines = ["t,rank,power"]
    for t, row in zip(args.t_list, powers):
        lines.extend(f"{_fmt(t)},{r},{_fmt(p)}" for r, p in enumerate(row))
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_upsample(args) -> int:
    img = _per_file(read_image)(args.input)
    write_image(args.output, upsample.upsample_image(img, args.method, args.block_size))
    return 0


def _cmd_fd(args) -> int:
    extract = fd_metric.make_feature_extractor(args.features, args.block_size)

    def stats_of(directory):
        features_of = _per_file(lambda p: extract(subsample_rgb(_read_rgb(p))))
        feats = _pmap(features_of, _image_paths(directory), args.threads)
        return fd_metric.gaussian_stats(np.stack(feats))

    print(_fmt(fd_metric.frechet_distance(stats_of(args.dir_a), stats_of(args.dir_b))))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, without argparse's usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dctpipe", description="DCT-space image pipeline tools")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--threads", type=_flag(int, lambda n: _check_int(n, "thread count", 1)),
                       default=1, help="worker threads")
        return p

    p = add("encode", _cmd_encode, "image -> DCTK token file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--block-size", type=_flag(int, kept_ranks), required=True)
    p.add_argument("--drop", type=int, default=0)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--bounds", help="ecs bounds JSON supplying eta")
    source.add_argument("--eta", type=_flag(float, _check_eta), help="explicit scale bound")

    p = add("decode", _cmd_decode, "DCTK token file -> image")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

    p = add("ratio", _cmd_ratio, "print the compression ratio for (B, m)")
    p.add_argument("--block-size", type=_flag(int, kept_ranks), required=True)
    p.add_argument("--drop", type=int, required=True)

    p = add("bounds", _cmd_bounds, "estimate scaling bounds over an image directory")
    p.add_argument("--input", required=True)
    p.add_argument("--block-size", type=_flag(int, kept_ranks), required=True)
    p.add_argument("--mode", choices=("ecs", "naive"), default="ecs")
    p.add_argument("--tau", type=_flag(float, scaling._check_tau), default=scaling.DEFAULT_TAU)
    p.add_argument("--max-samples", type=_flag(int, lambda n: _check_int(n, "limit", 1)),
                   default=scaling.MAX_SAMPLES_PER_RANK)
    p.add_argument("--out", required=True)

    p = add("weights", _cmd_weights, "estimate entropy weights over an image directory")
    p.add_argument("--input", required=True)
    p.add_argument("--block-size", type=_flag(int, kept_ranks), required=True)
    p.add_argument("--drop", type=int, default=0)
    p.add_argument("--bins", type=_flag(int, freq_stats._check_bins),
                   default=freq_stats.DEFAULT_BINS)
    p.add_argument("--out", required=True)

    p = add("scan-m", _cmd_scan_m, "scan drop counts for the largest m under gamma")
    p.add_argument("--input", required=True)
    p.add_argument("--block-size", type=_flag(int, kept_ranks), required=True)
    p.add_argument("--gamma", type=_flag(float, fd_metric._check_gamma), required=True)
    p.add_argument("--grid", default="full", help="e.g. 0..15 or 0,4,8 (default: full)")
    p.add_argument("--features", choices=fd_metric.FEATURE_MODES, required=True)
    p.add_argument("--report", default=None, help="CSV path for the (m, distance) curve")

    p = add("diffuse", _cmd_diffuse, "forward-perturb a DCTK token file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t", type=_flag(float, _check_t), required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_schedule_flags(p)
    p.add_argument("--c", type=_flag(float, lambda c: NoiseSchedule(c=c)), default=None,
                   help="SNR scale factor (default 4 up to 256 px on the larger side, else 12)")

    p = add("apsd", _cmd_apsd, "averaged power spectral density over a directory")
    p.add_argument("--input", required=True)
    p.add_argument("--block-size", type=_flag(int, kept_ranks), required=True)
    p.add_argument("--t-list", type=_flag(lambda s: [float(v) for v in s.split(",")], _check_t),
                   required=True, help="comma-separated times, e.g. 0,0.1,0.5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("vp", "ve"), default="vp")
    p.add_argument("--channel", choices=("y", "cb", "cr"), default="y")
    p.add_argument("--out", required=True)
    _add_schedule_flags(p)
    p.add_argument("--c", type=_flag(float, lambda c: NoiseSchedule(c=c)), default=NoiseSchedule.c,
                   help="SNR scale factor (default %(default)s at every resolution)")

    p = add("upsample", _cmd_upsample, "2x upsample an image (dct or bilinear)")
    p.add_argument("--method", choices=upsample.METHODS, required=True)
    p.add_argument("--block-size", type=_flag(int, kept_ranks), default=4)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = add("fd", _cmd_fd, "Frechet distance between two image directories")
    p.add_argument("--dir-a", required=True)
    p.add_argument("--dir-b", required=True)
    p.add_argument("--features", choices=fd_metric.FEATURE_MODES, required=True)
    p.add_argument("--block-size", type=_flag(int, kept_ranks), default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"dctpipe {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
