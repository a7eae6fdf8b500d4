import argparse
import json
import os
import resource
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dctpipe import cli
from dctpipe.cli import _build_parser, _collect_samples, _imap, _pmap, main
from dctpipe.colorspace import subsample_rgb
from dctpipe.fd_metric import make_feature_extractor, reconstruct_rgb, scan_mstar
from dctpipe.freq_stats import DEFAULT_BINS, _hist_entropy
from dctpipe.image_io import GrayImage, RgbImage, read_image, write_image
from dctpipe.scaling import MAX_SAMPLES_PER_RANK, load_bounds, reservoir_sample
from dctpipe.synth import band_limited_image
from dctpipe.tokenizer import (
    TokenArray,
    TokenConfig,
    dct_coefficient_matrices,
    plane_to_zigzag,
    read_dctk,
    write_dctk,
)

from oracles import channel_percentile_bounds, collected_ecs_bound, stacked_reservoirs
from synth import cell_chroma_image

SRC = Path(__file__).resolve().parents[1] / "src"
SUBCOMMANDS = next(
    a.choices for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
)


def cap_memory():
    # a 1 GB address-space cap, for the cases whose work must never be attempted uncapped
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.fixture()
def dataset(tmp_path, rng):
    root = tmp_path / "imgs"
    root.mkdir()
    for i in range(16):
        write_image(root / f"img_{i:03d}.ppm", cell_chroma_image(rng, 32, 32))
    return root


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ratio_prints_table_value(capsys):
    code, out, _ = run(capsys, "ratio", "--block-size", 8, "--drop", 46)
    assert code == 0
    assert float(out.strip()) == pytest.approx(7.11, abs=0.005)
    assert out.strip().startswith("7.11")
    code, out, _ = run(capsys, "ratio", "--block-size", 4, "--drop", 8)
    assert float(out.strip()) == pytest.approx(4.0)


def test_ratio_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "ratio", "--block-size", 4, "--drop", 16)
    assert code == 2
    assert "drop" in err


def test_unknown_flag_exits_2(capsys):
    assert run(capsys, "ratio", "--nope", 1)[0] == 2
    assert run(capsys, "definitely-not-a-command")[0] == 2


def test_encode_decode_roundtrip(tmp_path, dataset, capsys):
    src = sorted(dataset.iterdir())[0]
    bounds = tmp_path / "b.json"
    code, _, err = run(
        capsys, "bounds", "--input", dataset, "--block-size", 4, "--out", bounds
    )
    assert code == 0, err
    doc = json.loads(bounds.read_text())
    assert doc["mode"] == "ecs" and doc["eta"] > 0

    dctk = tmp_path / "x.dctk"
    code, _, err = run(
        capsys, "encode", "--input", src, "--block-size", 4, "--drop", 0,
        "--bounds", bounds, "--out", dctk,
    )
    assert code == 0, err
    out_ppm = tmp_path / "x_back.ppm"
    code, _, err = run(capsys, "decode", "--input", dctk, "--out", out_ppm)
    assert code == 0, err
    original = read_image(src).pixels.astype(int)
    recon = read_image(out_ppm).pixels.astype(int)
    assert np.abs(recon - original).max() <= 1


def test_encode_requires_eta_source(dataset, tmp_path, capsys):
    src = sorted(dataset.iterdir())[0]
    code, _, err = run(
        capsys, "encode", "--input", src, "--block-size", 4, "--out", tmp_path / "x.dctk"
    )
    assert code == 2
    assert "eta" in err or "bounds" in err


@pytest.mark.parametrize(
    "data, error", [(b"{'mode': 'ecs'}", "JSONDecodeError"), (b"\xff{}", "UnicodeDecodeError")]
)
def test_encode_names_an_unparsable_bounds_file(dataset, tmp_path, capsys, data, error):
    bounds = tmp_path / "b.json"
    bounds.write_bytes(data)
    code, _, err = run(capsys, "encode", "--input", sorted(dataset.iterdir())[0], "--block-size", 2,
                       "--bounds", bounds, "--out", tmp_path / "x.dctk")
    assert_single_line_error(code, err)
    assert err.startswith(f"dctpipe encode: {bounds}: malformed bounds file: {error}: "), err


def test_encode_rejects_naive_bounds(dataset, tmp_path, capsys):
    bounds = tmp_path / "naive.json"
    code, _, _ = run(
        capsys, "bounds", "--input", dataset, "--block-size", 2, "--mode", "naive",
        "--out", bounds,
    )
    assert code == 0
    assert load_bounds(bounds).mode == "naive"
    code, _, err = run(
        capsys, "encode", "--input", sorted(dataset.iterdir())[0], "--block-size", 2,
        "--bounds", bounds, "--out", tmp_path / "x.dctk",
    )
    assert code == 2
    assert "ecs" in err


def test_diffuse_writes_perturbed_tokens(dataset, tmp_path, capsys):
    src = sorted(dataset.iterdir())[0]
    dctk = tmp_path / "x.dctk"
    run(capsys, "encode", "--input", src, "--block-size", 4, "--eta", 100, "--out", dctk)
    out = tmp_path / "y.dctk"
    code, _, err = run(
        capsys, "diffuse", "--input", dctk, "--t", 0.3, "--seed", 5, "--out", out
    )
    assert code == 0, err
    before, after = read_dctk(dctk), read_dctk(out)
    assert before.config == after.config
    assert not np.array_equal(before.tokens, after.tokens)


def test_second_main_call_in_a_process_keeps_no_flag_of_the_first(dataset, tmp_path, capsys):
    src = sorted(dataset.iterdir())[0]
    dctk, first, second, fresh = (tmp_path / f"{n}.dctk" for n in ("x", "c2", "default", "fresh"))
    run(capsys, "encode", "--input", src, "--block-size", 4, "--eta", 100, "--out", dctk)
    assert run(capsys, "diffuse", "--input", dctk, "--t", 0.3, "--c", 2, "--out", first)[0] == 0
    assert run(capsys, "diffuse", "--input", dctk, "--t", 0.3, "--out", second)[0] == 0
    subprocess.run(
        [sys.executable, "-m", "dctpipe.cli", "diffuse", "--input", str(dctk), "--t", "0.3",
         "--out", str(fresh)],
        check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert second.read_bytes() == fresh.read_bytes() != first.read_bytes()


def test_weights_command(dataset, tmp_path, capsys):
    out = tmp_path / "w.json"
    code, _, err = run(
        capsys, "weights", "--input", dataset, "--block-size", 2, "--drop", 1,
        "--bins", 64, "--out", out,
    )
    assert code == 0, err
    doc = json.loads(out.read_text())
    assert len(doc["weights"]) == 3 * 3
    assert np.mean(doc["weights"]) == pytest.approx(1.0, abs=1e-9)


def test_apsd_csv(dataset, tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code, _, err = run(
        capsys, "apsd", "--input", dataset, "--block-size", 2, "--t-list", "0,0.5",
        "--seed", 1, "--out", out,
    )
    assert code == 0, err
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,rank,power"
    assert len(lines) == 1 + 2 * 4  # two times x B^2 ranks


def test_upsample_command(tmp_path, rng, capsys):
    src = tmp_path / "lo.pgm"
    write_image(src, GrayImage(rng.integers(0, 256, (16, 16), dtype=np.uint8)))
    out = tmp_path / "hi.pgm"
    code, _, err = run(
        capsys, "upsample", "--method", "dct", "--block-size", 4,
        "--input", src, "--output", out,
    )
    assert code == 0, err
    assert read_image(out).pixels.shape == (32, 32)

    color = tmp_path / "lo.ppm"
    write_image(color, cell_chroma_image(rng, 16, 16))
    code, _, err = run(
        capsys, "upsample", "--method", "bilinear", "--input", color,
        "--output", tmp_path / "hi.ppm",
    )
    assert code == 0, err
    assert read_image(tmp_path / "hi.ppm").pixels.shape == (32, 32, 3)


def test_fd_command_zero_for_identical_dirs(dataset, capsys):
    code, out, err = run(
        capsys, "fd", "--dir-a", dataset, "--dir-b", dataset, "--features", "pixels8"
    )
    assert code == 0, err
    assert abs(float(out.strip())) < 1e-6


def test_fd_dctstats_needs_block_size(dataset, capsys):
    code, _, err = run(
        capsys, "fd", "--dir-a", dataset, "--dir-b", dataset, "--features", "dctstats"
    )
    assert code == 2
    assert "block" in err


def test_missing_input_is_single_line_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "decode", "--input", tmp_path / "missing.dctk", "--out", tmp_path / "x.ppm"
    )
    assert code == 2
    assert len(err.strip().splitlines()) == 1


def assert_single_line_error(code, err):
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_decode_of_short_dctk_is_single_line_error(tmp_path, capsys):
    dctk = tmp_path / "five.dctk"
    dctk.write_bytes(b"DCTK\x01")
    code, _, err = run(capsys, "decode", "--input", dctk, "--out", tmp_path / "x.ppm")
    assert_single_line_error(code, err)
    assert "truncated" in err


@pytest.mark.parametrize("command", ["diffuse", "decode"])
def test_zero_by_zero_dctk_is_single_line_error(tmp_path, capsys, command):
    # diffuse used to write another 0x0 file, and decode failed only on the RGB image
    dctk, out = tmp_path / "empty.dctk", tmp_path / "out.bin"
    dctk.write_bytes(b"DCTK\x01\x00" + struct.pack("<IIHHdQ", 0, 0, 4, 0, 1.0, 0))
    extra = ["--t", 0.3] if command == "diffuse" else []
    code, _, err = run(capsys, command, "--input", dctk, *extra, "--out", out)
    assert_single_line_error(code, err)
    assert err == f"dctpipe {command}: {dctk}: image 0x0 is not tiled by the 8x8 patch\n"
    assert not out.exists()


def test_decode_of_tokens_whose_inverse_dct_overflows_is_single_line_error(tmp_path):
    # finite coefficients (eta = 1) that overflow only inside idct2; warnings need a real process
    cfg = TokenConfig(2, 0, 1.0, 8, 8)
    dctk, out = tmp_path / "big.dctk", tmp_path / "x.ppm"
    write_dctk(dctk, TokenArray(cfg, np.full((cfg.token_count, cfg.token_width), 1e308)))
    proc = subprocess.run(
        [sys.executable, "-m", "dctpipe.cli", "decode", "--input", str(dctk), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert_single_line_error(proc.returncode, proc.stderr)
    assert "non-finite" in proc.stderr
    assert not out.exists()


def test_decode_of_dctk_with_trailing_bytes_is_single_line_error(dataset, tmp_path, capsys):
    dctk = tmp_path / "x.dctk"
    src = sorted(dataset.iterdir())[0]
    run(capsys, "encode", "--input", src, "--block-size", 4, "--eta", 100, "--out", dctk)
    dctk.write_bytes(dctk.read_bytes() + b"\x00")
    code, _, err = run(capsys, "decode", "--input", dctk, "--out", tmp_path / "x.ppm")
    assert_single_line_error(code, err)
    assert "trailing" in err


def test_upsample_of_ppm_with_trailing_bytes_is_single_line_error(tmp_path, capsys):
    src = tmp_path / "lo.ppm"
    src.write_bytes(b"P6\n2 2\n255\n" + bytes(12) + b"EXTRA")
    code, _, err = run(
        capsys, "upsample", "--method", "dct", "--block-size", 2,
        "--input", src, "--output", tmp_path / "hi.ppm",
    )
    assert_single_line_error(code, err)
    assert "trailing" in err
    assert not (tmp_path / "hi.ppm").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_diffuse_of_non_finite_dctk_is_single_line_error(dataset, tmp_path, capsys, value):
    dctk = tmp_path / "x.dctk"
    src = sorted(dataset.iterdir())[0]
    run(capsys, "encode", "--input", src, "--block-size", 4, "--eta", 100, "--out", dctk)
    data = bytearray(dctk.read_bytes())
    data[-8:] = np.float64(value).tobytes()
    dctk.write_bytes(bytes(data))
    out = tmp_path / "y.dctk"
    code, _, err = run(capsys, "diffuse", "--input", dctk, "--t", 0.3, "--out", out)
    assert_single_line_error(code, err)
    assert "non-finite" in err
    assert not out.exists()


DIR_COMMANDS = {
    "bounds": ("bounds", "--input", "{d}", "--block-size", 2, "--out", "{d}/b.json"),
    "weights": ("weights", "--input", "{d}", "--block-size", 2, "--out", "{d}/w.json"),
    "apsd": ("apsd", "--input", "{d}", "--block-size", 2, "--t-list", "0", "--out", "{d}/p.csv"),
    "fd": ("fd", "--dir-a", "{d}", "--dir-b", "{d}", "--features", "dctstats", "--block-size", 2),
    "scan-m": ("scan-m", "--input", "{d}", "--block-size", 2, "--gamma", 1, "--features", "pixels8"),
}


def test_apsd_with_nan_time_is_single_line_error(dataset, tmp_path, capsys):
    out = tmp_path / "p.csv"
    code, _, err = run(
        capsys, "apsd", "--input", dataset, "--block-size", 2, "--t-list", "0,nan",
        "--mode", "ve", "--out", out,
    )
    assert_single_line_error(code, err)
    assert "[0, 1]" in err
    assert not out.exists()


def test_encode_beyond_dctk_header_range_is_single_line_error(tmp_path, capsys):
    src = tmp_path / "big.ppm"
    write_image(src, RgbImage(np.full((514, 514, 3), 90, dtype=np.uint8)))
    out = tmp_path / "big.dctk"
    code, _, err = run(
        capsys, "encode", "--input", src, "--block-size", 257, "--drop", 65536,
        "--eta", 1000, "--out", out,
    )
    assert_single_line_error(code, err)
    assert "drop_count" in err
    assert not out.exists()


def test_encode_with_eta_that_overflows_the_tokens_is_single_line_error(dataset, tmp_path):
    # numpy warnings go to stderr only outside pytest's capture, so run the real process
    src, out = sorted(dataset.iterdir())[0], tmp_path / "x.dctk"
    proc = subprocess.run(
        [sys.executable, "-m", "dctpipe.cli", "encode", "--input", str(src), "--block-size", "4",
         "--eta", "1e-320", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert_single_line_error(proc.returncode, proc.stderr)
    assert "non-finite" in proc.stderr
    assert not out.exists()


def test_encode_with_bounds_missing_tau_is_single_line_error(dataset, tmp_path, capsys):
    bounds = tmp_path / "b.json"
    bounds.write_text(json.dumps({"mode": "ecs", "block_size": 4, "eta": 50.0}))
    code, _, err = run(
        capsys, "encode", "--input", sorted(dataset.iterdir())[0], "--block-size", 4,
        "--bounds", bounds, "--out", tmp_path / "x.dctk",
    )
    assert_single_line_error(code, err)
    assert "tau" in err


def test_encode_with_mistyped_bounds_is_single_line_error(dataset, tmp_path, capsys):
    bounds, out = tmp_path / "b.json", tmp_path / "x.dctk"
    docs = (
        ([1, 2], "malformed bounds file"),
        ({"mode": "ecs", "tau": "high", "block_size": 4, "eta": 50.0}, "malformed bounds file"),
        # a whole float used to pass for --block-size 4 and encode
        ({"mode": "ecs", "tau": 98.25, "block_size": 4.0, "eta": 50.0},
         "block size must be an integer, got 4.0"),
        # and a JSON true for eta encoded with eta = 1
        ({"mode": "ecs", "tau": 98.25, "block_size": 4, "eta": True},
         "ecs bounds require a positive finite eta"),
        # an unknown key or the other mode's field used to be dropped or kept without a word
        ({"mode": "ecs", "tau": 98.25, "block_size": 4, "eta": 50.0, "extra": [1]},
         "malformed bounds file"),
        ({"mode": "ecs", "tau": 98.25, "block_size": 4, "eta": 50.0, "naive_bounds": "junk"},
         "ecs bounds take no naive bound vector"),
        ({"mode": "naive", "tau": 98.25, "block_size": 1, "naive_bounds": [1.0] * 3, "eta": "abc"},
         "naive bounds take no eta"),
    )
    for doc, message in docs:
        bounds.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "encode", "--input", sorted(dataset.iterdir())[0], "--block-size", 4,
            "--bounds", bounds, "--out", out,
        )
        assert_single_line_error(code, err)
        assert message in err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("upsample", "--method", "nearest", "--input", "x.ppm", "--output", "y.ppm"),
        ("encode", "--input", "x.ppm", "--block-size", 4, "--eta", 100),
        ("ratio", "--block-size", "x", "--drop", 0),
        ("definitely-not-a-command",),
    ],
)
def test_argparse_error_is_single_line(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert_single_line_error(code, err)
    assert err.startswith("dctpipe")
    assert "usage:" not in err


@pytest.mark.parametrize("argv", [("--help",)] + [(c, "--help") for c in SUBCOMMANDS])
def test_help_exits_0(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: dctpipe")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("encode", "--input", "{d}/t.ppm", "--block-size", 2, "--out", "{d}/x"),
         "one of the arguments --bounds --eta is required"),
        (("encode", "--input", "{d}/t.ppm", "--block-size", 2, "--bounds", "{d}/none.json",
          "--out", "{d}/x"), "none.json"),
    ],
)
def test_single_file_flags_are_checked_before_reading(tmp_path, capsys, argv, message):
    (tmp_path / "t.ppm").write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    (tmp_path / "t.dctk").write_bytes(b"DCTK" + bytes(6))
    code, _, err = run(capsys, *(str(a).format(d=tmp_path) for a in argv))
    assert_single_line_error(code, err)
    assert message in err
    assert "truncated" not in err and "t.ppm" not in err and "t.dctk" not in err


# A valid command line per subcommand whose every input is truncated: t.ppm, its
# directory, or t.dctk. Each run must stop at its input, so a bad flag value added
# to it must be reported before any read.
VALID_ARGV = {
    "encode": ("--input", "{d}/t.ppm", "--block-size", 2, "--eta", 10, "--out", "{d}/x"),
    "decode": ("--input", "{d}/t.dctk", "--out", "{d}/x"),
    "ratio": ("--block-size", 2, "--drop", 0),
    "bounds": ("--input", "{d}", "--block-size", 2, "--out", "{d}/x"),
    "weights": ("--input", "{d}", "--block-size", 2, "--out", "{d}/x"),
    "scan-m": ("--input", "{d}", "--block-size", 2, "--gamma", 1, "--features", "pixels8"),
    "diffuse": ("--input", "{d}/t.dctk", "--t", 0.5, "--out", "{d}/x"),
    "apsd": ("--input", "{d}", "--block-size", 2, "--t-list", 0, "--out", "{d}/x"),
    "upsample": ("--method", "dct", "--input", "{d}/t.ppm", "--output", "{d}/x"),
    "fd": ("--dir-a", "{d}", "--dir-b", "{d}", "--features", "dctstats", "--block-size", 2),
}
# (bad value, the library's message) for every flag whose argparse type runs a library check
BAD_FLAG_VALUES = {
    "--block-size": [("0", "block size must be >= 1, got 0")],
    "--eta": [("-1", "eta must be a positive finite real, got -1.0"),
              ("nan", "eta must be a positive finite real, got nan")],
    "--tau": [("100", "tau must lie in (50, 100), got 100.0"),
              ("50", "tau must lie in (50, 100), got 50.0")],
    "--max-samples": [("0", "limit must be >= 1, got 0")],
    "--bins": [("10", "need at least 16 histogram bins, got 10")],
    "--t": [("2", "t must lie in [0, 1]")],
    "--t-list": [("0,2", "t must lie in [0, 1]"), ("0,nan", "t must lie in [0, 1]")],
    "--a": [("inf", "a, b, c must all be positive and finite")],
    "--b": [("0", "a, b, c must all be positive and finite")],
    "--c": [("-1", "a, b, c must all be positive and finite")],
    "--gamma": [("0", "gamma must be positive, got 0.0")],
    "--threads": [("0", "thread count must be >= 1, got 0"), ("-2", "thread count must be >= 1")],
}
CHECKED_FLAGS = [
    (cmd, flag)
    for cmd, parser in SUBCOMMANDS.items()
    for action in parser._actions
    for flag in action.option_strings[-1:]
    if flag in BAD_FLAG_VALUES or getattr(action.type, "__qualname__", "").startswith("_flag.")
]


@pytest.mark.parametrize("cmd, flag", CHECKED_FLAGS)
def test_every_checked_flag_is_rejected_by_name_before_reading(tmp_path, capsys, cmd, flag):
    (tmp_path / "t.ppm").write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    for i in range(499 if cmd == "scan-m" else 0):  # scan-m counts its 500 paths before reading
        (tmp_path / f"t{i:03d}.ppm").write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    (tmp_path / "t.dctk").write_bytes(b"DCTK" + bytes(6))
    valid = [str(a).format(d=tmp_path) for a in VALID_ARGV[cmd]]
    code, _, err = run(capsys, cmd, *valid)
    assert code == 0 or "truncated" in err, err
    assert BAD_FLAG_VALUES.get(flag), f"{flag} of {cmd} runs a check but has no bad value here"
    for bad, message in BAD_FLAG_VALUES[flag]:
        code, _, err = run(capsys, cmd, *valid, flag, bad)  # the last value of a flag wins
        assert_single_line_error(code, err)
        assert f"argument {flag}: {message}" in err
        assert "truncated" not in err and "t.ppm" not in err and "t.dctk" not in err


@pytest.mark.parametrize("cmd", ["encode", "weights", "ratio"])
def test_drop_beyond_the_block_is_rejected_by_name_before_reading(tmp_path, capsys, cmd):
    # --drop's range depends on --block-size, so the command checks it, before any read
    (tmp_path / "t.ppm").write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    valid = [str(a).format(d=tmp_path) for a in VALID_ARGV[cmd]]
    code, _, err = run(capsys, cmd, *valid, "--drop", 4)  # B^2 at B = 2
    assert_single_line_error(code, err)
    assert f"dctpipe {cmd}: --drop: drop count must be in [0, 3] for B=2, got 4" in err
    assert "truncated" not in err and str(tmp_path) not in err


def test_checked_flags_keep_their_parsed_types():
    parse = _build_parser().parse_args
    args = parse(["apsd", "--input", "d", "--block-size", "4", "--t-list", "0,.5", "--out", "o"])
    assert type(args.block_size) is int and args.block_size == 4
    assert args.t_list == [0.0, 0.5] and all(type(t) is float for t in args.t_list)
    args = parse(["diffuse", "--input", "i", "--t", "1", "--c", "4", "--out", "o"])
    assert type(args.t) is float and type(args.c) is float


def test_memory_error_is_single_line_error(dataset, tmp_path):
    # 1e9 histogram bins need 8 GB of bin edges; never run this case without the cap
    proc = subprocess.run(
        [sys.executable, "-m", "dctpipe.cli", "weights", "--input", str(dataset),
         "--block-size", "2", "--bins", "1000000000", "--out", str(tmp_path / "w.json")],
        capture_output=True, text=True, preexec_fn=cap_memory, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert_single_line_error(proc.returncode, proc.stderr)
    assert proc.stderr.startswith("dctpipe weights: Unable to allocate")
    assert not (tmp_path / "w.json").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ("--t", "0.5", "--c", "inf"),
        ("--t", "0.5", "--a", "1e308", "--b", "1e308"),
        ("--t", "1", "--a", "1.7e308", "--b", "1.7e308"),  # y(t) overflows to inf
        ("--t", "1e-300", "--c", "1e-300"),  # y'(t) = -inf through log1p(-1)
    ],
)
def test_diffuse_rejects_degenerate_schedule_in_one_line(dataset, tmp_path, flags):
    # numpy warnings go to stderr only outside pytest's capture, so run the real process
    dctk = tmp_path / "x.dctk"
    assert main(["encode", "--input", str(sorted(dataset.iterdir())[0]), "--block-size", "4",
                 "--eta", "100", "--out", str(dctk)]) == 0
    out = tmp_path / "y.dctk"
    proc = subprocess.run(
        [sys.executable, "-m", "dctpipe.cli", "diffuse", "--input", str(dctk), *flags,
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert_single_line_error(proc.returncode, proc.stderr)
    assert not out.exists()


def test_huge_grid_range_is_rejected_before_it_is_built(tmp_path):
    # under a 1 GB address-space cap a materialised 0..1e9 grid (8 GB) cannot exist
    (tmp_path / "t.ppm").write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    proc = subprocess.run(
        [sys.executable, "-m", "dctpipe.cli", "scan-m", "--input", str(tmp_path),
         "--block-size", "2", "--gamma", "1", "--grid", "0..1000000000", "--features", "pixels8"],
        capture_output=True, text=True, preexec_fn=cap_memory, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert_single_line_error(proc.returncode, proc.stderr)
    assert "--grid: drop count must be in [0, 3] for B=2, got 1000000000" in proc.stderr


def test_full_grid_is_not_built_before_the_images_bound_the_block_size(tmp_path):
    # the default --grid full of B=1e5 has 1e10 entries (80 GB as a list); under a 1 GB cap
    # the command must still reach the image read and report the truncated file
    for name in ["t"] + [f"t{i:03d}" for i in range(499)]:  # 500 paths pass the count rule
        (tmp_path / f"{name}.ppm").write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    proc = subprocess.run(
        [sys.executable, "-m", "dctpipe.cli", "scan-m", "--input", str(tmp_path),
         "--block-size", "100000", "--gamma", "1", "--features", "pixels8"],
        capture_output=True, text=True, preexec_fn=cap_memory, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert_single_line_error(proc.returncode, proc.stderr)
    assert "t.ppm: truncated payload" in proc.stderr


@pytest.mark.parametrize(
    "argv, flag, entry",
    [
        (("apsd", "--t-list", "0,,1", "--out", "p.csv"), "--t-list", "''"),
        (("apsd", "--t-list", "0,x", "--out", "p.csv"), "--t-list", "'x'"),
        (("scan-m", "--gamma", 1, "--grid", "0,,3", "--features", "pixels8"), "--grid", "''"),
        (("scan-m", "--gamma", 1, "--grid", "a..3", "--features", "pixels8"), "--grid", "'a'"),
    ],
)
def test_bad_list_entry_names_flag_and_entry(tmp_path, capsys, argv, flag, entry):
    (tmp_path / "bad.ppm").write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    cmd, *rest = argv
    code, _, err = run(capsys, cmd, "--input", tmp_path, "--block-size", 2, *rest)
    assert_single_line_error(code, err)
    assert f"{flag}: " in err and entry in err


@pytest.mark.parametrize(
    "grid, message",
    [
        ("0,99", "drop count must be in [0, 3] for B=2, got 99"),
        ("5,3", "m_grid must be a nonempty, strictly ascending list of drop counts"),
        ("3..1", "m_grid must be a nonempty, strictly ascending list of drop counts"),
        ("0..99", "drop count must be in [0, 3] for B=2, got 99"),
    ],
    ids=["list-end", "descending-list", "empty-range", "range-end"],
)
def test_grid_errors_name_the_flag_before_the_input_is_read(tmp_path, capsys, grid, message):
    # the input directory does not exist: the grid is checked before any path is looked at
    code, _, err = run(capsys, "scan-m", "--input", tmp_path / "missing", "--block-size", 2,
                       "--gamma", 1, "--grid", grid, "--features", "pixels8")
    assert_single_line_error(code, err)
    assert err == f"dctpipe scan-m: --grid: {message}\n"


def test_pmap_with_one_thread_takes_one_item_at_a_time():
    from dctpipe.cli import _pmap

    pulled, seen = [], []

    def items():
        for i in range(5):
            pulled.append(i)
            yield i

    def square(i):
        seen.append(len(pulled))  # how many items were taken when item i is worked on
        return i * i

    assert _pmap(square, items(), 1) == [0, 1, 4, 9, 16]
    assert seen == [1, 2, 3, 4, 5]
    assert _pmap(square, items(), 2) == [0, 1, 4, 9, 16]
    assert _pmap(square, iter([]), 2) == []


@pytest.mark.parametrize(
    "kind, cmd",
    [("truncated", cmd) for cmd in DIR_COMMANDS]
    # a 6x6 image has 3x3 chroma planes, which 2x2 blocks do not tile
    + [("untiled", cmd) for cmd in ("bounds", "weights", "fd")]
    + [("gray", cmd) for cmd in ("bounds", "weights", "fd", "scan-m")],
)
def test_directory_commands_name_the_bad_file(tmp_path, rng, capsys, kind, cmd):
    write_image(tmp_path / "a.ppm", cell_chroma_image(rng, 16, 16))
    path = tmp_path / ("b.pgm" if kind == "gray" else "b.ppm")
    if kind == "truncated":
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    elif kind == "untiled":
        write_image(path, cell_chroma_image(rng, 6, 6))
    else:
        write_image(path, GrayImage(rng.integers(0, 256, (16, 16), dtype=np.uint8)))
    for i in range(498 if cmd == "scan-m" else 0):  # scan-m counts its 500 paths before reading
        (tmp_path / f"c{i:03d}.ppm").write_bytes((tmp_path / "a.ppm").read_bytes())
    code, _, err = run(capsys, *(str(a).format(d=tmp_path) for a in DIR_COMMANDS[cmd]))
    assert_single_line_error(code, err)
    assert f"{path}: " in err
    assert err.count(str(path)) == 1


_ECS_DOC = {"mode": "ecs", "tau": 98.25, "block_size": 2, "eta": 50.0}
# malformed files of each kind of input, by what is wrong with them
MALFORMED = {
    "pnm": {
        "truncated": b"P6\n4 4\n255\n" + bytes(10),
        "trailing bytes": b"P6\n4 4\n255\n" + bytes(48) + b"EXTRA",
        "bad magic": b"P3\n4 4\n255\n" + bytes(48),
    },
    "dctk": {
        "short header": b"DCTK\x01",
        "trailing bytes": None,  # a valid 8x8 file plus one byte, written by the test
        "0x0": b"DCTK\x01\x00" + struct.pack("<IIHHdQ", 0, 0, 4, 0, 1.0, 0),
    },
    "bounds": {
        "not UTF-8": b"\xff{}",
        "not JSON": b"{'mode': 'ecs'}",
        "empty": b"",
        "text after JSON": b'{"tau": 98.25} trailing',
        "past the digit limit": b"1" * 5000,
        "unknown key": json.dumps(_ECS_DOC | {"extra": 1}).encode(),
        "negative eta": json.dumps(_ECS_DOC | {"eta": -1}).encode(),
    },
}
# every subcommand that reads a file: for each input flag, an argv whose slot for it is
# malformed. {pnm}, {dctk} and {bounds} are a bad file, {dir} a directory of good images and
# one bad one; {images} is a directory of good images, {image} one of them, {out} the output
FILE_READERS = {
    "encode": {"--input": "encode --input {pnm} --block-size 2 --eta 10 --out {out}",
               "--bounds": "encode --input {image} --block-size 2 --bounds {bounds} --out {out}"},
    "decode": {"--input": "decode --input {dctk} --out {out}"},
    "diffuse": {"--input": "diffuse --input {dctk} --t 0.5 --out {out}"},
    "upsample": {"--input": "upsample --method dct --block-size 2 --input {pnm} --output {out}"},
    "bounds": {"--input": "bounds --input {dir} --block-size 2 --out {out}"},
    "weights": {"--input": "weights --input {dir} --block-size 2 --out {out}"},
    "apsd": {"--input": "apsd --input {dir} --block-size 2 --t-list 0 --out {out}"},
    "scan-m": {"--input": "scan-m --input {dir} --block-size 2 --gamma 1 --grid 0..3 "
                          "--features pixels8 --report {out}"},
    "fd": {"--dir-a": "fd --dir-a {dir} --dir-b {images} --features pixels8",
           "--dir-b": "fd --dir-a {images} --dir-b {dir} --features pixels8"},
}
FILE_FLAGS = {"--input", "--dir-a", "--dir-b", "--bounds"}


def _flags(command):
    return {flag for a in SUBCOMMANDS[command]._actions for flag in a.option_strings}


@pytest.mark.parametrize("command", [c for c in SUBCOMMANDS if _flags(c) & FILE_FLAGS])
def test_every_input_file_is_named(tmp_path, rng, capsys, command):
    # GNU form, `dctpipe command: file: message`, for every input flag and malformed kind;
    # a new file-reading subcommand or input flag fails here until the table has its row
    assert FILE_READERS.get(command, {}).keys() == _flags(command) & FILE_FLAGS, command
    images = tmp_path / "images"
    images.mkdir()
    write_image(images / "a.ppm", cell_chroma_image(rng, 16, 16))
    for i in range(498 if command == "scan-m" else 1):  # scan-m counts 500 paths before reading
        (images / f"c{i:03d}.ppm").write_bytes((images / "a.ppm").read_bytes())
    dctk = tmp_path / "good.dctk"
    cfg = TokenConfig(2, 0, 1.0, 8, 8)
    write_dctk(dctk, TokenArray(cfg, np.zeros((cfg.token_count, cfg.token_width))))
    for flag, argv in FILE_READERS[command].items():
        kind = next(k for k in ("pnm", "dctk", "bounds", "dir") if f"{{{k}}}" in argv)
        for name, data in MALFORMED["pnm" if kind == "dir" else kind].items():
            case = tmp_path / flag.lstrip("-") / name.replace(" ", "_")
            case.mkdir(parents=True)
            bad = case / ("b.ppm" if kind in ("pnm", "dir") else f"b.{kind}")
            bad.write_bytes(dctk.read_bytes() + b"\x00" if data is None else data)
            for good in images.iterdir() if kind == "dir" else ():
                (case / good.name).write_bytes(good.read_bytes())
            out = case / "out.bin"
            files = {kind: case if kind == "dir" else bad, "images": images,
                     "image": images / "a.ppm", "out": out}
            code, stdout, err = run(capsys, *argv.format(**files).split())
            assert_single_line_error(code, err)
            assert err.startswith(f"dctpipe {command}: {bad}: "), (flag, name, err)
            assert not out.exists() and stdout == "", (flag, name)


@pytest.mark.parametrize("channel", ["cb", "cr"])
def test_apsd_chroma_of_gray_image_is_single_line_error(tmp_path, rng, capsys, channel):
    gray = tmp_path / "g.pgm"
    write_image(gray, GrayImage(rng.integers(0, 256, (32, 32), dtype=np.uint8)))
    out = tmp_path / "p.csv"
    code, _, err = run(
        capsys, "apsd", "--input", tmp_path, "--block-size", 2, "--t-list", "0",
        "--channel", channel, "--out", out,
    )
    assert_single_line_error(code, err)
    assert str(gray) in err and channel in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("ratio", "--block-size", 4, "--drop", 0),
        ("encode", "--input", "x.ppm", "--block-size", 4, "--eta", 100, "--out", "x.dctk"),
        ("decode", "--input", "x.dctk", "--out", "x.ppm"),
        ("bounds", "--input", "imgs", "--block-size", 4, "--out", "b.json"),
    ],
)
def test_threads_flag_is_checked_for_every_command(tmp_path, capsys, monkeypatch, argv):
    # the inputs do not exist: the flag is rejected before any path is looked at
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv, "--threads", 0)
    assert_single_line_error(code, err)
    assert "argument --threads: thread count must be >= 1, got 0" in err


def test_grid_syntax_variants():
    from dctpipe.cli import _parse_grid

    assert _parse_grid("0..3", 4) == range(0, 4)
    assert _parse_grid("0,4,8", 4) == (0, 4, 8)
    assert _parse_grid("full", 2) == range(0, 4)
    assert _parse_grid("full", 10**9) == range(10**18)  # lazy: never built


def test_apsd_channels_and_gray_input(dataset, tmp_path, rng, capsys):
    for channel in ("cb", "cr"):
        out = tmp_path / f"p_{channel}.csv"
        code, _, err = run(
            capsys, "apsd", "--input", dataset, "--block-size", 2,
            "--t-list", "0", "--channel", channel, "--out", out,
        )
        assert code == 0, err
        assert len(out.read_text().strip().splitlines()) == 1 + 4

    gray_dir = tmp_path / "gray"
    gray_dir.mkdir()
    for i in range(4):
        write_image(gray_dir / f"g{i}.pgm", GrayImage(rng.integers(0, 256, (32, 32), dtype=np.uint8)))
    out = tmp_path / "p_gray.csv"
    code, _, err = run(
        capsys, "apsd", "--input", gray_dir, "--block-size", 2, "--t-list", "0,1",
        "--mode", "ve", "--out", out,
    )
    assert code == 0, err


def test_scan_m_curve_report(tmp_path, capsys):
    gen = np.random.default_rng(5)
    root = tmp_path / "scan"
    root.mkdir()
    for i in range(500):
        write_image(root / f"i{i:04d}.ppm", band_limited_image(gen, 16, 2, 1))
    report = tmp_path / "curve.csv"
    code, out, err = run(
        capsys, "scan-m", "--input", root, "--block-size", 2, "--gamma", "1.0",
        "--grid", "0..3", "--features", "dctstats", "--report", report,
    )
    assert code == 0, err
    assert out.strip().splitlines()[0] == "1"  # m* recovers the zeroed slot
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "m,distance"
    assert len(lines) == 5


def test_threads_flag_does_not_change_bytes(dataset, tmp_path, capsys):
    # 16 images of 32x32 at B=2: 4096 Y and 1024 chroma blocks, so every naive rank
    # draws a reservoir, and more threads than this host's cores
    commands = {
        "ecs": ("bounds",),
        "naive": ("bounds", "--mode", "naive", "--max-samples", 100),
        "weights": ("weights",),
        "apsd": ("apsd", "--t-list", "0,0.3,0.7"),
    }
    for name, argv in commands.items():
        outs = []
        for threads in (1, 2, 4, 5):
            out = tmp_path / f"{name}_{threads}"
            code, _, err = run(capsys, *argv, "--input", dataset, "--block-size", 2,
                               "--threads", threads, "--out", out)
            assert code == 0, err
            outs.append(out.read_bytes())
        assert outs == [outs[0]] * 4, name


def test_pmap_keeps_at_most_two_items_per_thread_in_flight():
    pulled, done = [], []

    def items():
        for i in range(40):
            pulled.append(i)
            yield i

    def slow_square(i):
        assert len(pulled) - len(done) <= 2 * 3 + 1  # the window, and the item just taken
        done.append(i)
        return i * i

    assert _pmap(slow_square, items(), 3) == [i * i for i in range(40)]


def test_two_thread_scan_holds_what_the_one_thread_scan_holds(traced_peak):
    # 500 fresh 64x64 images from a generator: a window of 2 x threads images is
    # alive at once, so two threads hold about what one does (3.8x more when
    # every image was submitted up front)
    grid = (0, 6, 12)

    def images():
        rng = np.random.default_rng(5)
        for _ in range(500):
            yield RgbImage(rng.integers(0, 256, (64, 64, 3), dtype=np.uint8))

    extract = make_feature_extractor("pixels8", 4)
    for m in grid:  # warm the package's one-time caches outside the measurement
        extract(subsample_rgb(reconstruct_rgb(subsample_rgb(next(images())), 4, m)))
    peaks = [
        traced_peak(lambda: scan_mstar(images(), 4, 1.0, grid, map_fn=lambda f, it: _pmap(f, it, t)))
        for t in (1, 2)
    ]
    assert peaks[1] < peaks[0] + 2**19, peaks


@pytest.mark.parametrize(
    "argv, step",
    [
        # a Y rank's reservoir draw over its row numbers
        (("bounds", "--mode", "naive", "--max-samples", 100),
         lambda y: reservoir_sample(np.arange(len(y), dtype=np.int32), 100, seed=0)),
        # a Y rank's histogram
        (("weights", "--drop", 8), lambda y: _hist_entropy(y, DEFAULT_BINS)),
    ],
    ids=["naive", "weights"],
)
def test_two_thread_corpus_stats_hold_what_one_thread_holds(tmp_path, traced_peak, argv, step):
    # 64 images of 64x64 at B=4: 16384 Y rows. The per-rank steps run on the workers one
    # column each, so a second thread adds one Y column's step (and the pool's 64 KiB
    # of bookkeeping), not a channel's
    rng = np.random.default_rng(3)
    for i in range(64):
        write_image(tmp_path / f"i{i:02d}.ppm", RgbImage(rng.integers(0, 256, (64, 64, 3), np.uint8)))

    def command(threads):
        return lambda: main([*map(str, argv), "--block-size", "4", "--input", str(tmp_path),
                             "--threads", str(threads), "--out", str(tmp_path / "o")])

    assert command(2)() == 0  # warm the package's one-time caches outside the measurement
    column = rng.normal(size=(64 * 256, 16))[:, 3]
    one = traced_peak(lambda: step(column))
    peaks = [traced_peak(command(t)) for t in (1, 2)]
    assert peaks[1] < peaks[0] + one + 2**16, (peaks, one)


def test_scan_m_counts_the_paths_before_it_decodes_an_image(tmp_path, capsys, monkeypatch):
    for i in range(499):  # not images at all: decoding any one of them would fail
        (tmp_path / f"i{i:03d}.ppm").write_bytes(b"not a PNM file")
    reads = []
    monkeypatch.setattr("dctpipe.cli.read_image", lambda path: reads.append(path))
    code, _, err = run(capsys, "scan-m", "--input", tmp_path, "--block-size", 2, "--gamma", 1,
                       "--features", "pixels8")
    assert_single_line_error(code, err)
    assert err == "dctpipe scan-m: scan needs at least 500 images, got 499\n"
    assert reads == []


@pytest.mark.parametrize(
    "argv, kept, columns",
    [
        # ecs keeps Y's DC column alone; np.percentile partitions a copy of it
        (("bounds",), 1, 1),
        # a Y rank's reservoir draws row numbers, counters, keys and a partition of them
        (("bounds", "--mode", "naive", "--max-samples", 100), 16, 4),
        # np.histogram bins a Y column through a few column-sized temporaries
        (("weights", "--drop", 8), 8, 6),
        # under the default cap naive keeps every row, each channel once, and each
        # rank's percentile partitions a copy of one column
        (("bounds", "--mode", "naive"), 16, 3),
        # under a cap ecs draws Y's DC rows as naive draws a rank's
        (("bounds", "--max-samples", 100), 1, 4),
    ],
)
def test_corpus_commands_hold_the_kept_coefficients_once(
    tmp_path, capsys, traced_peak, monkeypatch, argv, kept, columns
):
    # 64 images of 64x64 at B=4: 16384 Y and 2 x 4096 chroma blocks
    rng = np.random.default_rng(3)
    for i in range(64):
        write_image(tmp_path / f"i{i:02d}.ppm", RgbImage(rng.integers(0, 256, (64, 64, 3), np.uint8)))
    image = traced_peak(
        lambda: dct_coefficient_matrices(subsample_rgb(read_image(tmp_path / "i00.ppm")), 4)
    )
    y_rows = 64 * 256
    limit = dict(zip(argv, argv[1:])).get("--max-samples")
    channels = 1 if argv[0] == "bounds" and "naive" not in argv else 3  # ecs keeps no chroma
    if limit is None:  # Y, then each chroma channel kept
        rows = y_rows + (channels - 1) * y_rows // 4
        held = 8 * kept * rows
    else:  # a limit below every channel's rows: the reservoirs and their int32 row numbers
        rows = channels * limit
        held = (8 + 4) * kept * rows
    scratch = columns * 8 * y_rows
    code, _, err = run(capsys, *argv, "--block-size", 4, "--input", tmp_path, "--out", tmp_path / "o")
    assert code == 0, err
    fills, collect = [], cli._collect_samples

    def fill(*args):  # the peak before the fill, the collected bytes, the fill's own peak
        before = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        mats = collect(*args)
        fills.append((before, sum(m.nbytes for m in mats), tracemalloc.get_traced_memory()[1]))
        return mats

    monkeypatch.setattr(cli, "_collect_samples", fill)
    after = traced_peak(
        lambda: main([*map(str, argv), "--block-size", "4", "--input", str(tmp_path),
                      "--out", str(tmp_path / "o")])
    )
    [(before, collected, fill_peak)] = fills
    peak = max(before, after)  # the whole command's peak, from its start
    assert peak < held + image + scratch, (peak, held, image, scratch)
    # An uncapped command's scratch serves its estimate, after the fill. So the fill alone
    # holds the kept rows, one image in flight and the paths with their row offsets (under
    # 1 KiB a file): no room for the 64 KiB of chroma DC that ecs would hold with chroma.
    assert collected == 8 * kept * rows
    paths, fill_scratch = 64 * 1024, scratch if limit is not None else 0
    assert fill_peak < held + image + paths + fill_scratch, (fill_peak, held, image, fill_scratch)


def test_apsd_holds_a_window_of_images_not_the_corpus(tmp_path, capsys, traced_peak):
    # 128 images whose (256, 16) Y matrices take 4 MiB together; two threads keep at
    # most four images in flight, besides the one being folded
    rng = np.random.default_rng(3)
    for i in range(128):
        write_image(tmp_path / f"i{i:03d}.ppm", RgbImage(rng.integers(0, 256, (64, 64, 3), np.uint8)))
    argv = ["apsd", "--input", str(tmp_path), "--block-size", "4", "--t-list", "0,0.5",
            "--threads", "2", "--out", str(tmp_path / "p.csv")]
    image = traced_peak(lambda: plane_to_zigzag(subsample_rgb(read_image(tmp_path / "i000.ppm")).y, 4))
    assert main(argv) == 0
    peak = traced_peak(lambda: main(argv))
    corpus = 128 * 8 * 16 * 256
    assert peak < 6 * image < corpus / 3, (peak, image, corpus)


def test_collected_rows_do_not_depend_on_the_thread_count(tmp_path):
    # worker threads write their images' rows (or their picked reservoir rows) into
    # shared matrices; one to five threads on a short switch interval must give what
    # stacking each column's reservoir of the whole channel gives
    rng = np.random.default_rng(4)
    for i, (h, w) in enumerate([(16, 16), (32, 16), (16, 48), (48, 32)] * 6):
        write_image(tmp_path / f"i{i:02d}.ppm", RgbImage(rng.integers(0, 256, (h, w, 3), np.uint8)))
    whole = _collect_samples(argparse.Namespace(input=tmp_path, block_size=2, threads=1), (4,) * 3)
    assert [m.shape for m in whole] == [(4608, 4), (1152, 4), (1152, 4)]  # 18432 pixels, B=2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # below, at and above the chroma (1152) and Y (4608) row counts
        for limit in (None, 1, 500, 1151, 1152, 1153, 4607, 4608, 4609):
            want = whole if limit is None else stacked_reservoirs(whole, limit)
            for threads in range(1, 6):
                args = argparse.Namespace(input=tmp_path, block_size=2, threads=threads)
                got = _collect_samples(args, (4,) * 3, limit)
                assert [m.shape for m in got] == [m.shape for m in want], (limit, threads)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (limit, threads)
                # ecs's widths: Y's rank-0 picks, and chroma planes that keep nothing
                y, cb, cr = _collect_samples(args, (1, 0, 0), limit)
                assert np.array_equal(y, want[0][:, :1]), (limit, threads)
                assert cb.shape == cr.shape == (1152, 0), (limit, threads)
    finally:
        sys.setswitchinterval(interval)


def mixed_size_corpus(directory):
    """Ten images of five sizes at B=4: 2432 Y and 608 chroma blocks, collected whole."""
    rng = np.random.default_rng(6)
    for i, size in enumerate([(64, 64), (32, 96), (96, 32), (64, 128), (32, 32)] * 2):
        write_image(directory / f"i{i:02d}.ppm", cell_chroma_image(rng, *size))
    whole = _collect_samples(argparse.Namespace(input=directory, block_size=4, threads=1), (16,) * 3)
    assert [len(m) for m in whole] == [2432, 608, 608]
    return whole


@pytest.mark.parametrize("limit", [7, 300, 607, 608, 609, 2431, 2432, 2433, None])
def test_naive_bounds_have_the_bits_of_collecting_then_stacking(tmp_path, capsys, limit):
    whole = mixed_size_corpus(tmp_path)
    kept = whole if limit is None else stacked_reservoirs(whole, limit)
    want = channel_percentile_bounds(kept, 97.5)
    cap = () if limit is None else ("--max-samples", limit)
    code, _, err = run(capsys, "bounds", "--input", tmp_path, "--block-size", 4, "--mode", "naive",
                       "--tau", 97.5, *cap, "--threads", 3, "--out", tmp_path / "n.json")
    assert code == 0, err
    assert load_bounds(tmp_path / "n.json").naive_bounds == tuple(want)


@pytest.mark.parametrize("limit", [7, 2431, 2432, 2433, None])
def test_ecs_bound_has_the_bits_of_collecting_then_sampling(tmp_path, capsys, limit):
    # ecs draws its Y DC rows from the row count; the oracle samples the whole column's values
    y_dc = mixed_size_corpus(tmp_path)[0][:, 0]
    want = collected_ecs_bound(y_dc, MAX_SAMPLES_PER_RANK if limit is None else limit, 97.5)
    cap = () if limit is None else ("--max-samples", limit)
    for threads in (1, 2, 3):
        code, _, err = run(capsys, "bounds", "--input", tmp_path, "--block-size", 4, "--tau", 97.5,
                           *cap, "--threads", threads, "--out", tmp_path / "e.json")
        assert code == 0, err
        assert load_bounds(tmp_path / "e.json").eta == want, threads


def test_imap_error_mid_directory_stops_every_worker(tmp_path, rng, capsys):
    for i in range(12):
        write_image(tmp_path / f"i{i:02d}.ppm", cell_chroma_image(rng, 32, 32))
    bad = tmp_path / "i05.ppm"
    bad.write_bytes(b"P6\n32 32\n255\n" + bytes(10))
    baseline = threading.active_count()
    code, _, err = run(capsys, "apsd", "--input", tmp_path, "--block-size", 2, "--t-list", "0,0.5",
                       "--threads", 2, "--out", tmp_path / "p.csv")
    assert_single_line_error(code, err)
    assert err == f"dctpipe apsd: {bad}: truncated payload: need 3072 bytes, have 10\n"
    assert threading.active_count() == baseline
    assert not (tmp_path / "p.csv").exists()


def test_imap_closed_early_leaves_no_worker_running():
    baseline = threading.active_count()
    pulled, started = [], []

    def items():
        for i in range(1000):
            pulled.append(i)
            yield i

    def slow(i):
        started.append(i)
        time.sleep(0.01)
        return i

    results = _imap(slow, items(), 3)
    assert [next(results) for _ in range(4)] == [0, 1, 2, 3]
    results.close()
    assert threading.active_count() == baseline
    done = len(started)
    assert done <= len(pulled) <= 4 + 2 * 3  # only the window was ever taken
    time.sleep(0.05)
    assert len(started) == done  # the cancelled items never run
    assert list(_imap(slow, iter(range(5)), 2)) == [0, 1, 2, 3, 4]
    assert threading.active_count() == baseline
