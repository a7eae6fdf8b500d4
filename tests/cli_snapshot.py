#!/usr/bin/env python3
"""Snapshot the bytes of a fixed set of dctpipe CLI invocations.

    PYTHONPATH=<checkout>/src python tests/cli_snapshot.py OUT

Writes seeded inputs under OUT/in, built with numpy alone so they do not
depend on the code under test. It then runs every invocation in CASES as
``python -m dctpipe.cli`` in a subprocess, with OUT as the working
directory and the caller's environment (so ``PYTHONPATH`` picks the
checkout). Output files land under OUT/out; OUT/log.json records each
argv (paths relative to OUT), exit code, stdout and stderr.

Snapshot two checkouts into two directories and ``diff -r`` them: every
difference is a change in CLI behaviour.

    python tests/cli_snapshot.py --manifest

snapshots this checkout into a temporary directory and rewrites MANIFEST:
the sha256 of log.json and of every file under out/, with the numpy, BLAS,
Python, CPU model and numpy SIMD features they were taken with. The tier-1 snapshot test compares its own
run against MANIFEST, so a change that means to change CLI bytes
regenerates it in the same commit.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).with_name("cli_snapshot_manifest.json")

# (argv, expected to succeed); paths are relative to OUT
CASES = [
    ("ratio --block-size 8 --drop 46", True),
    ("bounds --input in/rgb --block-size 4 --out out/ecs4.json", True),
    ("bounds --input in/rgb --block-size 4 --threads 2 --out out/ecs4_t2.json", True),
    ("bounds --input in/rgb --block-size 2 --mode naive --max-samples 500 --out out/naive2.json", True),
    ("encode --input in/rgb/i00.ppm --block-size 4 --drop 8 --bounds out/ecs4.json --out out/a.dctk", True),
    ("encode --input in/rgb/i01.ppm --block-size 8 --eta 300 --out out/b.dctk", True),
    ("decode --input out/a.dctk --out out/a.ppm", True),
    ("decode --input out/b.dctk --out out/b.ppm", True),
    ("diffuse --input out/a.dctk --t 0.3 --seed 7 --out out/a_t.dctk", True),
    ("diffuse --input out/b.dctk --t 1 --c 4 --out out/b_t.dctk", True),
    ("weights --input in/rgb --block-size 4 --drop 4 --out out/w4.json", True),
    ("apsd --input in/rgb --block-size 4 --t-list 0,0.1,0.5 --out out/apsd_y.csv", True),
    ("apsd --input in/rgb --block-size 2 --t-list 0,0.5 --mode ve --channel cb --out out/apsd_cb.csv", True),
    ("apsd --input in/gray --block-size 2 --t-list 0,1 --mode ve --out out/apsd_gray.csv", True),
    ("upsample --method dct --block-size 4 --input in/rgb/i02.ppm --output out/up_dct.ppm", True),
    ("upsample --method bilinear --input in/gray/g0.pgm --output out/up_bil.pgm", True),
    ("fd --dir-a in/rgb --dir-b in/rgb2 --features pixels8", True),
    ("fd --dir-a in/rgb --dir-b in/rgb2 --features dctstats --block-size 4", True),
    ("scan-m --input in/scan --block-size 2 --gamma 1.0 --grid 0..3 --features dctstats --report out/curve_dct.csv", True),
    ("scan-m --input in/scan --block-size 2 --gamma 50 --grid 0,2 --features pixels8 --report out/curve_pix.csv", True),
    ("ratio --block-size 4 --drop 16", False),
    ("encode --input in/rgb/i00.ppm --block-size 4 --out out/no_eta.dctk", False),
    ("decode --input out/missing.dctk --out out/missing.ppm", False),
    ("upsample --method bilinear --block-size 0 --input in/gray/g0.pgm --output out/bs0.pgm", False),
    ("upsample --method dct --block-size 2 --input in/trailing.ppm --output out/trailing.ppm", False),
    ("scan-m --input in/rgb --block-size 2 --gamma 1.0 --grid 0..3 --features dctstats", False),
    ("scan-m --input in/scan --block-size 2 --gamma 1.0 --grid 0..4 --features dctstats", False),
    ("scan-m --input in/scan --block-size 2 --gamma 0 --grid 0..3 --features pixels8", False),
    ("fd --dir-a in/rgb --dir-b in/rgb2 --features dctstats", False),
    ("bounds --input in/rgb --block-size 0 --out out/bs0.json", False),
    ("weights --input in/rgb --block-size 0 --out out/w0.json", False),
    ("fd --dir-a in/rgb --dir-b in/rgb2 --features dctstats --block-size 0", False),
    ("apsd --input in/rgb --block-size 4 --t-list 0,nan --mode ve --out out/apsd_nan.csv", False),
    ("diffuse --input out/a.dctk --t nan --out out/nan.dctk", False),
    ("encode --input in/big.ppm --block-size 257 --drop 65536 --eta 1000 --out out/big.dctk", False),
    ("ratio --block-size -1 --drop 0", False),
    ("weights --input in/rgb --block-size 4 --drop 16 --out out/w16.json", False),
    ("weights --input in/rgb --block-size 4 --drop 99 --out out/w99.json", False),
    ("scan-m --input in/truncated --block-size 2 --gamma 0 --grid 0..3 --features pixels8", False),
    ("upsample --method nearest --input in/gray/g0.pgm --output out/nearest.pgm", False),
    ("encode --input in/rgb/i00.ppm --block-size 4 --eta 300", False),
    ("ratio --block-size x --drop 0", False),
    ("bounds --input in/truncated --block-size 2 --tau 100 --out out/tau100.json", False),
    ("bounds --input in/truncated --block-size 2 --mode naive --max-samples 0 --out out/ms0.json", False),
    ("weights --input in/truncated --block-size 2 --bins 10 --out out/bins10.json", False),
    ("apsd --input in/truncated --block-size 2 --t-list 0,2 --out out/apsd_t2.csv", False),
    ("apsd --input in/gray --block-size 2 --t-list 0 --channel cb --out out/apsd_gray_cb.csv", False),
    ("ratio --block-size 4 --drop 0 --threads 0", False),
    ("bounds --input in/truncated --block-size 0 --out out/bs0_trunc.json", False),
    ("apsd --input in/truncated --block-size 0 --t-list 0 --out out/apsd_bs0.csv", False),
    ("fd --dir-a in/truncated --dir-b in/truncated --features dctstats --block-size 0", False),
    ("apsd --input in/truncated --block-size 2 --t-list 0,,1 --out out/apsd_empty_t.csv", False),
    ("scan-m --input in/truncated --block-size 2 --gamma 1 --grid 0,,3 --features pixels8", False),
    ("bounds --input in/mixed --block-size 2 --out out/mixed.json", False),
    ("encode --input in/truncated/t.ppm --block-size 0 --eta 10 --out out/enc_bs0.dctk", False),
    ("encode --input in/truncated/t.ppm --block-size 2 --out out/enc_no_eta.dctk", False),
    ("upsample --method dct --block-size 0 --input in/truncated/t.ppm --output out/up_bs0.ppm", False),
    ("diffuse --input in/short.dctk --t 2 --out out/t2.dctk", False),
    ("diffuse --input in/short.dctk --t 0.5 --c -1 --out out/c_neg.dctk", False),
    ("diffuse --input out/a.dctk --t 0.5 --c inf --out out/c_inf.dctk", False),
    ("diffuse --input out/a.dctk --t 0.5 --a 1e308 --b 1e308 --out out/mean0.dctk", False),
    ("scan-m --input in/truncated --block-size 2 --gamma 1 --grid 0..100000 --features pixels8", False),
    ("diffuse --input out/a.dctk --t 1 --a 1.7e308 --b 1.7e308 --out out/y_inf.dctk", False),
    ("diffuse --input out/a.dctk --t 1e-300 --c 1e-300 --out out/yp_neg_inf.dctk", False),
    ("encode --input in/truncated/t.ppm --block-size 2 --eta -1 --out out/eta_neg.dctk", False),
    # a 24x40 image: h != w, so a transposed height and width cannot pass unseen
    ("encode --input in/rect.ppm --block-size 2 --eta 300 --out out/rect.dctk", True),
    ("decode --input out/rect.dctk --out out/rect.ppm", True),
    ("upsample --method dct --block-size 4 --input in/rect.ppm --output out/rect_up_dct.ppm", True),
    ("upsample --method bilinear --input in/rect.ppm --output out/rect_up_bil.ppm", True),
    ("apsd --input in/rgb --block-size 4 --t-list 1e-300 --c 1e-300 --mode ve --out out/ve_nan.csv", False),
    ("apsd --input in/rgb --block-size 4 --t-list 1 --a 1.7e308 --b 1.7e308 --mode ve --out out/ve_inf.csv", False),
    ("decode --input in/overflow.dctk --out out/overflow.ppm", False),
    ("encode --input in/rgb/i00.ppm --block-size 4 --eta 1e-320 --out out/eta_tiny.dctk", False),
    ("fd --dir-a in/rgb --dir-b in/rgb2 --features pixels8 --block-size 0", False),
    ("encode --input in/rgb/i00.ppm --block-size 4 --bounds out/ecs4.json --eta 300 --out out/both.dctk", False),
    ("diffuse --input in/short.dctk --t 0.5 --a -1 --out out/a_neg.dctk", False),
    # a 208x144 image: decode and upsample convert it in several row strips, short last ones
    ("encode --input in/tall.ppm --block-size 8 --eta 300 --out out/tall.dctk", True),
    ("decode --input out/tall.dctk --out out/tall.ppm", True),
    ("upsample --method dct --block-size 4 --input in/tall.ppm --output out/tall_up_dct.ppm", True),
    # every --grid error names the flag, and the grid is checked before the input is looked at
    ("scan-m --input in/scan --block-size 2 --gamma 1.0 --grid 0,99 --features pixels8", False),
    ("scan-m --input in/scan --block-size 2 --gamma 1.0 --grid 5,3 --features pixels8", False),
    ("scan-m --input in/scan --block-size 2 --gamma 1.0 --grid 3..1 --features pixels8", False),
    ("scan-m --input in/missing --block-size 2 --gamma 1.0 --grid 0..99 --features pixels8", False),
    # P6 images of four sizes, one behind a 5000-byte header comment: rows land per image size
    ("bounds --input in/sizes --block-size 4 --out out/sizes_ecs.json", True),
    ("bounds --input in/sizes --block-size 2 --mode naive --max-samples 300 --threads 2 --out out/sizes_naive.json", True),
    ("weights --input in/sizes --block-size 2 --drop 1 --threads 2 --out out/sizes_w.json", True),
    ("apsd --input in/sizes --block-size 4 --t-list 0,0.3 --out out/sizes_apsd.csv", True),
    ("apsd --input in/sizes --block-size 2 --t-list 0.7 --mode ve --channel cr --threads 2 --out out/sizes_apsd_cr.csv", True),
    ("bounds --input in/sizes --block-size 2 --max-samples 300 --out out/sizes_ecs_capped.json", True),
    # a malformed input file is named in front of the reader's message
    ("decode --input in/short.dctk --out out/short.ppm", False),
    ("diffuse --input in/short.dctk --t 0.5 --out out/short_t.dctk", False),
    ("encode --input in/rgb/i00.ppm --block-size 4 --bounds in/trailing.ppm --out out/bad_bounds.dctk", False),
]


def _pnm(path: Path, pixels: np.ndarray, comment: bytes = b"") -> None:
    magic = b"P6" if pixels.ndim == 3 else b"P5"
    h, w = pixels.shape[:2]
    head = magic + (b"\n#" + comment if comment else b"") + f"\n{w} {h}\n255\n".encode()
    path.write_bytes(head + pixels.astype(np.uint8).tobytes())


def _smooth_rgb(rng: np.random.Generator, size: int) -> np.ndarray:
    # a random gradient per channel plus mild noise, so every DCT rank carries energy
    ramp = np.linspace(0.0, 1.0, size)
    offset = rng.uniform(40, 200, 3)
    base = offset + rng.uniform(-40, 40, 3) * (ramp[:, None, None] + ramp[None, :, None])
    return np.clip(np.rint(base + rng.normal(0, 12, (size, size, 3))), 0, 255)


def build_inputs(root: Path, seed: int = 0) -> None:
    """Seeded PNM inputs for CASES, numpy only."""
    rng = np.random.default_rng(seed)
    for name, count, size in (("rgb", 16, 64), ("rgb2", 16, 64), ("scan", 500, 16)):
        (root / name).mkdir(parents=True)
        for i in range(count):
            _pnm(root / name / f"i{i:02d}.ppm", _smooth_rgb(rng, size))
    (root / "gray").mkdir()
    for i in range(4):
        _pnm(root / "gray" / f"g{i}.pgm", rng.integers(0, 256, (32, 32)))
    _pnm(root / "big.ppm", np.full((514, 514, 3), 90))
    (root / "trailing.ppm").write_bytes(b"P6\n2 2\n255\n" + bytes(12) + b"EXTRA")
    (root / "truncated").mkdir()
    (root / "truncated" / "t.ppm").write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    (root / "short.dctk").write_bytes(b"DCTK" + bytes(6))
    # a valid 8x8 DCTK at B=2 whose tokens times eta overflow float64
    header = struct.pack("<HIIHHdQ", 1, 8, 8, 2, 0, 1e300, 4)
    (root / "overflow.dctk").write_bytes(b"DCTK" + header + np.full(96, 1e10, "<f8").tobytes())
    (root / "mixed").mkdir()
    (root / "mixed" / "a.ppm").write_bytes((root / "rgb" / "i00.ppm").read_bytes())
    (root / "mixed" / "b.ppm").write_bytes((root / "truncated" / "t.ppm").read_bytes())
    _pnm(root / "rect.ppm", _smooth_rgb(rng, 40)[:24])
    _pnm(root / "tall.ppm", _smooth_rgb(rng, 208)[:, :144])
    (root / "sizes").mkdir()  # the last draws, so earlier inputs stay put
    for i, (h, w) in enumerate(((128, 96), (64, 64), (48, 80), (32, 96))):
        comment = b" long comment " * 360 if i == 1 else b""
        _pnm(root / "sizes" / f"s{i}.ppm", _smooth_rgb(rng, 128)[:h, :w], comment)


def snapshot(out: Path) -> list[dict]:
    """Build inputs under ``out``, run every case, write ``out/log.json``, return the log."""
    out = Path(out)
    build_inputs(out / "in")
    (out / "out").mkdir()
    env = dict(os.environ)
    # the cases run inside OUT, so a relative PYTHONPATH is resolved here first
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep)
        )
    log = []
    for argv, _ in CASES:
        args = argv.split()
        proc = subprocess.run(
            [sys.executable, "-m", "dctpipe.cli", *args],
            cwd=out, env=env, capture_output=True, text=True,
        )
        log.append(
            {"argv": args, "exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        )
    (out / "log.json").write_text(json.dumps(log, indent=1) + "\n")
    return log


def _cpu_model() -> str:
    """The CPU's model name from /proc/cpuinfo where there is one, else what platform reports."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """What the recorded bytes may depend on besides the code: numpy, its BLAS, Python, and
    the CPU, whose features pick numpy's SIMD loops and OpenBLAS's kernels at run time."""
    config = np.show_config(mode="dicts")
    blas, simd = config["Build Dependencies"]["blas"], config["SIMD Extensions"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "simd": simd["baseline"] + simd["found"],
    }


def digests(out: Path) -> dict[str, str]:
    """sha256 of ``out/log.json`` and of every file under ``out/out``, keyed by relative path."""
    out = Path(out)
    files = [out / "log.json", *sorted(p for p in (out / "out").rglob("*") if p.is_file())]
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def manifest_problems(out: Path) -> list[str]:
    """One line per file whose bytes differ from MANIFEST, plus one if the environment does."""
    doc, have = json.loads(MANIFEST.read_text()), digests(out)
    want = doc["files"]
    problems = [f"changed {n}" for n in sorted(want) if n in have and have[n] != want[n]]
    problems += [f"missing {n}" for n in sorted(set(want) - set(have))]
    problems += [f"new {n}" for n in sorted(set(have) - set(want))]
    if problems and environment() != doc["environment"]:
        problems.append(f"recorded with {doc['environment']}, run with {environment()}")
    return problems


def write_manifest() -> None:
    """Snapshot this checkout in a temporary directory and record its digests in MANIFEST."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as tmp:
        snapshot(Path(tmp))
        doc = {"environment": environment(), "files": digests(Path(tmp))}
    MANIFEST.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--manifest"]:
        write_manifest()
    elif len(sys.argv) == 2:
        snapshot(Path(sys.argv[1]))
    else:
        sys.exit("usage: cli_snapshot.py OUT | cli_snapshot.py --manifest")
