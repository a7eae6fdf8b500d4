"""Smoke tests: each experiment script runs end to end on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args,expected",
    [
        ("compression_scan_demo.py", ["--images", "500", "--size", "16"],
         "dataset zeroed the top 6 of 16 zigzag slots"),
        ("spectral_autoregression.py", ["--blocks", "2000"],
         "power-law fit of the clean spectrum: K="),
        ("upsampling_psnr.py", ["--images", "5"], "images: 5, size 64x64, B=4"),
        ("discrete_schedule_table.py", [], "max |snr'/snr - c| / c over all steps:"),
    ],
)
def test_script_runs(script, args, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith(expected) for line in proc.stdout.splitlines()), proc.stdout
