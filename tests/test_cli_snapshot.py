"""Every invocation of the CLI snapshot keeps the exit contract."""

from pathlib import Path

import cli_snapshot

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = {
    "encode", "decode", "ratio", "bounds", "weights", "scan-m", "diffuse", "apsd", "upsample", "fd",
}
# valid cases whose bytes run through BLAS matmuls: both RGB apsd runs, naive bounds,
# weights, dctstats fd and scan-m, the B=8, 24x40 and 208x144 codec round trips and
# DCT upsampling
BLAS_CASES = (
    "out/apsd_y.csv", "out/apsd_cb.csv", "out/naive2.json", "out/w4.json",
    "--features dctstats --block-size 4", "out/curve_dct.csv", "--out out/b.dctk",
    "--out out/b.ppm", "out/up_dct.ppm", "--out out/rect.dctk", "--out out/rect.ppm",
    "out/rect_up_dct.ppm", "--out out/tall.dctk", "--out out/tall.ppm", "out/tall_up_dct.ppm",
)


def test_snapshot_exits_0_or_2_with_one_stderr_line(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    log = cli_snapshot.snapshot(tmp_path)
    assert (tmp_path / "log.json").exists()
    assert {entry["argv"][0] for entry in log} == COMMANDS
    for entry, (_, ok) in zip(log, cli_snapshot.CASES, strict=True):
        assert entry["exit"] == (0 if ok else 2), entry
        assert "Traceback" not in entry["stderr"], entry
        if not ok:
            assert len(entry["stderr"].splitlines()) == 1, entry
    # the same run's bytes against the committed digests
    problems = cli_snapshot.manifest_problems(tmp_path)
    assert not problems, (
        f"snapshot bytes differ from {cli_snapshot.MANIFEST.name}: " + "; ".join(problems)
        + " (if the change is meant, regenerate with `python tests/cli_snapshot.py --manifest`)"
    )


def test_bytes_do_not_depend_on_blas_or_worker_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    subset = [(argv, ok) for argv, ok in cli_snapshot.CASES if any(k in argv for k in BLAS_CASES)]
    assert len(subset) == len(BLAS_CASES) and all(ok for _, ok in subset)
    runs = []
    for threads in (1, 2):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(threads))
        monkeypatch.setattr(
            cli_snapshot, "CASES", [(f"{argv} --threads {threads}", ok) for argv, ok in subset]
        )
        out = tmp_path / f"blas{threads}"
        log = cli_snapshot.snapshot(out)
        assert all(entry["exit"] == 0 for entry in log), log
        files = {p.name: p.read_bytes() for p in sorted((out / "out").iterdir())}
        assert len(files) == 14
        runs.append(([(e["stdout"], e["stderr"]) for e in log], files))
    assert runs[0] == runs[1]
