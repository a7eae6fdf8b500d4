"""Every invocation of the CLI snapshot keeps the exit contract."""

from pathlib import Path

import cli_snapshot

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = {
    "encode", "decode", "ratio", "bounds", "weights", "scan-m", "diffuse", "apsd", "upsample", "fd",
}


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
