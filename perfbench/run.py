#!/usr/bin/env python3
"""dctpipe benchmark: seeded corpora driven through the ``dctpipe`` CLI.

Run from the root of a source checkout (it imports ``src/dctpipe``):

    python3 perfbench/run.py --workload codec_files --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

Per workload it writes a seeded corpus under ``.perfbench/``, then starts
fresh worker processes with BLAS pinned to one thread: several that time
import plus one cold command (``setup_s``), then one that runs the
workload's commands in a closed loop with one client for ``--seconds``
and checks every output. With ``--trace 1`` the worker alternates an
untraced and a traced pass over the corpus instead and reports per-layer
self times and counts (see ``tracer.py``); the spans of the last traced
pass are kept in ``.perfbench/trace-<workload>-seed<n>.jsonl``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or per-layer ones with
``--trace 1``). The lines before it give the environment and, per
workload, each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 9
RUN_DEADLINE_S = 170  # every worker of one workload is killed by then
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One malloc arena: with one per thread, what glibc keeps of freed arrays
# depends on thread timing. On a 2-CPU Xeon host the 2-thread corpus_stats
# peak RSS wandered between 720 and 840 MB from run to run; with one arena
# it stays at 700-705 MB.
MALLOC_PINS = {"MALLOC_ARENA_MAX": "1"}

# Per-layer metrics of the traced run, from the spans and counts named in
# tracer.TARGETS.
SELF_TIMES = {
    "image_io.read_ms": "image_io.read", "image_io.write_ms": "image_io.write",
    "colorspace.subsample_ms": "colorspace.subsample",
    "colorspace.assemble_ms": "colorspace.assemble",
    "colorspace.convert_ms": "colorspace.convert",
    "block_dct.dct2_ms": "block_dct.dct2", "block_dct.idct2_ms": "block_dct.idct2",
    "tokenizer.tokenize_ms": "tokenizer.tokenize",
    "tokenizer.detokenize_ms": "tokenizer.detokenize",
    "tokenizer.coeff_matrices_ms": "tokenizer.coeff_matrices",
    "tokenizer.dctk_read_ms": "tokenizer.dctk_read",
    "tokenizer.dctk_write_ms": "tokenizer.dctk_write",
    "scaling.reservoir_ms": "scaling.reservoir", "scaling.percentile_ms": "scaling.percentile",
    "diffuse.normals_ms": "diffuse.normals", "diffuse.uniforms_ms": "diffuse.uniforms",
    "diffuse.perturb_ms": "diffuse.perturb",
    "freq_stats.entropy_ms": "freq_stats.entropy", "freq_stats.apsd_ms": "freq_stats.apsd",
    "fd_metric.features_ms": "fd_metric.features",
    "fd_metric.reconstruct_ms": "fd_metric.reconstruct",
    "fd_metric.stats_ms": "fd_metric.stats", "fd_metric.frechet_ms": "fd_metric.frechet",
    "fd_metric.scan_ms": "fd_metric.scan",
    "upsample.dct_upsample_ms": "upsample.dct_upsample",
    "cli.self_ms": "cli.command",
}
COUNTS = {
    "image_io.bytes_read": ("image_io.read.bytes",),
    "image_io.bytes_written": ("image_io.write.bytes",),
    "colorspace.pixels": (
        "colorspace.subsample.pixels", "colorspace.assemble.pixels", "colorspace.convert.pixels",
    ),
    "block_dct.blocks": ("block_dct.dct2.blocks", "block_dct.idct2.blocks"),
    "tokenizer.tokens": ("tokenizer.tokenize.tokens", "tokenizer.detokenize.tokens"),
    "scaling.samples_in": ("scaling.reservoir.samples_in",),
    "scaling.samples_kept": ("scaling.reservoir.samples_kept",),
    "schedule.calls": ("schedule.call.calls",),
    "diffuse.normals": ("diffuse.normals.normals",),
    "freq_stats.histograms": ("freq_stats.histogram.calls",),
    "fd_metric.reconstruct_calls": ("fd_metric.reconstruct.calls",),
    "upsample.planes": ("upsample.dct_upsample.calls",),
    "cli.collect_bytes": ("cli.collect.bytes",),
}
# Per-command wall times of the untraced passes: metric -> (command, percentile, scale).
COMMAND_TIMES = {
    **{f"cli.{kind}_p{q}_ms": (kind, q, 1e3)
       for kind in ("encode", "diffuse", "decode", "upsample") for q in (50, 90)},
    **{f"cli.{kind}_s": (kind, 50, 1.0)
       for kind in ("bounds", "bounds_naive", "weights", "apsd", "scan_m")},
}


def environment() -> dict:
    """Machine and library facts that the figures depend on."""
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_threads": {pin: "1" for pin in BLAS_PINS},
        "malloc": MALLOC_PINS,
        "threads": {name: wl.threads for name, wl in WORKLOADS.items()},
    }
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        env["cpu"] = next(
            (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
             if line.startswith("model name")), None,
        )
    except OSError:
        env["cpu"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    env["caches"] = caches
    return env


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("DCTK_THREADS", None)
    env.update({pin: "1" for pin in BLAS_PINS})
    env.update(MALLOC_PINS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(mode: str, spec: dict, env: dict, deadline: float, tag: str = "") -> dict:
    """Run one worker process to completion (killed at the deadline) and load its result."""
    work = Path(spec["work"])
    spec_path = work / f"spec-{mode}-{tag}.json"
    spec_path.write_text(json.dumps({**spec, "tag": tag}))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(spec_path)],
        env=env, stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads((work / f"result-{mode}-{tag}.json").read_text())


def _q(values, pct) -> float:
    return float(np.percentile(values, pct))


def pass_metrics(self_ns: dict, counts: dict, pmap: list) -> dict:
    """Per-layer metrics of one traced pass."""
    m = {metric: self_ns.get(span, 0) / 1e6 for metric, span in SELF_TIMES.items()}
    m.update({metric: sum(counts.get(k, 0) for k in keys) for metric, keys in COUNTS.items()})
    flop = counts.get("block_dct.dct2.flop", 0) + counts.get("block_dct.idct2.flop", 0)
    dct_s = (m["block_dct.dct2_ms"] + m["block_dct.idct2_ms"]) / 1e3
    m["block_dct.gflop"] = flop / 1e9
    m["block_dct.gflop_per_s"] = m["block_dct.gflop"] / dct_s if dct_s else 0.0
    normals = m["diffuse.normals"]
    m["diffuse.ns_per_normal"] = m["diffuse.normals_ms"] * 1e6 / normals if normals else 0.0
    capacity = sum(threads * wall for _, threads, wall in pmap)
    m["cli.pmap_efficiency"] = sum(busy for busy, _, _ in pmap) / capacity if capacity else 0.0
    return m


def trace_metrics(wl, spec: dict, env: dict, deadline: float):
    """Per-layer metrics (means over the traced passes), their sample counts,
    the worker result and run-level errors (the exact count checks)."""
    res = run_child("trace", spec, env, deadline)
    per_pass = [pass_metrics(*p) for p in res["passes"]]
    metrics = {k: statistics.fmean(p[k] for p in per_pass) for k in per_pass[0]}
    samples = dict.fromkeys(metrics, len(per_pass))
    errors = [
        f"count {key} differs between traced passes"
        for key in COUNTS if len({p[key] for p in per_pass}) != 1
    ]
    for key, want in wl.expected().items():
        if per_pass[0][key] != want:
            errors.append(f"count {key} is {per_pass[0][key]}, geometry predicts {want}")
    for metric, (kind, q, scale) in COMMAND_TIMES.items():
        times = res["op_s"].get(kind, [])
        metrics[metric] = _q(times, q) * scale if times else 0.0
        samples[metric] = len(times)
    metrics["trace.overhead_pct"] = (sum(res["traced_s"]) / sum(res["plain_s"]) - 1.0) * 100.0
    samples["trace.overhead_pct"] = len(res["traced_s"])

    layers = {}
    for span, ns in res["passes"][-1][0].items():
        layer = span.split(".")[0]
        layers[layer] = layers.get(layer, 0) + ns
    total = sum(layers.values())
    top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
    print("  top self-time layers: " + ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in top))
    if res["missing"]:
        print(f"  not traced (absent in this dctpipe): {', '.join(res['missing'])}")
    return metrics, samples, res, errors


def measure_metrics(wl, spec: dict, env: dict, deadline: float):
    """End-to-end metrics, their sample counts, the worker result and run-level errors."""
    setups = []
    for i in range(SETUP_RUNS):
        argv = list(wl.setup(Path(spec["work"]), f"s{i}").argv)
        setups.append(run_child("setup", {**spec, "setup_argv": argv}, env, deadline, f"s{i}"))
    res = run_child("measure", spec, env, deadline)
    cold_errors = [f"cold {wl.name} command: {s['error']}" for s in setups if s["error"]]
    res["attempted"] += SETUP_RUNS
    res["failed"] += len(cold_errors)
    res["errors"] += cold_errors
    errors = []
    if any(s["digest"] != res["warm_digest"] for s in setups):
        errors.append("the cold command's output differs between processes")
    for kind, times in res["op_s"].items():
        print(f"  {kind:<13} p50 {_q(times, 50) * 1e3:10.2f} ms  "
              f"p90 {_q(times, 90) * 1e3:10.2f} ms  ({len(times)} samples)")
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "images_per_s": wl.images_per_unit / statistics.median(res["unit_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    samples = {"setup_s": SETUP_RUNS, "images_per_s": len(res["unit_s"]), "peak_rss_mb": 1}
    return metrics, samples, res, errors


def run_workload(name: str, root: Path, seed: int, seconds: int, trace: bool, units: dict):
    wl = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = root / ".perfbench"
    work = base / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        oracle = wl.build(np.random.default_rng([seed, zlib.crc32(name.encode())]), work)
        print(f"workload {name}: seed {seed}, --threads {wl.threads}, corpus of {wl.images} "
              f"{wl.size}x{wl.size} images built in {time.perf_counter() - t0:.1f} s", flush=True)
        spec = {"workload": name, "work": str(work), "seconds": seconds, "oracle": oracle,
                "trace_out": str(base / f"trace-{name}-seed{seed}.jsonl")}
        collect = trace_metrics if trace else measure_metrics
        metrics, samples, res, errors = collect(wl, spec, child_env(root), deadline)
        # Run-level checks (cross-process digests, exact counts) count as one item.
        attempted = res["attempted"] + 1
        failed = res["failed"] + (1 if errors else 0)
        for kind, out in res["printed"].items():
            print(f"  {kind} printed: {out.strip()}")
        for err in res["errors"] + errors:
            print(f"  FAILED {err}")
        for key, value in metrics.items():
            print(f"  {key:<28} {value:16.8g} {units[key]:<8} ({samples[key]} samples)")
        print(f"  failed_ratio {failed / attempted:.4g} ({failed} of {attempted})", flush=True)
        return metrics, attempted, failed
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dctpipe" / "cli.py").is_file():
        print(f"perfbench: no dctpipe source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    print("env " + json.dumps(environment()), flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, root, args.seed, args.seconds, bool(args.trace), units)
        if m.keys() != units.keys():
            raise RuntimeError(f"metrics {sorted(m.keys() ^ units.keys())} disagree with BENCHMARK.json")
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
