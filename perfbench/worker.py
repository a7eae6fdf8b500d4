"""One benchmark process: ``worker.py {setup|measure|trace} SPEC_JSON``.

``run.py`` starts a fresh worker per measurement so that import time and
peak RSS belong to one workload. The spec names the workload, its work
directory (corpus already written), the time budget and, for ``setup``,
the cold command's argv. The result goes to ``<work>/result-<mode>-<tag>.json``.

Only the standard library is imported before the ``setup`` clock starts,
so ``setup_s`` includes importing numpy through dctpipe.
"""

import io
import json
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def run_op(main, argv):
    """Run one CLI command in process; return (seconds, stdout, error or None)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = main(list(argv))
            err = None if rc == 0 else f"exit code {rc}"
        except Exception as exc:  # a traceback is a failed op, not a crashed benchmark
            err = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, buf.getvalue(), err


def setup(spec):
    start = time.perf_counter()
    from dctpipe.cli import main

    _, out, err = run_op(main, spec["setup_argv"])
    setup_s = time.perf_counter() - start

    import workloads

    op = workloads.WORKLOADS[spec["workload"]].setup(Path(spec["work"]), spec["tag"])
    err = err or op.check(out)
    return {"setup_s": setup_s, "error": err, "digest": _digest(op, out)}


def _digest(op, out):
    import workloads

    return [workloads.digest(p) if p.exists() else None for p in op.outputs] + [out]


class Loop:
    """Runs units of ops, checks each output and compares digests across passes."""

    def __init__(self, spec):
        import workloads
        from dctpipe.cli import main

        self.main = main
        self.wl = workloads.WORKLOADS[spec["workload"]]
        work = Path(spec["work"])
        self.units = self.wl.units(work, spec["oracle"])
        self.seen = {}
        self.printed = {}  # last non-empty stdout per command kind
        self.attempted = self.failed = 0
        self.errors = []
        warm = self.wl.setup(work, "warm")
        _, out, err = run_op(main, warm.argv)  # lazy set-up is setup_s, not throughput
        self.warm_digest = _digest(warm, out)
        self._record(err or warm.check(out), warm)

    def _record(self, err, op):
        self.attempted += 1
        if err:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.kind}: {err}")

    def unit(self, k, times):
        """Run unit k (mod the corpus); append each op's seconds to times[kind]."""
        total = 0.0
        index = k % len(self.units)
        for j, op in enumerate(self.units[index]):
            elapsed, out, err = run_op(self.main, op.argv)
            total += elapsed
            times.setdefault(op.kind, []).append(elapsed)
            if out:
                self.printed[op.kind] = out
            if err is None:
                try:
                    err = op.check(out)
                    digest = _digest(op, out)
                    if self.seen.setdefault((index, j), digest) != digest:
                        err = "output differs from an earlier pass"
                except (OSError, ValueError, KeyError) as exc:
                    err = f"unreadable output: {type(exc).__name__}: {exc}"
            self._record(err, op)
        return total

    def result(self):
        import resource

        return {
            "attempted": self.attempted, "failed": self.failed, "errors": self.errors,
            "warm_digest": self.warm_digest, "printed": self.printed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def measure(spec):
    loop = Loop(spec)
    times, unit_s, k = {}, [], 0
    start = time.perf_counter()
    while True:
        unit_s.append(loop.unit(k, times))
        k += 1
        if time.perf_counter() - start + statistics.median(unit_s) > spec["seconds"]:
            break
    return {**loop.result(), "unit_s": unit_s, "op_s": times}


def trace(spec):
    import tracer

    loop = Loop(spec)
    tr = tracer.Tracer()
    plain_times, plain_s, traced_s, passes = {}, [], [], []
    n = len(loop.units)
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain_s.append(sum(loop.unit(k, plain_times) for k in range(n)))
        tr.install()
        main = loop.main
        loop.main = lambda argv, _m=main: tr.command(_m, argv)
        try:
            traced_s.append(sum(loop.unit(k, {}) for k in range(n)))
        finally:
            loop.main = main
            tr.uninstall()
        passes.append((*tracer.summarize(tr.spans), list(tr.pmap)))
        pair = time.perf_counter() - pair_start
        if time.perf_counter() - start + pair > spec["seconds"]:
            break
        tr.clear()
    tr.dump(spec["trace_out"])
    return {
        **loop.result(), "op_s": plain_times, "plain_s": plain_s, "traced_s": traced_s,
        "passes": passes, "missing": tr.missing,
    }


if __name__ == "__main__":
    mode, spec_path = sys.argv[1], Path(sys.argv[2])
    spec = json.loads(spec_path.read_text())
    result = {"setup": setup, "measure": measure, "trace": trace}[mode](spec)
    (Path(spec["work"]) / f"result-{mode}-{spec.get('tag', '')}.json").write_text(json.dumps(result))
