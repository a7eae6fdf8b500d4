"""Outside-in tracing of dctpipe's layers.

The package has no tracing of its own, so the traced run replaces each
layer function with a wrapper that records a span. Modules bind names
with ``from .x import y``, so a wrapper has to replace every binding a
caller looks up: ``install`` rebinds the function in each dctpipe module
that holds it, except where a binding is internal to a layer (for
example ``colorspace.subsample_rgb`` calling ``rgb_to_ycbcr``), which
would split one layer's time in two.

Spans sit on a per-thread stack. A span opened on a worker thread of
``cli._pmap`` has an empty stack there, so it takes the enclosing command
span as its parent. Self time is a span's duration minus the union of
its children's intervals, which also holds when children overlap on
several threads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np


def _nbytes_file(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _pixels_in(args, kwargs, result):
    pixels = getattr(args[0], "pixels", args[0])
    return {"pixels": int(np.prod(np.shape(pixels)[:2]))}


def _pixels_out(args, kwargs, result):
    return {"pixels": int(np.prod(result.pixels.shape[:2]))}


def _blocks(args, kwargs, result):
    shape = np.shape(args[0])
    n, b = int(np.prod(shape[:-2])), shape[-1]
    return {"blocks": n, "flop": 4 * n * b**3}


def _tokens_out(args, kwargs, result):
    return {"tokens": result.tokens.shape[0]}


def _tokens_in(args, kwargs, result):
    return {"tokens": args[0].tokens.shape[0]}


def _reservoir(args, kwargs, result):
    return {"samples_in": int(np.size(args[0])), "samples_kept": int(np.size(result))}


def _normals(args, kwargs, result):
    return {"normals": int(np.size(result))}


def _uniforms(args, kwargs, result):
    return {"uniforms": int(np.size(result))}


def _one(args, kwargs, result):
    return {"calls": 1}


def _collected(args, kwargs, result):
    return {"bytes": sum(m.nbytes for m in result)}


# (defining module, function, span name, counter, modules whose binding is
# wrapped (None: every dctpipe module holding the function), span or count only)
TARGETS = [
    ("image_io", "read_image", "image_io.read", _nbytes_file, None, True),
    ("image_io", "write_image", "image_io.write", _nbytes_file, None, True),
    ("colorspace", "subsample_rgb", "colorspace.subsample", _pixels_in, None, True),
    ("colorspace", "assemble_rgb", "colorspace.assemble", _pixels_out, None, True),
    ("colorspace", "rgb_to_ycbcr", "colorspace.convert", _pixels_in, ("fd_metric", "upsample"), True),
    ("colorspace", "ycbcr_to_rgb", "colorspace.convert", _pixels_out, ("fd_metric", "upsample"), True),
    ("block_dct", "dct2", "block_dct.dct2", _blocks, None, True),
    ("block_dct", "idct2", "block_dct.idct2", _blocks, None, True),
    ("tokenizer", "tokenize", "tokenizer.tokenize", _tokens_out, None, True),
    ("tokenizer", "detokenize", "tokenizer.detokenize", _tokens_in, None, True),
    ("tokenizer", "dct_coefficient_matrices", "tokenizer.coeff_matrices", None, None, True),
    ("tokenizer", "read_dctk", "tokenizer.dctk_read", None, None, True),
    ("tokenizer", "write_dctk", "tokenizer.dctk_write", None, None, True),
    ("scaling", "reservoir_sample", "scaling.reservoir", _reservoir, None, True),
    ("scaling", "estimate_ecs_bound", "scaling.percentile", None, None, True),
    ("scaling", "estimate_naive_bounds", "scaling.percentile", None, None, True),
    ("diffuse", "counter_uniforms", "diffuse.uniforms", _uniforms, ("scaling",), True),
    ("diffuse", "counter_normals", "diffuse.normals", _normals, None, True),
    ("diffuse", "perturb", "diffuse.perturb", None, None, True),
    ("freq_stats", "entropy_weights", "freq_stats.entropy", None, None, True),
    ("freq_stats", "_hist_entropy", "freq_stats.histogram", _one, None, False),
    ("freq_stats", "apsd", "freq_stats.apsd", None, None, True),
    ("fd_metric", "extract_dct_stat_features", "fd_metric.features", None, None, True),
    ("fd_metric", "extract_pixel_features", "fd_metric.features", None, None, True),
    ("fd_metric", "reconstruct_rgb", "fd_metric.reconstruct", _one, None, True),
    ("fd_metric", "gaussian_stats", "fd_metric.stats", None, None, True),
    ("fd_metric", "frechet_distance", "fd_metric.frechet", None, None, True),
    ("fd_metric", "scan_mstar", "fd_metric.scan", None, None, True),
    ("upsample", "dct_upsample", "upsample.dct_upsample", _one, None, True),
    ("cli", "_collect_samples", "cli.collect", _collected, None, False),
] + [
    ("schedule", name, "schedule.call", _one, None, False)
    for name in (
        "y_integral", "y_scaled", "snr", "beta_prime", "lambda_of_t", "t_of_lambda",
        "snr_factor_for_resolution", "discrete_schedule",
    )
]

MODULES = (
    "image_io", "colorspace", "block_dct", "tokenizer", "scaling", "schedule",
    "diffuse", "freq_stats", "fd_metric", "upsample", "cli",
)


class Tracer:
    """In-memory span recorder; ``install`` patches dctpipe, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []  # (id, parent, name, thread, start_ns, end_ns, counts)
        self.pmap = []  # (summed item ns, threads, wall ns)
        self.missing = []  # targets this version of dctpipe does not define
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._command = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, counter, is_span):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else self._command
            sid = next(ids)
            if is_span:
                stack.append(sid)
            start = time.perf_counter_ns()
            result = failed = None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter_ns() if is_span else start
                if is_span:
                    stack.pop()
                counts = None
                if counter and not failed:
                    try:
                        counts = counter(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, OSError, TypeError):
                        pass  # a changed signature shows as a failed count check
                spans.append((sid, parent, name, threading.get_ident(), start, end, counts))
            return result

        return wrapper

    def _pmap_wrapper(self, orig):
        def pmap(fn, items, threads):
            items = list(items)
            busy = []

            def timed(item):
                t = time.perf_counter_ns()
                try:
                    return fn(item)
                finally:
                    busy.append(time.perf_counter_ns() - t)

            t0 = time.perf_counter_ns()
            out = orig(timed, items, threads)
            wall = time.perf_counter_ns() - t0
            used = 1 if threads == 1 or len(items) <= 1 else min(threads, len(items))
            self.pmap.append((sum(busy), used, wall))
            return out

        return pmap

    def _patch(self, module, attr, new):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self):
        mods = {m: importlib.import_module(f"dctpipe.{m}") for m in MODULES}
        for home, fname, name, counter, where, is_span in TARGETS:
            fn = getattr(mods[home], fname, None)
            if fn is None:
                self.missing.append(f"{home}.{fname}")
                continue
            wrapper = self._wrap(fn, name, counter, is_span)
            for mname in where or MODULES:
                if getattr(mods[mname], fname, None) is fn:
                    self._patch(mods[mname], fname, wrapper)
        if hasattr(mods["cli"], "_pmap"):
            self._patch(mods["cli"], "_pmap", self._pmap_wrapper(mods["cli"]._pmap))
        else:
            self.missing.append("cli._pmap")

    def uninstall(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def command(self, fn, *args):
        """Run one CLI command under a root span that worker-thread spans attach to."""
        sid = next(self._ids)
        self._command = sid
        self._stack().append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._stack().pop()
            self._command = None
            self.spans.append((sid, None, "cli.command", threading.get_ident(), start, end, None))

    def clear(self):
        self.spans.clear()
        self.pmap.clear()

    def dump(self, path):
        with open(path, "w") as f:
            for sid, parent, name, thread, start, end, counts in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name, "thread": thread,
                                    "start_ns": start, "end_ns": end, "counts": counts}) + "\n")


def _covered(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + (cur_e - cur_s if cur_e is not None else 0)


def summarize(spans) -> tuple[dict, dict]:
    """Self nanoseconds and summed counts per span name."""
    children = defaultdict(list)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None and end > start:
            children[parent].append((start, end))
    self_ns, counts = defaultdict(int), defaultdict(int)
    for sid, _, name, _, start, end, c in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
        self_ns[name] += (end - start) - _covered(kids)
        for k, v in (c or {}).items():
            counts[f"{name}.{k}"] += v
    return dict(self_ns), dict(counts)
