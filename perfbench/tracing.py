"""Span recorder and counters for the traced benchmark run.

A span carries a name, start, end, parent span and pass id.  Spans are
kept in memory and written out when the run ends.  The benchmark opens
spans around the calls it makes itself; to see below those calls,
``instrument`` installs wrappers around the public functions that one
spintomo module calls in another (for example ``spintomo.cli.stio
.parse_measurements`` or ``spintomo.angular.legendre_sph_table``, which
``rot_elements_axis`` calls).  The wrappers exist only inside the
``instrument`` block; untraced passes run the unmodified program.
"""

import functools
import importlib
import json
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullRecorder:
    """Recorder used with tracing off: spans and counts cost nothing."""

    pass_id = None

    def span(self, name):
        return nullcontext()

    def count(self, name, value=1):
        pass


class Recorder:
    """In-memory span list plus per-pass counters."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, pass id]
        self.counts = defaultdict(lambda: defaultdict(float))
        self.pass_id = None
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name, value=1):
        self.counts[self.pass_id][name] += value

    def in_span(self, prefix):
        return any(self.spans[i][0].startswith(prefix) for i in self._stack)

    def layer_times(self, pass_id):
        """Per span name: (inclusive seconds, self seconds, top-level seconds).

        Self time is a span's duration minus the time its child spans
        cover; spans on one thread nest, so children never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent is not None:
                child_time[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        top = 0.0
        for i, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            total[name] += end - start
            own[name] += end - start - child_time[i]
            if parent is None:
                top += end - start
        return total, own, top

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [{"name": n, "start": s, "end": e, "parent": p, "pass": pid}
                          for n, s, e, p, pid in self.spans],
                "counts": {str(pid): dict(c) for pid, c in self.counts.items()},
            }, fh)


def _round_key(x):
    return round(float(x), 12)


def _after_fbp(rec, args, out):
    records = args[0]
    rec.count("reconstruct.records", len(records))
    rec.count("reconstruct.groups", len({
        (_round_key(r.theta), _round_key(r.phi), r.two_j, r.two_m) for r in records}))
    if args[1].mode == "in-plane":
        axes = {_round_key(r.phi % math.pi) for r in records}
    else:
        axes = {(_round_key(r.theta), _round_key(r.phi)) for r in records}
    rec.count("reconstruct.axes", len(axes))


def _after_parse(rec, args, out):
    rec.count("io.rows_parsed", len(out))
    rec.count("io.bytes_read", os.path.getsize(args[0]))


def _after_read(rec, args, out):
    rec.count("io.bytes_read", os.path.getsize(args[0]))


def _after_fit(rec, args, out):
    rec.count("analysis.fits")
    rec.count("analysis.fits_ok", out is not None)


def _spanned(name, after=None, calls=None):
    def make(rec, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls is not None:
                rec.count(calls)
            with rec.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                # its own span, so counting cost is neither the layer's time
                # nor time that no span covers
                with rec.span("trace.counting"):
                    after(rec, args, out)
            return out
        return wrapper
    return make


def _observed(after):
    def make(rec, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(rec, args, out)
            return out
        return wrapper
    return make


def _atomic_write(rec, fn):
    # analyze writes its CSV through io._atomic_write directly; the io.write_*
    # functions call it too, and there it must not open a second span
    @functools.wraps(fn)
    def wrapper(path, text):
        rec.count("io.bytes_written", len(text.encode("utf-8")))
        if rec.in_span("io."):
            return fn(path, text)
        with rec.span("io.write_outputs"):
            return fn(path, text)
    return wrapper


_LEGENDRE = _spanned("angular.legendre_sph_table", calls="angular.legendre_sph_table.calls")
_OUTPUTS = _spanned("io.write_outputs")

# (module, attribute, wrapper factory)
_WRAPPERS = [
    ("forward", "sample_measurements", _spanned("forward.sample")),
    ("cli", "sample_measurements", _spanned("forward.sample")),
    ("reconstruct", "compute_weights", _spanned("reconstruct.compute_weights")),
    ("reconstruct", "fbp_inplane", _spanned("reconstruct.fbp", after=_after_fbp)),
    ("reconstruct", "fbp_full", _spanned("reconstruct.fbp", after=_after_fbp)),
    ("reconstruct", "fold_northern", _spanned("reconstruct.fold")),
    ("analysis", "squeezing_scan", _spanned("analysis.squeezing_scan")),
    ("cli", "squeezing_scan", _spanned("analysis.squeezing_scan")),
    ("analysis", "gaussian_fit", _observed(_after_fit)),
    ("states", "wigner_grid", _spanned("states.wigner_grid")),
    ("cli", "wigner_grid", _spanned("states.wigner_grid")),
    ("angular", "legendre_sph_table", _LEGENDRE),
    ("reconstruct", "legendre_sph_table", _LEGENDRE),
    ("states", "legendre_sph_table", _LEGENDRE),
    ("angular", "hemi_overlap",
     _observed(lambda rec, args, out: rec.count("angular.hemi_overlap.calls"))),
    ("io", "parse_measurements", _spanned("io.parse_measurements", after=_after_parse)),
    ("io", "write_measurements", _spanned("io.write_measurements")),
    ("io", "write_coefficients", _OUTPUTS),
    ("io", "write_spectrum", _OUTPUTS),
    ("io", "write_grid", _OUTPUTS),
    ("io", "write_pgm", _OUTPUTS),
    ("io", "read_coefficients", _spanned("io.read_coefficients", after=_after_read)),
    ("io", "_atomic_write", _atomic_write),
]


@contextmanager
def instrument(rec):
    """Install the span and counter wrappers; restore the originals on exit."""
    saved = []
    try:
        for mod_name, attr, make in _WRAPPERS:
            module = importlib.import_module("spintomo." + mod_name)
            original = getattr(module, attr)
            setattr(module, attr, make(rec, original))
            saved.append((module, attr, original))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
