"""Run one ``avgcase`` command with its layers traced from outside.

    python bench/tracer.py SPANS.json -- <avgcase arguments>

Each public function listed in ``LAYERS`` is wrapped in a span recorder
before the command starts.  ``pipelines`` binds ``gaussianize``,
``srk3_array`` and ``build_H`` at import, so every module of the package
that holds a wrapped function under its name gets the wrapper too.  Spans
carry parent links and stay in memory; when the command ends they are
written to SPANS.json with per-function totals, self times and counters.
The exit code is the command's.

tracemalloc records the peak allocation inside the first ``gaussianize``
call of each input shape and nowhere else: calls of one shape allocate the
same arrays, and tracing every one of the ISGM battery's 401 small calls
added about 15% to its wall time.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

import numpy as np

from avgcase import cli, formats, geometry, graphs, kernels, pipelines, prob, verify

LAYERS = {
    "cli": (cli, ["main"]),
    "graphs": (graphs, ["write_graphv1", "read_graphv1", "sample_k_pds"]),
    "pipelines": (pipelines, ["graph_clone", "to_k_partite_submatrix", "pds_to_isgm",
                              "pds_to_semi_cr", "pds_to_glsm"]),
    "kernels": (kernels, ["gaussianize", "srk3_array"]),
    "geometry": (geometry, ["build_H"]),
    "formats": (formats, ["write_amat"]),
    "verify": (verify, ["verify_reduction"]),
}


def _count_graph_edges(args, result):
    return {"edges": (args[0] if result is None else result).edge_count}


def _count_gaussianize(args, result):
    return {"entries": int(np.asarray(args[0]).size),
            "fallback_entries": int(np.count_nonzero(result == 0.0))}


COUNTERS = {
    "graphs.write_graphv1": _count_graph_edges,
    "graphs.read_graphv1": _count_graph_edges,
    "kernels.gaussianize": _count_gaussianize,
    "kernels.srk3_array": lambda args, result: {"entries": int(np.asarray(args[0]).size)},
    "formats.write_amat": lambda args, result: {"mb": np.asarray(args[1]).nbytes / 2 ** 20},
}
PEAK_ALLOC = {"kernels.gaussianize"}


class Tracer:
    """Spans as ``[name, parent, start, end]`` rows plus per-name counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}
        self.peak_shapes = set()

    def _first_of_shape(self, name, array):
        key = (name, np.shape(array))
        first = key not in self.peak_shapes
        self.peak_shapes.add(key)
        return first

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            peak = name in PEAK_ALLOC and self._first_of_shape(name, args[0])
            if peak:
                tracemalloc.start()
            sid = len(self.spans)
            self.spans.append([name, self.stack[-1] if self.stack else -1,
                               time.perf_counter(), None])
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[sid][3] = time.perf_counter()
                self.stack.pop()
                if peak:
                    peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
            totals = self.counters.setdefault(name, {})
            if peak:
                totals["peak_alloc_mb"] = max(totals.get("peak_alloc_mb", 0.0), peak_mb)
            for key, value in (count(args, result) if count else {}).items():
                totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def install(self):
        """Wrap every listed function and rebind it wherever the package holds it."""
        package = [m for n, m in sys.modules.items() if n == "avgcase" or n.startswith("avgcase.")]
        for layer, (module, names) in LAYERS.items():
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in package:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapper)
        prob.RngStream.generator = self.wrap("prob.generator", prob.RngStream.generator)

    def summary(self):
        """Per name: calls, inclusive seconds and self seconds (minus direct children)."""
        out = {}
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, (name, parent, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        for name, totals in self.counters.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0}).update(totals)
        return out


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <avgcase arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
