"""Child process of the benchmark: one ``cbelab`` CLI invocation, measured.

    python3 perfbench/probe.py RESULT.json run|trace [--meta] -- CLI ARGS...
    python3 perfbench/probe.py RESULT.json sweep MEMORY_CAP_BYTES

``run`` times ``import cbelab.cli`` and ``cbelab.cli.main(argv)`` and records
the peak RSS.  ``trace`` does the same with every binding of each public
function of the ``cbelab`` modules wrapped, so that each call leaves a span
(name, start, end, parent) in memory; the spans go into RESULT.json when the
process ends.  ``sweep`` times ``integrate`` over doubling cell counts and
``ahpm_terms`` over orders 3..7.  ``--meta`` adds interpreter, library and
machine details.  RESULT.json is written only when the command returns.
"""

from __future__ import annotations

import json
import resource
import sys
import time

_MODULES = ("cases", "grid", "fvm", "series", "metrics")


class Tracer:
    """Span recorder; spans are [name, start, end, parent index, attributes]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = _attributes(result)
            return result

        traced.__wrapped__ = fn
        return traced


def _attributes(result):
    # work counters the per-layer metrics read from returned values
    if hasattr(result, "rhs_evaluations"):
        return {"steps": result.step_count, "rhs_evals": result.rhs_evaluations}
    terms = getattr(result, "terms", None)
    if terms is not None and hasattr(terms[0], "degree"):
        return {"max_degree": max(term.degree for term in terms)}
    return None


def install_tracing(tracer: Tracer) -> None:
    """Wrap every binding of each public function, in every cbelab module.

    ``cli`` imports functions by name and ``series`` calls ``ham_terms`` and
    ``residual`` through its own globals, so each module attribute that holds
    an original function is replaced by the one shared wrapper.
    """
    import importlib
    import inspect

    import cbelab
    import cbelab.cli

    names = {}
    for short in _MODULES:
        module = importlib.import_module(f"cbelab.{short}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                names[fn] = f"{short}.{attr}"
    names[cbelab.cli.main] = "cli.main"
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in names.items()}
    holders = [cbelab, cbelab.cli] + [importlib.import_module(f"cbelab.{m}") for m in _MODULES]
    for module in holders:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])


def _blas_threads() -> dict:
    """OpenBLAS thread counts of the numpy and scipy builds, read from /proc maps."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[lib.rsplit("/", 1)[-1]] = fn()
                break
    return found


def metadata() -> dict:
    import os
    import platform

    import numpy
    import scipy

    def blas(config):
        entry = config["Build Dependencies"]["blas"]
        return f"{entry.get('name')} {entry.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": _blas_threads(),
        "isolation": "none: page caches are not dropped, CPUs are not pinned, "
        "and other tenants share the machine",
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def invoke(mode: str, argv: list[str], meta: bool) -> dict:
    t0 = time.perf_counter()
    import cbelab.cli

    t1 = time.perf_counter()
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        install_tracing(tracer)
    t2 = time.perf_counter()
    code = cbelab.cli.main(argv)
    t3 = time.perf_counter()
    out = {"exit": code, "setup_s": t1 - t0, "run_s": t3 - t2, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        out["spans"] = tracer.spans
    if meta:
        out["meta"] = metadata()
    return out


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def sweep(memory_cap: int) -> dict:
    """Scaling of ``integrate`` over doubling N and of ``ahpm_terms`` over orders.

    The FVM sweep doubles N from 500 while its two dense N x N float64 tables
    (rates and fragment weights), plus one of the same size as headroom, stay
    within an eighth of the available memory and ``memory_cap``; it always
    takes the two points a slope needs.
    """
    import numpy as np

    from cbelab import ahpm_terms, build_grid, integrate, registry_case

    with open("/proc/meminfo") as meminfo:
        fields = dict(line.split(":", 1) for line in meminfo)
    budget = min(int(fields["MemAvailable"].split()[0]) * 1024 // 8, memory_cap)
    ex1 = registry_case("ex1")
    times = tuple(np.linspace(0.0, ex1.tend, 11))
    integrate(ex1, build_grid(ex1.rmax, 100), times)  # warm-up
    cells, seconds = [], []
    n = 500
    while len(cells) < 2 or 3 * 8 * n * n <= budget:
        cells.append(n)
        seconds.append(_timed(integrate, ex1, build_grid(ex1.rmax, n), times))
        n *= 2
    slope = float(np.polyfit(np.log(cells), np.log(seconds), 1)[0])

    grid = build_grid(ex1.rmax, 300)
    ahpm_terms(ex1, grid, 1)  # fills the collision-operator cache for this grid
    orders = list(range(3, 8))
    order_seconds = [_timed(ahpm_terms, ex1, grid, m) for m in orders]
    growth = (order_seconds[-1] / order_seconds[0]) ** (1.0 / (len(orders) - 1))
    return {
        "fvm.integrate_exp": slope,
        "fvm.integrate_cells": cells,
        "fvm.integrate_seconds": seconds,
        "series.ahpm_order_growth": growth,
        "series.ahpm_orders": orders,
        "series.ahpm_seconds": order_seconds,
    }


def main(args: list[str]) -> int:
    result_path, mode = args[0], args[1]
    if mode == "sweep":
        out = sweep(int(args[2]))
    else:
        rest = args[2:]
        meta = "--meta" in rest[: rest.index("--")]
        out = invoke(mode, rest[rest.index("--") + 1 :], meta)
    with open(result_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
