"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <setup|run|trace> [size]

Prints one JSON line: the set-up time (imports plus input generation), and
for ``run`` and ``trace`` the timed wall time, the peak resident memory of
this process and the operation records.  ``trace`` also installs the tracer,
writes its spans to ``.perfbench/``, adds the per-layer metrics and, after
the timed region, the records of the workload's known-defect cases.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

import horocp  # noqa: E402,F401
import horocp.cli  # noqa: E402,F401
import workloads  # noqa: E402


def to_json(o):
    if isinstance(o, np.ndarray):
        if np.iscomplexobj(o):
            return {"complex": [o.real.tolist(), o.imag.tolist()]}
        return o.tolist()
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, (Fraction, complex)):
        return str(o)
    raise TypeError(f"cannot serialise {type(o).__name__}")


def main(argv: list[str]) -> None:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    size = argv[3] if len(argv) > 3 else "full"
    inputs = workloads.make_inputs(name, seed, size)
    out = {"setup_s": time.perf_counter() - T0}
    if mode == "setup":
        print(json.dumps(out))
        return
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        records = workloads.run(name, inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["wall_s"] = time.perf_counter() - start
    if tracer is not None:
        out["wall_s"] -= tracer.paused  # oracle comparisons inside op_norm spans
        os.makedirs(".perfbench", exist_ok=True)
        tracer.dump(os.path.join(".perfbench", f"trace-{name}-{seed}.jsonl"))
        out["layers"] = tracer.metrics(0.0)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["records"] = records
    if mode == "trace":
        out["known_defects"] = workloads.known_defects(name, inputs)
    print(json.dumps(out, default=to_json))


if __name__ == "__main__":
    main(sys.argv[1:])
