"""Benchmark entry point.  Run it from the root of a horocp checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: verify_suite, operator_large, exact_geometry, finite_triples (see
perfbench/README.md).  The load is a closed loop with one caller: each
repetition starts in a fresh worker process when the previous one has
returned, and repetitions continue until --seconds have passed (at least
one).  Every repetition pays the imports, input generation and cold caches
that one CLI invocation pays.

With --trace 0 the last line of stdout is

    {"correct", "attempted", "failed", "metrics": {wall_ref_s, setup_s, peak_rss_mb}}

wall_ref_s is the median over the run's repetitions of the timed wall time,
each rescaled to the reference host speed by the speed probe (probe.py) that
runs beside the worker on the same CPU (wall * CALIBRATION_REF_S /
calibration).  On a shared 2-vCPU VM the speed of one CPU swings by more
than half within seconds, which no number of repetitions averages out; the
probe's kernel time swings with it.  The raw mean wall time is the record
line's wall_s.  run.py pins itself, every worker and every probe to one CPU.
peak_rss_mb is the median over the repetitions.  setup_s is the median of at
least SETUP_SAMPLES fresh-process set-ups, each rescaled in the same way.
With --trace 1 the same repetitions run, then one traced repetition, and the
metrics are the per-layer ones from perfbench/tracing.py, including the
tracing overhead and the excess of the known-defect MK cases (workloads.py),
which are measured but are not operations of the workload.
The line before it carries the full record: environment, every sample,
failed_share, bound_shortfall_max and the first failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# One fixed BLAS thread count, recorded in every result because the
# verify_suite stdout digest depends on it.  One thread, not two: on a 2-core
# VM, identical repetitions of even the pure-Python exact_geometry workload
# spread over 1.8-2.5 s with two OpenBLAS threads and 2.3-2.5 s with one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_SAMPLES = 9
# About the median time of probe.kernel() on the host that defined the
# benchmark (2 vCPU Xeon VM, one CPU, one BLAS thread).  wall_ref_s and
# setup_s are rescaled to this host speed; see README.md.
CALIBRATION_REF_S = 0.002
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


class WorkerError(RuntimeError):
    pass


def call_worker(name: str, seed: int, mode: str, size: str = "full") -> dict:
    """One worker process with the speed probe running beside it on the same
    CPU; the result's calibration_s is the probe's mean kernel time over the
    worker's life."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = subprocess.Popen([sys.executable, str(HERE / "probe.py")], cwd=ROOT,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        if probe.stdout.readline().strip() != "ready":
            raise WorkerError(f"probe.py exited {probe.wait()} before it was ready")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), name, str(seed), mode, size],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        speed, _ = probe.communicate("stop\n", timeout=WORKER_TIMEOUT_S)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker {name} {mode} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.splitlines()[-1], object_hook=_decode)
    out["calibration_s"] = json.loads(speed.splitlines()[-1])["calibration_s"]
    return out


def _decode(obj: dict):
    if set(obj) == {"complex"}:
        re, im = obj["complex"]
        return np.asarray(re) + 1j * np.asarray(im)
    return obj


def environment(seed: int) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps['name']} {deps.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpus": sorted(os.sched_getaffinity(0)), "seed": seed}


def reference_time(rep: dict, key: str = "wall_s") -> float:
    """A worker's wall time (timed region or set-up) at the reference speed."""
    return rep[key] * CALIBRATION_REF_S / rep["calibration_s"]


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run the closed loop, score every repetition, return (record, result)."""
    inputs = workloads.make_inputs(name, seed, size)
    env = environment(seed)
    reference = None
    if name == "verify_suite":
        argv = " ".join(" ".join(a) for a in inputs["argv"])
        reference = oracles.verify_reference(argv, env)
    # Without a digest recorded for this environment, verify_suite makes a
    # second repetition so that its stdout is compared with something.
    min_reps = 2 if name == "verify_suite" and reference is None else 1
    reps = []
    started = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - started < seconds:
        reps.append(call_worker(name, seed, "run", size))
    setups = reps + [call_worker(name, seed, "setup", size)
                     for _ in range(SETUP_SAMPLES - len(reps))]
    traced = call_worker(name, seed, "trace", size) if trace else None

    cache: dict = {}
    total = oracles.Score()
    for rep in reps + ([traced] if traced else []):
        total.merge(oracles.score(name, inputs, rep["records"], cache))
    digests = [oracles.stdout_digest(r["records"]) for r in reps + ([traced] if traced else [])]
    if name == "verify_suite":
        # Same thread count, same seed: stdout must be byte-identical, traced or not.
        total.merge(oracles.score_stdout(digests, reference))

    walls = [r["wall_s"] for r in reps]
    calibrations = [r["calibration_s"] for r in reps]
    ref_walls = [reference_time(r) for r in reps]
    rss = [r["peak_rss_mb"] for r in reps]
    if trace:
        metrics = traced["layers"]
        metrics["trace.overhead_s"]["value"] = (reference_time(traced)
                                                - statistics.median(ref_walls))
        known = oracles.known_defect_excess(inputs, traced["known_defects"])
        metrics["quantum_metric.mk.known_defect_excess_max"]["value"] = max(
            (k["excess"] for k in known if k["excess"] is not None), default=0.0)
    else:
        metrics = {
            "wall_ref_s": {"value": statistics.median(ref_walls), "unit": "s"},
            "setup_s": {"value": statistics.median(reference_time(r, "setup_s") for r in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "env": env,
        "repetitions": len(reps), "wall_s": statistics.fmean(walls),
        "wall_s_samples": walls, "calibration_s_samples": calibrations,
        "setup_s_samples": [r["setup_s"] for r in setups], "peak_rss_mb_samples": rss,
        "traced_wall_s": traced["wall_s"] if traced else None,
        "failed_share": total.failed_share,
        "bound_shortfall_max": total.shortfall_max,
        "stdout_sha256": digests[0] if name == "verify_suite" else None,
        "failures": total.failures[:20],
        "known_defects": known if trace else None,
    }
    result = {"correct": total.failed == 0, "attempted": total.attempted,
              "failed": total.failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the run, the workers and the probes: the probe measures the
    # speed of the CPU that the worker runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "horocp" / "__init__.py").is_file():
        print(f"error: no horocp sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
