"""convd benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. With --trace 0 the run measures the
end-to-end metrics of BENCHMARK.json for --seconds; with --trace 1 it does
a fixed amount of traced work and reports the per-layer metrics. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. The line before it is a JSON summary (environment, data
fingerprint, sample counts, failed_ops_ratio). --self-test runs every
workload briefly, each in a fresh process, and checks the output contract.
"""

import os
import sys

# BLAS threads decide parameter bytes, so they are pinned before NumPy
# loads; one thread is never more than nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# The NumPy convolution, whatever core was built in place: every run, the
# baseline included, times the same kernels.
os.environ["CONVD_KERNEL_BACKEND"] = "python"

import argparse
import json
import platform
import shutil
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")


def environment() -> dict:
    import numpy as np

    import convd

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "kernel_backend": convd.KERNEL_BACKEND,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, Bench

    if name not in WORKLOADS:
        print(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}

    workdir = os.path.join(WORK_ROOT, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        bench = Bench(name, seed, workdir)
        fingerprint = bench.prepare()
        if trace:
            os.makedirs(OUT_ROOT, exist_ok=True)
            values, summary = bench.trace(os.path.join(OUT_ROOT, f"spans-{name}-{seed}.jsonl"))
        else:
            values, summary = bench.measure(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} do not match BENCHMARK.json")
    checks = bench.checks
    summary.update(
        workload=name, seed=seed, trace=int(trace), data_fingerprint=fingerprint,
        failed_ops_ratio=checks.failed / checks.attempted, failures=checks.failures,
        environment=environment(),
    )
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": values[k], "unit": declared[k]} for k in declared},
    }))
    return 0


def _child(workload: str, seed: int, trace: int) -> tuple:
    """Runs one brief workload in a fresh process; returns (summary, result)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[2:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["summary"], json.loads(lines[-1])


def self_test() -> int:
    """Every workload briefly, at two seeds untraced and once traced."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = {(seed, trace): _child(name, seed, trace) for seed, trace in ((1, 0), (2, 0), (1, 1))}
        for (seed, trace), (summary, result) in runs.items():
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, summary["failures"]
            assert result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == declared, f"{name}: metric names or units differ from BENCHMARK.json"
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            if trace:
                assert summary["self_ms_min"] >= 0.0, summary
                assert summary["self_ms_total"] <= summary["traced_wall_ms"], summary
        (s1, r1), (s2, r2) = runs[1, 0], runs[2, 0]
        assert s1["data_fingerprint"] != s2["data_fingerprint"], f"{name}: seed does not change data"
        assert r1["metrics"].keys() == r2["metrics"].keys()
        print(f"{name}: ok ({runs[1, 1][0]['spans']} spans traced)", flush=True)
    print("self-test passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "convd")):
        print(f"no convd sources under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
