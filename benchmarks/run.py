"""avqabench benchmark: one workload, one run, one JSON result line.

    python3 benchmarks/run.py --workload eval-200k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The parent process generates (or
reuses) the seeded inputs, then starts bench_ops.py, which imports the
program from src/, times set-up and ops, checks every op and reports raw
measurements. With --trace 0 the result holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. Set-up is sampled in
extra set-up-only processes and reported as the median. The last line of
standard output is the result; the line before it describes the inputs
and the environment. See README.md in this directory for the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
OPS = HERE / "bench_ops.py"
WORKLOADS = ("eval-200k", "leaderboard-50k", "toy-paired")
# set-up-only processes, besides the set-up of the op process: at least 2,
# and more while they take under SETUP_BUDGET_S in all
SETUP_SAMPLES = (2, 8)
SETUP_BUDGET_S = 3.0
CHILD_TIMEOUT_S = 170


def run_child(argv: list[str]) -> dict:
    """Run a bench_ops.py process to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(OPS), *argv],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench_ops.py exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_state() -> dict:
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=20
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    # a checkout that is not itself a git work tree may sit inside another one
    if git("rev-parse", "--show-toplevel") != str(ROOT):
        return {"commit": None, "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def blas_threads() -> dict:
    """OpenBLAS thread count as the library reports it, else its default."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"threads": fn(), "source": symbol}
    env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {"threads": int(env) if env else os.cpu_count(), "source": "environment or nproc"}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        **git_state(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="1/100 of the records and a 2-epoch toy (smoke test)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "avqabench" / "__init__.py").is_file():
        print(f"no avqabench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny}
    child = ["--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        child.append("--tiny")
    if args.workload != "toy-paired":
        from bench_inputs import cached_inputs

        inputs = cached_inputs(CACHE, args.workload, args.seed, args.tiny)
        out = CACHE / f"out-{args.workload}"
        out.mkdir(parents=True, exist_ok=True)
        child += ["--inputs", str(inputs), "--out", str(out)]
        truth = json.loads((inputs / "truth.json").read_text())
        info["inputs"] = {k: v for k, v in truth.items() if k != "group_of"}
        info["inputs"]["models"] = [
            {k: v for k, v in m.items() if k != "expected_correct"} for m in truth["models"]
        ]
    info["env"] = environment()

    setup_samples = []
    began = time.perf_counter()
    while not args.trace and len(setup_samples) < SETUP_SAMPLES[1] and (
        len(setup_samples) < SETUP_SAMPLES[0] or time.perf_counter() - began < SETUP_BUDGET_S
    ):
        setup_samples.append(run_child(child + ["--setup-only"])["setup_s"])
    result = run_child(child)
    setup_samples.append(result["setup_s"])

    walls = [o["wall_s"] for o in result["ops"] if o["wall_s"] is not None and not o["traced"]]
    attempted = len(result["ops"])
    info.update(
        setup_samples_s=setup_samples,
        op_wall_s=[o["wall_s"] for o in result["ops"]],
        error_rate=result["failed"] / attempted,
        records_per_op=result["records_per_op"],
    )
    if args.trace:
        values = result["layers"]
        declared = spec["per_layer"]
    else:
        if not walls:
            print("no op completed", file=sys.stderr)
            return 1
        run_s = median(walls)
        values = {
            "setup_s": median(setup_samples),
            "run_s": run_s,
            "records_per_s": result["records_per_op"] / run_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        info["run_s_samples"] = len(walls)
        if args.workload == "toy-paired":
            info["train_samples_per_s"] = values["records_per_s"]
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}
    print(json.dumps(info))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": attempted, "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
