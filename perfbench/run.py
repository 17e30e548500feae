"""The repository benchmark: graph in, verified circuit out, and the service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zoo_cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracer installed;
``--trace 1`` is the separate traced run that reports the per-layer metrics
and the tracing overhead.  Each metric is printed with its unit and sample
count; the last line of standard output is the JSON result.  A full record
(machine, workload rationale, every metric, spans) is written under
``.perfbench/results/``.  The exit code is 0 only when every output check
passed.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def import_program():
    """Import the program from this checkout's ``src`` (and nowhere else)."""
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not this checkout")
    return repro


def source_revision() -> str:
    """The git commit when there is one, else a digest of ``src``."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        if rev:
            return f"git:{rev}"
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return f"src-sha256:{digest.hexdigest()[:16]}"


def machine(trace: bool) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rev": source_revision(),
        "tracer": "on" if trace else "off",
    }


def format_metric(name: str, metric) -> str:
    value = "n/a" if metric.value is None else f"{metric.value:.6g}"
    return f"  {name:<40} {value:>14} {metric.unit:<12} n={metric.samples}"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import END_TO_END, PER_LAYER, WORKLOADS, output_dir

    workload = WORKLOADS[name]()
    info = machine(trace)
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"why: {workload.WHY}")
    outcome = workload.run(seed, seconds, trace)

    declared = PER_LAYER if trace else END_TO_END
    missing = [m for m in declared if m not in outcome.metrics]
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
        outcome.failed += 1
    print("metrics:")
    for metric_name in declared:
        if metric_name in outcome.metrics:
            print(format_metric(metric_name, outcome.metrics[metric_name]))
    if outcome.extra:
        print("also measured (not in the result line):")
        for metric_name, metric in outcome.extra.items():
            print(format_metric(metric_name, metric))
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'error_rate':<40} {error_rate:>14.6g} {'ratio':<12} n={outcome.attempted}")
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED: {problem}")

    correct = not outcome.problems and outcome.attempted > 0
    results = output_dir() / "results"
    results.mkdir(exist_ok=True)
    record = {
        "workload": name, "why": workload.WHY, "seed": seed, "seconds": seconds,
        "machine": info, "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "problems": outcome.problems,
        "metrics": {k: vars(m) for k, m in outcome.metrics.items()},
        "extra": {k: vars(m) for k, m in outcome.extra.items()},
        "samples": outcome.samples,
        "trace": outcome.trace,
    }
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": outcome.metrics[k].value, "unit": outcome.metrics[k].unit}
                    for k in declared if k in outcome.metrics},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process (so peak memory is its own)."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        completed = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                    "--workload", name, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", str(int(trace))],
                                   cwd=ROOT)
        status = status or completed.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
