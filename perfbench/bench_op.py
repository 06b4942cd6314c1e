"""One benchmark operation: one ``run_scenario`` call in a fresh interpreter.

    python3 perfbench/bench_op.py --workload NAME --seed N --trace 0|1 \
        --spawned-at MONOTONIC [--spans-out FILE]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start, ``import
repro`` and ``Scenario.build``.  The measured section runs from the built
scenario to the validated report.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench_metrics import (  # noqa: E402
    qos_met_frac,
    report_digest,
    sim_jobs_per_s,
    undefined_metrics,
)
from bench_workloads import WORKLOADS  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(workload_name: str, seed: int, traced: bool, spans_out: Path | None) -> dict:
    """Run the workload once; return its metrics, digest and problems."""
    from repro.experiments.scenario_runner import run_scenario, validate_report
    from repro.scenarios.base import Scenario

    workload = WORKLOADS[workload_name]
    marks: dict[str, float] = {}
    installation = recorder = None
    if traced:
        import bench_trace

        recorder = bench_trace.Recorder(run_id=f"{workload_name}-seed{seed}")
        installation = bench_trace.install(recorder)
    original_build = Scenario.build

    def timed_build(self, **kwargs):
        built = original_build(self, **kwargs)
        marks["built"] = time.monotonic()
        return built

    Scenario.build = timed_build
    try:
        if recorder is not None:
            root = recorder.open("run", "run_scenario")
        report = run_scenario(workload.scenario, **workload.run_kwargs(seed))
        marks["done"] = time.monotonic()
        if recorder is not None:
            recorder.close(root, "run")
    finally:
        Scenario.build = original_build
        if installation is not None:
            installation.remove()
    validate_report(report)
    run_s = marks["done"] - marks["built"]
    result = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "built_at": marks["built"],
        "run_s": run_s,
        "num_jobs": report["workload"]["num_jobs"],
        "parameters": report["parameters"],
        "sim_jobs_per_s": sim_jobs_per_s(report, run_s),
        "peak_rss_mb": _peak_rss_mb(),
        "avg_power_w": report["energy"]["average_power_w"],
        "qos_met_frac": qos_met_frac(report),
        "digest": report_digest(report),
        "problems": undefined_metrics(report),
    }
    if recorder is not None:
        spans = recorder.spans()
        result["layers"], result["layer_self_s"] = bench_trace.layer_metrics(
            spans, recorder.counts, root="run", shard_bytes=recorder.shard_bytes()
        )
        if spans_out is not None:
            _write_spans(spans, spans_out)
    return result


def _write_spans(spans, path: Path) -> None:
    """One header line naming the fields, then one JSON array per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        handle.write(json.dumps({"fields": list(spans[0]._fields)}) + "\n")
        for span in spans:
            handle.write(json.dumps(list(span)) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, bool(args.trace), args.spans_out)
    result["setup_s"] = result.pop("built_at") - args.spawned_at
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
