"""Scenario benchmark: throughput, power at QoS and per-layer spans.

    python3 perfbench/run.py --workload mega-search --seed 0 --seconds 20 --trace 0

Each operation is one ``run_scenario`` call in a fresh interpreter
(``bench_op.py``), run one at a time for about ``--seconds`` seconds.
``--trace 0`` reports the end-to-end metrics of untraced operations;
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of the traced ones; ``--trace both`` does both.
``--workload all`` runs every workload.  Every report must pass
``validate_report`` and hash identically across the operations of a run
(and, for ``mega-process``, to a serial ``mega-search`` run at the same
seed).  The last line of stdout is one JSON object; the exit code is 1
when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench_metrics import quartiles
from bench_workloads import LAYERS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Minimum measured operations per untraced run and pairs per traced run.
MIN_OPS = 3
MIN_PAIRS = 1
#: Every operation of one workload run must end this many seconds after it began.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "sim_jobs_per_s": "jobs/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "avg_power_w": "W",
    "qos_met_frac": "fraction",
}

LAYER_UNITS = {
    "search.solves_per_selection": "solves/selection",
    "kernel.jobs_per_solve": "jobs/solve",
    "executor.shard_bytes": "B",
    "trace.coverage_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


class OperationFailed(Exception):
    """An operation raised, timed out, failed validation or mismatched."""


@dataclass
class Tally:
    """Operation accounting and the reference digest of one workload run."""

    workload: str
    started: float = field(default_factory=time.monotonic)
    attempted: int = 0
    failed: int = 0
    digest: str | None = None
    parameters: dict | None = None
    num_jobs: int | None = None

    def attempt(self, workload: str, seed: int, traced: bool, spans_out: Path | None = None):
        """One operation, checked; ``None`` when it failed."""
        self.attempted += 1
        try:
            result = _spawn(workload, seed, traced, spans_out, self.started)
            if result["problems"]:
                raise OperationFailed("; ".join(result["problems"]))
            if self.digest is None:
                self.digest = result["digest"]
            elif result["digest"] != self.digest:
                raise OperationFailed(
                    f"report digest {result['digest'][:12]} differs from {self.digest[:12]}"
                )
        except OperationFailed as error:
            self.failed += 1
            print(f"  FAILED {workload} seed {seed} traced={traced}: {error}", flush=True)
            return None
        if workload == self.workload:
            self.parameters = result["parameters"]
            self.num_jobs = result["num_jobs"]
        return result


def _spawn(workload: str, seed: int, traced: bool, spans_out: Path | None, started: float):
    """Run ``bench_op.py`` once and parse its JSON line."""
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise OperationFailed("no time left before the benchmark deadline")
    command = [
        sys.executable,
        str(HERE / "bench_op.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(traced)),
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    command += ["--spawned-at", repr(time.monotonic())]
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The whole session: pool workers of the operation go too.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise OperationFailed(f"timed out after {timeout:.0f} s") from None
    if process.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        raise OperationFailed(f"exit code {process.returncode}: {tail[0]}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as error:
        raise OperationFailed(f"unreadable result: {error}") from None


def _keep_going(durations: list[float], minimum: int, start: float, seconds: float) -> bool:
    """Start another operation while the next one fits in *seconds*."""
    if len(durations) < minimum:
        return True
    return time.monotonic() - start + statistics.median(durations) <= seconds


def _reference(tally: Tally, name: str, seed: int) -> None:
    """Pin the digest to the workload this one must match, if any."""
    parity = WORKLOADS[name].parity_with
    if parity is not None:
        print(f"  parity reference: {parity} at seed {seed}", flush=True)
        tally.attempt(parity, seed, traced=False)


def run_untraced(name: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics of *name*: medians over untraced operations."""
    _reference(tally, name, seed)
    results, per_op = [], []
    start = time.monotonic()
    while _keep_going(per_op, MIN_OPS, start, seconds):
        began = time.monotonic()
        result = tally.attempt(name, seed, traced=False)
        per_op.append(time.monotonic() - began)
        if result is not None:
            results.append(result)
    summary = {}
    for metric, unit in END_TO_END_UNITS.items():
        values = [result[metric] for result in results]
        if values:
            summary[metric] = (quartiles(values), len(values), unit)
    return summary, {}


def run_traced(name: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics of *name* and self time per layer, as medians.

    Untraced and traced operations alternate, so ``trace.overhead_frac``
    compares runs made under the same machine conditions.
    """
    _reference(tally, name, seed)
    spans_out = ROOT / ".perfbench" / "spans" / f"{name}.jsonl"
    untraced, traced, per_pair = [], [], []
    start = time.monotonic()
    while _keep_going(per_pair, MIN_PAIRS, start, seconds):
        began = time.monotonic()
        plain = tally.attempt(name, seed, traced=False)
        spanned = tally.attempt(name, seed, traced=True, spans_out=spans_out)
        per_pair.append(time.monotonic() - began)
        if plain is not None:
            untraced.append(plain)
        if spanned is not None:
            traced.append(spanned)
    summary, self_s = {}, {}
    if traced:
        for layer in traced[0]["layer_self_s"]:
            self_s[layer] = statistics.median(result["layer_self_s"][layer] for result in traced)
        for metric in traced[0]["layers"]:
            values = [result["layers"][metric] for result in traced]
            summary[metric] = (quartiles(values), len(values), layer_unit(metric))
    if traced and untraced:
        # Both times run from the built scenario to the validated report.
        plain_s = statistics.median(result["run_s"] for result in untraced)
        overhead = statistics.median(result["run_s"] for result in traced) / plain_s - 1
        summary["trace.overhead_frac"] = ((overhead, overhead, overhead), len(traced), "fraction")
    return summary, self_s


# -- output --------------------------------------------------------------------


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "missing"
    return numpy.__version__


def environment_stamp(seed: int, names: list[str]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "git_sha": git_sha(),
        "seed": seed,
        "workloads": {name: WORKLOADS[name].why for name in names},
    }


def print_table(title: str, summary: dict, tally: Tally) -> None:
    print(f"-- {title}")
    print(f"   parameters: {json.dumps(tally.parameters)}  jobs: {tally.num_jobs}")
    for metric, ((q1, median, q3), count, unit) in summary.items():
        print(f"   {metric:30s} {median:16.6g} {unit:16s} q1 {q1:.6g}  q3 {q3:.6g}  n={count}")
    print(f"   operations: attempted {tally.attempted}, failed {tally.failed}", flush=True)


def role_checks(name: str, self_s: dict[str, float], coverage: float) -> list[tuple[str, bool]]:
    """Each workload's stated role, checked against its traced self time."""
    total = sum(self_s.values()) or 1.0
    share = {layer: seconds / total for layer, seconds in self_s.items()}
    policy = sum(share.get(layer, 0.0) for layer in ("kernel", "search", "power"))
    largest = max(share, key=share.get)
    checks = []
    if name == "mega-search":
        checks.append((f"kernel+search+power {100 * policy:.1f}% > 50%", policy > 0.5))
    if name == "autoscale-day":
        checks.append((f"kernel+search+power {100 * policy:.1f}% < 5%", policy < 0.05))
    if name in ("autoscale-day", "tenant-burst"):
        checks.append((f"largest layer {largest} is dispatch", largest == "dispatch"))
    if WORKLOADS[name].options.get("executor") != "process":
        checks.append((f"named layers cover {100 * coverage:.1f}% >= 90%", coverage >= 0.9))
    return checks


def print_roles(name: str, summary: dict, self_s: dict[str, float]) -> None:
    """Self time per layer, what it should move, and the workload's role."""
    total = sum(self_s.values()) or 1.0
    for layer in LAYERS:
        seconds = self_s.get(layer.name, 0.0)
        print(
            f"   layer {layer.name:10s} {layer.module:34s} self {seconds:9.4f} s "
            f"{100 * seconds / total:5.1f}%  moves {layer.moves}"
        )
    for text, ok in role_checks(name, self_s, summary["trace.coverage_frac"][0][1]):
        print(f"   role: {text}: {'ok' if ok else 'NOT MET'}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from a checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("stamp: " + json.dumps(environment_stamp(args.seed, names)), flush=True)
    attempted = failed = 0
    metrics = {}
    for name in names:
        prefix = f"{name}/" if len(names) > 1 else ""
        for traced in (False, True):
            if args.trace == ("1" if traced else "0") or args.trace == "both":
                tally = Tally(workload=name)
                runner = run_traced if traced else run_untraced
                summary, self_s = runner(name, args.seed, args.seconds, tally)
                mode = "traced" if traced else "untraced"
                print_table(f"{name} seed {args.seed} {mode}", summary, tally)
                if self_s:
                    print_roles(name, summary, self_s)
                attempted += tally.attempted
                failed += tally.failed
                for metric, ((_q1, median, _q3), _count, unit) in summary.items():
                    metrics[prefix + metric] = {"value": median, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
