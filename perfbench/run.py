"""Benchmark of the xshadow command line program.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload experiment_n8 --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32

Each repeat runs the workload's CLI commands (see workloads.py), each in
a fresh interpreter as ``python -m xshadow.cli`` with the checkout's
``src`` on PYTHONPATH, one process at a time and BLAS pinned to one
thread.  Repeats run back to back (a closed loop with one client) until
the next one would end after ``--seconds``, and at least MIN_REPEATS
times.  Every repeat's outputs are checked; each check is one operation.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json: the median wall time of a repeat, the median set-up time
of SETUP_PROBES interpreters that import xshadow and parse the config,
and the median peak resident set, taken per child from ``os.wait4``.
With ``--trace 1`` untraced and traced repeats alternate; traced repeats
run the commands through traced_cli.py and the last line reports the
per-layer metrics: medians over traced repeats, and trace.overhead_s,
the traced median wall minus the untraced one.

Every line but the last is for people: each metric with its unit,
sample count and tail percentile, the operation counts, the traced share
of each span, and a JSON manifest of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans as spanlib
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
MIN_REPEATS = 3
SETUP_PROBES = 7
# Every child is killed once the invocation has run this long, so the
# benchmark ends within its 180 s limit even if the program hangs.
DEADLINE_S = 170.0
BLAS_THREADS = "1"
SETUP_PROBE = (
    "import sys\n"
    "import xshadow.cli\n"
    "from xshadow.config import load_config\n"
    "load_config(sys.argv[1])\n"
)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    index = len(ordered) - 11
    if index < 0:
        return None
    return 100.0 * index / (len(ordered) - 1), ordered[index]


def median_or_zero(values: list[float]) -> float:
    """Median, or 0 when a failed run left no samples (its result is not correct)."""
    return statistics.median(values) if values else 0.0


def read_git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class Runner:
    """Spawns children of one invocation and reaps each with os.wait4."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.started = time.perf_counter()
        self.stderr_path = work / "stderr.txt"
        self.env = dict(os.environ)
        # Cache bytecode, as an installed package would, wherever the caller's
        # environment says otherwise; the cache lives outside src/.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONPYCACHEPREFIX=str(root / ".bench_work" / "pycache"),
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
        )

    def spawn(self, argv: list[str]) -> tuple[float, float, float, int]:
        """Run argv to completion; returns (start, end, peak RSS MiB, exit code)."""
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise TimeoutError("benchmark deadline reached")
        with open(self.stderr_path, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=self.root
            )
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return start, end, usage.ru_maxrss / 1024.0, proc.returncode

    def roundtrip(self, cal: str, tomo: str, workdir: Path) -> dict[str, bool]:
        result = subprocess.run(
            [sys.executable, str(HERE / "roundtrip.py"), cal, tomo, str(workdir)],
            capture_output=True, text=True, env=self.env, cwd=self.root,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - self.started)),
        )
        if result.returncode != 0:
            raise RuntimeError(result.stderr.strip().splitlines()[-1:])
        return json.loads(result.stdout)

    def stderr_tail(self, lines: int = 5) -> list[str]:
        if not self.stderr_path.is_file():
            return []
        return self.stderr_path.read_text(errors="replace").splitlines()[-lines:]


def run_repeat(runner: Runner, workload, work: Path, traced: bool, run_id: str,
               checker: checks.Checker) -> dict:
    """One pass over the workload's commands; timing excludes the checks."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    spans: list[dict] = []
    started = ended = None
    peak = 0.0
    codes = []
    for index, (command, args) in enumerate(workload.commands(str(work))):
        span_id = f"{run_id}.{index}"
        spans_path = work / f"spans-{index}.json"
        spans_path.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), run_id,
                    span_id, *args]
        else:
            argv = [sys.executable, "-m", "xshadow.cli", *args]
        start, end, rss, code = runner.spawn(argv)
        started = start if started is None else started
        ended = end
        peak = max(peak, rss)
        codes.append((command, code))
        if traced:
            spans.append({"name": f"cli.{command}", "id": span_id, "parent": None,
                          "run": run_id, "start": start, "end": end, "attrs": {}})
            if spans_path.is_file():
                spans.extend(json.loads(spans_path.read_text()))
    for command, code in codes:
        checker.op(f"{command} exits 0", lambda code=code: code == 0)
    return {"wall": ended - started, "rss": peak, "traced": traced, "spans": spans}


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 spec: dict) -> dict:
    workload = WORKLOADS[name]
    work = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, root, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seed, seconds, trace, root, work, spec) -> dict:
    runner = Runner(root, work)
    checker = checks.Checker()
    ledger = checks.HashLedger()
    config = workload.config(seed)
    config_bytes = json.dumps(config, sort_keys=True).encode()
    (work / "config.json").write_bytes(config_bytes)
    input_digests, prepared = workload.prepare(str(work), config)

    probe = [sys.executable, "-c", SETUP_PROBE, str(work / "config.json")]
    setup, probe_codes = [], []

    def probe_until(count: int) -> None:
        while len(setup) < count:
            start, end, _, code = runner.spawn(probe)
            probe_codes.append(code)
            setup.append(end - start)

    runner.spawn(probe)  # warms the bytecode cache; not a sample
    probe_until(1)
    roundtrip = None
    if trace:
        def roundtrip(cal, tomo):
            return runner.roundtrip(cal, tomo, work)

    repeats: list[dict] = []
    began = time.perf_counter()
    try:
        while True:
            traced = trace and len(repeats) % 2 == 1
            run_id = f"{workload.name}-{seed}-{len(repeats)}"
            rep = run_repeat(runner, workload, work, traced, run_id, checker)
            rows = workload.check(checker, str(work), config, prepared, ledger,
                                  roundtrip if traced else None)
            rep["max_abs_err"] = checks.max_abs_error(rows) if rows else None
            repeats.append(rep)
            elapsed = time.perf_counter() - began
            typical = statistics.median(r["wall"] for r in repeats)
            if len(repeats) >= MIN_REPEATS and elapsed + typical > seconds:
                break
            # spread the set-up probes over the window: machine speed drifts
            # over seconds, and a burst of probes would sample one moment of it
            probe_until(math.ceil(SETUP_PROBES * min(1.0, (elapsed + typical) / seconds)))
        probe_until(SETUP_PROBES)
    except TimeoutError:
        checker.op("all processes started before the deadline", lambda: False)
    checker.op("set-up probes exit 0", lambda: set(probe_codes) == {0})

    plain = [r for r in repeats if not r["traced"]]
    samples = {
        "wall_s": [r["wall"] for r in plain],
        "setup_s": setup,
        "peak_rss_mb": [r["rss"] for r in plain],
    }
    errors = [r["max_abs_err"] for r in repeats if r["max_abs_err"] is not None]
    if errors:
        samples["mitigated_max_abs_err"] = errors
    layers: dict[str, list[float]] = {}
    traced_reps = [r for r in repeats if r["traced"]]
    for rep in traced_reps:
        values = spanlib.layer_metrics(rep["spans"])
        values["trace.wall_s"] = rep["wall"]
        values["experiments.comparison_rows.max_abs_err"] = rep["max_abs_err"] or 0.0
        command_spans = [s for s in rep["spans"] if s["name"].startswith("cli.")]
        values["trace.command_coverage"] = (
            sum(s["end"] - s["start"] for s in command_spans) / rep["wall"]
        )
        for key, value in values.items():
            layers.setdefault(key, []).append(value)
    layer_medians = {k: statistics.median(v) for k, v in layers.items()}
    if traced_reps and plain:
        layer_medians["trace.overhead_s"] = (
            layer_medians["trace.wall_s"] - statistics.median(samples["wall_s"])
        )

    if trace:
        metrics = {m["name"]: {"value": layer_medians.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": median_or_zero(samples[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    manifest = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_commit": read_git_commit(root),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "derived_config": config,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "inputs_sha256": input_digests,
        "outputs_sha256": ledger.first,
        "repeats": {"untraced": len(plain), "traced": len(traced_reps)},
        "sample_counts": {k: len(v) for k, v in samples.items()}
        | {k: len(v) for k, v in layers.items()},
        "samples": samples,
    }
    return {
        "name": workload.name,
        "checker": checker,
        "samples": samples,
        "layers": layer_medians,
        "traced_repeats": len(traced_reps),
        "metrics": metrics,
        "manifest": manifest,
        "stderr": runner.stderr_tail() if checker.failed else [],
    }


def describe(result: dict, spec: dict) -> list[str]:
    """Human-readable lines for one workload's result."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["mitigated_max_abs_err"] = "1"
    lines = [f"== {result['name']}"]
    for name, values in result["samples"].items():
        tail = tail_percentile(values)
        tail_text = f"p{tail[0]:.0f} {tail[1]:.6g}" if tail else "tail n/a (<11 samples)"
        lines.append(f"  {name:<24} median {median_or_zero(values):.6g} {units[name]}"
                     f"  {tail_text}  n={len(values)}")
    checker = result["checker"]
    lines.append(f"  ops_failed {checker.failed} of ops_attempted {checker.attempted}")
    lines.extend(f"  FAILED {label}" for label in checker.failures[:20])
    lines.extend(f"  stderr: {line}" for line in result["stderr"])
    layers = result["layers"]
    if layers:
        wall = layers["trace.wall_s"]
        lines.append(f"  traced repeats n={result['traced_repeats']}; share of traced wall"
                     f" {wall:.4g} s:")
        timed = {k: v for k, v in layers.items() if k.endswith(".s") or k.endswith("self_s")}
        for key, value in sorted(timed.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {key:<40} {value:10.4f} s  {100 * value / wall:5.1f}%")
        listed = {m["name"] for m in spec["per_layer"]}
        for key, value in sorted(layers.items()):
            if key in listed and key not in timed:
                lines.append(f"    {key:<40} {value:.6g}")
    lines.append("manifest " + json.dumps(result["manifest"], sort_keys=True))
    return lines


def summary_line(results: list[dict]) -> dict:
    single = len(results) == 1
    metrics = {}
    for result in results:
        for name, metric in result["metrics"].items():
            metrics[name if single else f"{result['name']}.{name}"] = metric
    attempted = sum(r["checker"].attempted for r in results)
    failed = sum(r["checker"].failed for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "xshadow" / "cli.py").is_file():
        print(f"error: no xshadow sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), root, spec)
        print("\n".join(describe(result, spec)), flush=True)
        results.append(result)
    summary = summary_line(results)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
