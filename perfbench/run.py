"""Pipeline benchmark for diverkit: track, decode and follow, end to end.

One workload per call; the last line of standard output is the JSON result::

    python3 perfbench/run.py --workload track-online --seed 7 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` spends half the time untraced and half with every layer's
public entry points wrapped in span recorders, and reports the per-layer
metrics plus the tracing overhead. Every run checks the outputs and exits 1
when a correctness gate fails. ``--workload all`` runs each workload in its
own process and prints every metric by name and unit.

The toolkit is imported from ``src/`` next to this directory, with the numpy
kernel lane and one BLAS thread. Work files and results go to
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# per-layer metrics read from the correctness gates' quality figures
QUALITY_METRICS = {
    "harness.positive_pct": "positive_pct",
    "harness.wrong_pct": "wrong_pct",
    "harness.instr_accuracy_pct": "instr_accuracy_pct",
    "servo.converged_pct": "converged_pct",
}


def parse_args(names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: the spec's seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--role", choices=["main", "setup", "generate"], default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args()


def environment() -> dict:
    import numpy
    import scipy
    from diverkit import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.active_backend(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def child(args, role: str, seed: int, workdir: Path) -> str:
    cmd = [sys.executable, __file__, "--role", role, "--workload", args.workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    return subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120).stdout


def probe_setup(args) -> int:
    """Child process: time the toolkit import plus pipeline set-up."""
    start = perf_counter()
    import diverkit.cli  # noqa: F401  (pulls in every module of the toolkit)

    imported = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.prepare_warm()  # warm-up input is scene generation, not set-up
    built = perf_counter()
    wl.setup()
    done = perf_counter()
    print(json.dumps({"setup_s": (imported - start) + (done - built)}))
    return 0


def measure(args, spec: dict, workdir: Path) -> int:
    import numpy as np

    import layers
    import workloads
    from tracing import SpanRecorder

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.generate()
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            setup_samples.append(json.loads(child(args, "setup", wl.seed, workdir))["setup_s"])
    wl.prepare_warm()
    wl.setup()

    recorder = None
    if args.trace:
        base = wl.run(args.seconds / 2)
        recorder = SpanRecorder()
        recorder.install(layers.TARGETS, layers.HOOKS)
        try:
            traced = wl.run(args.seconds / 2, recorder)
        finally:
            recorder.uninstall()
        phases = [base, traced]
    else:
        phases = [wl.run(args.seconds)]
    verdict = wl.check(phases)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if verdict.attempted == 0:
        verdict.attempted = verdict.failed = 1
        verdict.errors.append("no operation completed")

    report = {
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "quality": verdict.quality,
        "fail_ratio": verdict.failed / verdict.attempted,
        "errors": verdict.errors[:20],
        "score_rtol": workloads.SCORE_RTOL,
        "peak_rss_note": "includes the inputs held in memory; track-table1 renders in a child",
    }
    if args.trace:
        spans = recorder.summary()
        values = layers.layer_metrics(spans, recorder.counts, traced.frames, wl.extras(traced))
        values["synth.render_ms_per_frame"] = wl.render_ms_per_frame
        for name, key in QUALITY_METRICS.items():
            values[name] = verdict.quality.get(key)
        base_ms = 1000.0 * base.wall / max(base.frames, 1)
        traced_ms = 1000.0 * traced.wall / max(traced.frames, 1)
        values["trace.overhead_ms_per_frame"] = traced_ms - base_ms
        values["trace.overhead_pct"] = 100.0 * (traced_ms / base_ms - 1.0)
        report["spans"] = {
            name: {**s, "self_ms_per_frame": 1000.0 * s["self_s"] / max(traced.frames, 1)}
            for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])
        }
        report["counts"] = recorder.counts
        report["absent"] = sorted(k for k, v in values.items() if v is None)
        wanted = spec["per_layer"]
    else:
        latency = np.asarray(phases[0].latency_ms)
        p50, p95 = np.percentile(latency, [50, 95]) if len(latency) else (0.0, 0.0)
        values = {
            # set-up has a fixed floor (the imports); the fastest child is the
            # estimate least moved by other load on the machine
            "setup_s": min(setup_samples),
            "throughput_fps": phases[0].frames / phases[0].wall,
            "frame_ms_p50": float(p50),
            "peak_rss_mb": peak_rss_mb,
        }
        # p95 is reported but is not a metric with a regression bound: on a
        # shared 2-vCPU VM its spread over ten seeds (IQR/median 0.3-0.5) is
        # set by bursts of CPU steal, not by the program
        report["latency"] = {
            "what": wl.latency_what, "samples": len(latency), "p95_ms": float(p95)
        }
        report["setup_samples_s"] = setup_samples
        wanted = spec["end_to_end"]
    report["metrics"] = values

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{wl.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if recorder is not None:
        recorder.save(results / f"{wl.name}-spans.npz")

    print(f"# {wl.name} seed={wl.seed} trace={args.trace} env={json.dumps(report['env'])}")
    if args.trace:
        for name, s in list(report["spans"].items()):
            state = "absent, 0 calls" if s.get("absent") else f"{s['calls']} calls"
            print(f"#   span {name:38s} self {s['self_ms_per_frame']:10.4f} ms/frame  {state}")
        print(f"# absent on this workload, reported as 0: {', '.join(report['absent'])}")
    else:
        print(f"# latency: {wl.latency_what}; {len(latency)} samples; p95 {p95:.6g} ms")
    print(f"# quality {json.dumps(verdict.quality)} fail_ratio={report['fail_ratio']}")
    for error in verdict.errors[:5]:
        print(f"# GATE FAILED: {error}")
    result = {
        "correct": not verdict.errors,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]] or 0.0, "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec: dict) -> int:
    status = 0
    for name in [w["name"] for w in spec["workloads"]]:
        cmd = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr.strip()}")
            status = 1
            continue
        ok = proc.returncode == 0 and result["correct"]
        status = status or (0 if ok else 1)
        print(f"{name}: {'ok' if ok else 'GATE FAILED'}, "
              f"attempted {result['attempted']}, failed {result['failed']}")
        for line in lines[:-1]:
            if "GATE FAILED" in line or line.startswith("# latency") or line.startswith("# quality"):
                print(f"  {line[2:]}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
    return status


def main() -> int:
    if not (SRC / "diverkit" / "__init__.py").is_file():
        print(f"error: no toolkit source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args([w["name"] for w in spec["workloads"]])
    os.environ["DIVERKIT_BACKEND"] = "numpy"
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))

    if args.role == "setup":
        return probe_setup(args)
    if args.role == "generate":
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, args.workdir).generate_files()
        return 0
    if args.workload == "all":
        return run_all(args, spec)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
