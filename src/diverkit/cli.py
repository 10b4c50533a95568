"""Command-line front end.

Subcommands: ``synth`` (render scenes), ``track`` (detect over a sequence),
``decode`` (gesture stream to instructions), ``follow`` (closed-loop servo
simulation), ``experiment`` (spec-driven runs), ``bench`` (op counts and
wall time per backend).

Exit codes: 0 success, 1 validation/config error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, harness, kernels, lang, raster, servo, synth, tracker
from .core import (
    GridConfig,
    TrackerConfig,
    ValidationError,
    grid_for,
    load_tracker_config,
    luminance,
)
from .gesture import GesturePairToken, OracleRecognizer, ShapeRecognizer
from .raster import CorruptFrameError
from .tracker import StateError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diverkit",
        description="Periodic-motion diver tracking, gesture decoding, follow control",
    )
    parser.add_argument("--version", action="version", version=f"diverkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic scene to disk")
    p.add_argument("--kind", choices=["diver", "gesture"], required=True)
    p.add_argument("--spec", required=True, help="scene spec JSON file")
    p.add_argument("--out", required=True, help="output sequence directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")

    p = sub.add_parser("track", help="run the tracker over a frame sequence")
    p.add_argument("--seq", required=True, help="sequence directory")
    p.add_argument("--config", default=None, help="tracker config JSON")
    p.add_argument("--out", default="-", help="detections JSONL file ('-' = stdout)")

    p = sub.add_parser("decode", help="decode gesture pairs into instructions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tokens", help="gesture-pair token JSONL file")
    group.add_argument("--seq", help="RGB sequence directory")
    p.add_argument("--mapping", default=None, help="mapping table JSON")
    p.add_argument("--recognizer", choices=["oracle", "shape"], default="oracle")
    p.add_argument("--out", default="-", help="instructions JSONL file ('-' = stdout)")

    p = sub.add_parser("follow", help="closed-loop follow simulation")
    p.add_argument("--gains", default=None, help="gains JSON file")
    p.add_argument("--out", required=True, help="trajectory log CSV")
    p.add_argument("--offset-x", type=float, default=0.3)
    p.add_argument("--offset-y", type=float, default=0.0)
    p.add_argument("--distance-ratio", type=float, default=1.25)
    p.add_argument("--duration-s", type=float, default=10.0)
    p.add_argument("--fps", type=float, default=10.0)

    p = sub.add_parser("experiment", help="run an experiment spec")
    p.add_argument("--spec", required=True, help="experiment spec JSON")
    p.add_argument("--out", default=None, help="override the spec's output directory")

    p = sub.add_parser("bench", help="op counts and per-cycle wall time")
    p.add_argument("--M", required=True, help="comma-separated window counts")
    p.add_argument("--T", required=True, help="comma-separated slide sizes")
    p.add_argument("--cycles", type=int, default=20)
    p.add_argument("--backend", choices=["both", "numba", "numpy"], default="both")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="also write rows as JSON")
    return parser


def cmd_synth(args) -> int:
    with open(args.spec) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{args.spec}: not valid JSON ({exc})") from exc
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.kind == "diver":
        spec = synth.DiverSceneSpec.from_dict(raw)
        frames, truth = synth.render_diver_sequence(spec)
    else:
        spec = synth.GestureSceneSpec.from_dict(raw)
        frames, truth = synth.render_gesture_sequence(spec)
    raster.write_sequence(args.out, frames)
    raster.write_truth(args.out, truth.to_dict())
    print(f"wrote {len(frames)} frames to {args.out}")
    return 0


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def cmd_track(args) -> int:
    frames = raster.read_sequence(args.seq)
    cfg = load_tracker_config(args.config) if args.config else TrackerConfig()
    gray = [luminance(f) for f in frames]
    results = tracker.track_sequence(gray, cfg)
    out, close = _open_out(args.out)
    try:
        for result in results:
            out.write(json.dumps(result.to_record(), sort_keys=True) + "\n")
    finally:
        if close:
            out.close()
    truth_raw = raster.read_truth(args.seq)
    if truth_raw is not None and "centers" in truth_raw:
        truth = synth.GroundTruth.from_dict(truth_raw)
        grid = grid_for(cfg, frames[0].width, frames[0].height)
        report = harness.score_detection(results, truth, cfg, grid)
        print(f"cycles: {report.cycles}")
        for row in report.render_rows():
            print(row)
    return 0


def _read_token_stream(path: str) -> list[GesturePairToken]:
    stream = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                stream.append(GesturePairToken.from_record(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{line_no}: bad token line ({exc})") from exc
    return stream


def cmd_decode(args) -> int:
    mapping = lang.load_mapping(args.mapping)
    if args.tokens:
        stream = _read_token_stream(args.tokens)
    else:
        frames = raster.read_sequence(args.seq)
        if args.recognizer == "oracle":
            truth_raw = raster.read_truth(args.seq)
            if truth_raw is None or "gesture_labels" not in truth_raw:
                raise ValidationError(
                    f"{args.seq}: oracle recognizer needs truth.json with gesture labels"
                )
            recognizer = OracleRecognizer(
                [tuple(p) for p in truth_raw["gesture_labels"]]
            )
        else:
            if any(f.channels != 3 for f in frames):
                raise ValidationError(f"{args.seq}: the shape recognizer needs an RGB sequence")
            recognizer = ShapeRecognizer()
        stream = [recognizer(f, i) for i, f in enumerate(frames)]
    instructions = lang.decode(stream, mapping)
    out, close = _open_out(args.out)
    try:
        for instruction in instructions:
            out.write(json.dumps(instruction.to_record(), sort_keys=True) + "\n")
    finally:
        if close:
            out.close()
    return 0


def cmd_follow(args) -> int:
    config = servo.load_gains(args.gains)
    world = servo.make_offset_world(
        args.offset_x, args.offset_y, config, distance_ratio=args.distance_ratio
    )
    bank = servo.PidBank(config)
    rows = servo.follow_loop(
        world.observe,
        bank,
        args.duration_s,
        args.fps,
        frame_w=world.camera.frame_w,
        frame_h=world.camera.frame_h,
    )
    servo.write_follow_log(args.out, rows)
    last = rows[-1]
    if last.errors is not None:
        ex, ey, ea = last.errors
        print(f"final ex={ex:.4f} ey={ey:.4f} ea={ea:.4f}")
    else:
        print("target not detected at the end of the run")
    return 0


def cmd_experiment(args) -> int:
    spec = harness.load_experiment_spec(args.spec)
    report = harness.run_experiment(spec, out_dir=args.out)
    out_dir = args.out if args.out is not None else spec.get("out")
    print(f"report written to {Path(out_dir) / 'report.json'}")
    return 0


def _grid_shape(num_windows: int) -> tuple[int, int]:
    cols = max(int(math.isqrt(num_windows)), 1)
    while num_windows % cols:
        cols += 1
    return cols, num_windows // cols


def cmd_bench(args) -> int:
    m_list = [int(v) for v in args.M.split(",") if v]
    t_list = [int(v) for v in args.T.split(",") if v]
    if not m_list or not t_list:
        raise ValidationError("--M and --T need at least one value each")
    backends = ["numba", "numpy"] if args.backend == "both" else [args.backend]
    backends = [b for b in backends if b == "numpy" or kernels.HAS_NUMBA]
    rng = np.random.default_rng(args.seed)
    rows = []
    header = f"{'M':>6} {'T':>4} {'backend':>8} {'cycles':>7} {'trans_evals':>12} {'dft_mults':>10} {'ms/cycle':>9}"
    print(header)
    for m in m_list:
        cols, grid_rows = _grid_shape(m)
        for t in t_list:
            cfg = TrackerConfig(slide=t, pool=min(5, m), stride=t)
            grid = GridConfig(cols * 30, grid_rows * 30, 30, 30)
            log_trans = tracker.transition_log_matrix(grid)
            evidence = rng.uniform(0.0, 255.0, (args.cycles, t, m))
            for backend in backends:
                kernels.warmup(backend)
                counters = tracker.OpCounters()
                start = time.perf_counter()
                for k in range(args.cycles):
                    tracker.detect_from_evidence(
                        evidence[k], cfg, grid, log_trans, k, counters, backend
                    )
                elapsed = time.perf_counter() - start
                expected = args.cycles * t * m * m
                if counters.transition_evals != expected:
                    raise StateError(
                        f"counter mismatch: {counters.transition_evals} != {expected}"
                    )
                row = {
                    "M": m,
                    "T": t,
                    "backend": backend,
                    "cycles": args.cycles,
                    "transition_evals": counters.transition_evals,
                    "dft_mults": counters.dft_mults,
                    "ms_per_cycle": 1000.0 * elapsed / args.cycles,
                }
                rows.append(row)
                print(
                    f"{m:>6} {t:>4} {backend:>8} {args.cycles:>7} "
                    f"{counters.transition_evals:>12} {counters.dft_mults:>10} "
                    f"{row['ms_per_cycle']:>9.3f}"
                )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "track": cmd_track,
    "decode": cmd_decode,
    "follow": cmd_follow,
    "experiment": cmd_experiment,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValidationError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CorruptFrameError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
