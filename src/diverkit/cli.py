"""Command-line front end.

Subcommands: ``synth`` (render scenes), ``track`` (detect over a sequence),
``decode`` (gesture stream to instructions), ``follow`` (closed-loop servo
simulation), ``experiment`` (spec-driven runs), ``bench`` (op counts and
per-cycle wall time of the tracker on random evidence).

Exit codes: 0 success, 1 validation/config error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, harness, lang, raster, servo, synth, tracker
from .core import TrackerConfig, ValidationError, grid_for, integer, load_tracker_config
from .core import read_json, write_json, write_jsonl
from .gesture import RECOGNIZERS, GesturePairToken, recognize_sequence
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
    p.add_argument("--recognizer", choices=RECOGNIZERS, default="oracle")
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
    p.add_argument(
        "--backend", choices=["numpy"], default="numpy", help="kernel implementation named in the rows"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="also write rows as JSON")
    return parser


def cmd_synth(args) -> int:
    raw = read_json(args.spec, f"{args.kind} scene spec")
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


def cmd_track(args) -> int:
    manifest = raster.read_manifest(args.seq)
    truth = synth.GroundTruth.from_dict(raster.read_truth(args.seq) or {})
    cfg = TrackerConfig() if args.config is None else load_tracker_config(args.config)
    # frames stream into the tracker; nothing is written until every one is read
    results = tracker.track_sequence(raster.iter_sequence(args.seq), cfg)
    write_jsonl(args.out, results)
    if truth.centers is not None:
        grid = grid_for(cfg, manifest["width"], manifest["height"])
        report = harness.score_detection(results, truth, cfg, grid)
        summary = sys.stderr if args.out == "-" else sys.stdout  # stdout stays pure JSONL
        print(f"cycles: {report.cycles}", *report.render_rows(), sep="\n", file=summary)
    return 0


def _read_token_stream(path: str) -> list[GesturePairToken]:
    stream = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                stream.append(GesturePairToken.from_record(json.loads(line)))
            except (ValueError, RecursionError) as exc:  # bad JSON or bytes, or a bad record
                raise ValidationError(f"{path}:{line_no}: bad token line ({exc})") from None
    return stream


def cmd_decode(args) -> int:
    mapping = lang.load_mapping(args.mapping)
    if args.tokens:
        stream = _read_token_stream(args.tokens)
    else:
        raster.read_manifest(args.seq)  # a missing directory is an I/O error, before truth
        truth = synth.GroundTruth.from_dict(raster.read_truth(args.seq) or {})
        frames = raster.iter_sequence(args.seq)
        stream = recognize_sequence(frames, args.recognizer, truth.gesture_labels)
    write_jsonl(args.out, lang.decode(stream, mapping))
    return 0


def cmd_follow(args) -> int:
    scene = servo.FollowScene(
        args.offset_x, args.offset_y, args.duration_s, args.fps, args.distance_ratio
    )
    last = scene.run(servo.load_gains(args.gains), args.out)[-1]
    if last.errors is not None:
        ex, ey, ea = last.errors
        print(f"final ex={ex:.4f} ey={ey:.4f} ea={ea:.4f}")
    else:
        print("target not detected at the end of the run")
    return 0


def cmd_experiment(args) -> int:
    spec = read_json(args.spec, "experiment spec")
    report = harness.run_experiment(spec, out_dir=args.out)
    out_dir = args.out if args.out is not None else spec.get("out")
    print(f"report written to {Path(out_dir) / 'report.json'}")
    return 0


def _counts(flag: str, value: str) -> list[int]:
    """A flag's comma-separated counts, each an integer >= 1."""
    try:
        counts = [integer(v) for v in value.split(",") if v]
    except ValueError:
        raise ValidationError(f"{flag} takes comma-separated integers, got {value!r}") from None
    if not counts or min(counts) < 1:
        raise ValidationError(f"{flag} needs at least one integer, each >= 1, got {value!r}")
    return counts


# The most bytes of the (cycles, T, M) float64 evidence that bench draws up front for
# one row: 1 GiB is 2^27 evidence values, 46,603 cycles at M = 192 and T = 15, or
# 8 cycles at the largest M = T = 4096.
BENCH_EVIDENCE_MAX = 2**30


def cmd_bench(args) -> int:
    m_list, t_list = _counts("--M", args.M), _counts("--T", args.T)
    if args.cycles < 1:
        raise ValidationError(f"--cycles must be >= 1, got {args.cycles}")
    if args.seed < 0:  # np.random.default_rng takes non-negative seeds only
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    # each tracker has its M windows in one row: the table update costs M^2 in any layout;
    # every size is checked before the header, so a refusal comes before any output
    sizes = [(m, TrackerConfig(slide=t, pool=min(5, m), stride=t)) for m in m_list for t in t_list]
    for m, cfg in sizes:
        grid_for(cfg, 30 * m, 30)
        if 8 * args.cycles * cfg.slide * m > BENCH_EVIDENCE_MAX:
            raise ValidationError(
                f"--cycles {args.cycles} at M = {m}, T = {cfg.slide} would draw "
                f"{8 * args.cycles * cfg.slide * m / 2**30:.1f} GiB of evidence, over 1 GiB"
            )
    rng = np.random.default_rng(args.seed)
    rows = []
    header = f"{'M':>6} {'T':>4} {'backend':>8} {'cycles':>7} {'trans_evals':>12} {'dft_mults':>10} {'ms/cycle':>9}"
    print(header)
    for m, cfg in sizes:
        t = cfg.slide
        trk = tracker.Tracker(cfg, 30 * m, 30)
        evidence = rng.uniform(0.0, 255.0, (args.cycles, t, m))
        start = time.perf_counter()
        for k in range(args.cycles):
            trk.detect(evidence[k], k)
        elapsed = time.perf_counter() - start
        counters = trk.counters
        expected = args.cycles * t * m * m
        if counters.transition_evals != expected:
            raise StateError(f"counter mismatch: {counters.transition_evals} != {expected}")
        row = {
            "M": m,
            "T": t,
            "backend": args.backend,
            "cycles": args.cycles,
            "transition_evals": counters.transition_evals,
            "dft_mults": counters.dft_mults,
            "ms_per_cycle": 1000.0 * elapsed / args.cycles,
        }
        rows.append(row)
        print(
            f"{m:>6} {t:>4} {args.backend:>8} {args.cycles:>7} "
            f"{counters.transition_evals:>12} {counters.dft_mults:>10} "
            f"{row['ms_per_cycle']:>9.3f}"
        )
    if args.out:
        write_json(args.out, rows)
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
    except OSError as exc:  # CorruptFrameError included
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
