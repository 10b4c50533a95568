"""Scoring against ground truth and experiment orchestration.

Detection cycles are classified positive / missed / wrong: positive when the
tracker fired and its terminal window lies within a Chebyshev grid distance
of the truth window, wrong when it fired farther away, missed when it stayed
silent. Instruction runs are scored by exact AST equality, in order, plus a
token-level accuracy computed on the debounced event streams.

``run_experiment`` drives a whole scenario from a JSON spec and writes
``report.json`` (and logs) into the output directory; everything is a pure
function of the spec's seeds, so reports are byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import lang, raster, servo, synth, tracker
from .core import DetectionResult, GridConfig, TrackerConfig, ValidationError, grid_for, read_json
from .core import fields, read_fields, to_json, write_json, write_jsonl  # table helpers, writers
from .gesture import recognize_sequence
from .synth import DiverSceneSpec, GestureSceneSpec, GroundTruth

POSITIVE = "positive"
MISSED = "missed"
WRONG = "wrong"
KINDS = (POSITIVE, MISSED, WRONG)
TOLERANCE_WINDOWS = 1  # the largest Chebyshev grid distance of a positive detection


@dataclass(frozen=True)
class DetectionReport:
    classifications: tuple[str, ...]
    config: dict = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return len(self.classifications)

    def count(self, kind: str) -> int:
        return self.classifications.count(kind)

    def percentage(self, kind: str) -> float:
        if not self.classifications:
            return 0.0
        return 100.0 * self.count(kind) / self.cycles

    def render_rows(self) -> list[str]:
        """Rows in 'count (pct%)' form, one per category."""
        return [
            f"{kind.capitalize()} detection: {self.count(kind)} ({self.percentage(kind):.1f}%)"
            for kind in KINDS
        ]

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            **{kind: self.count(kind) for kind in KINDS},
            **{f"{kind}_pct": self.percentage(kind) for kind in KINDS},
            "tolerance_windows": TOLERANCE_WINDOWS,
            "per_cycle": list(self.classifications),
            "config": self.config,
        }


def truth_terminal_windows(
    truth: GroundTruth, cfg: TrackerConfig, grid: GridConfig, cycle_count: int
) -> list[int]:
    """Ground-truth window at the last frame of every cycle."""
    if truth.centers is None:
        raise ValidationError("ground truth carries no blob centers")
    windows = []
    for k in range(cycle_count):
        terminal_frame = k * cfg.stride + cfg.slide - 1
        if terminal_frame >= len(truth.centers):
            raise ValidationError(
                f"truth covers {len(truth.centers)} frames but cycle {k} "
                f"ends at frame {terminal_frame}"
            )
        x, y = truth.centers[terminal_frame]
        windows.append(grid.window_index_at(x, y))
    return windows


def score_detection(
    results: list[DetectionResult],
    truth: GroundTruth,
    cfg: TrackerConfig,
    grid: GridConfig,
) -> DetectionReport:
    """Classify every cycle against truth (Chebyshev grid distance)."""
    expected = truth_terminal_windows(truth, cfg, grid, len(results))
    classifications = []
    for result, truth_window in zip(results, expected):
        if not result.detected:
            classifications.append(MISSED)
            continue
        row_d, col_d = grid.grid_coords(result.terminal_window)
        row_t, col_t = grid.grid_coords(truth_window)
        chebyshev = max(abs(row_d - row_t), abs(col_d - col_t))
        classifications.append(POSITIVE if chebyshev <= TOLERANCE_WINDOWS else WRONG)
    return DetectionReport(classifications=tuple(classifications), config=cfg.to_dict())


# ---------------------------------------------------------------------------
# instruction scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstructionReport:
    total_instructions: int
    correct_instructions: int
    total_tokens: int
    correct_tokens: int

    def __post_init__(self):
        if self.correct_instructions > self.total_instructions:
            raise ValidationError("correct instructions exceed the total")
        if self.correct_tokens > self.total_tokens:
            raise ValidationError("correct tokens exceed the total")

    def instruction_accuracy(self) -> float:
        return _accuracy(self.correct_instructions, self.total_instructions)

    def token_accuracy(self) -> float:
        return _accuracy(self.correct_tokens, self.total_tokens)

    def to_dict(self) -> dict:
        return {
            "total_instructions": self.total_instructions,
            "correct_instructions": self.correct_instructions,
            "total_tokens": self.total_tokens,
            "correct_tokens": self.correct_tokens,
            "instruction_accuracy_pct": self.instruction_accuracy(),
            "token_accuracy_pct": self.token_accuracy(),
        }


def _accuracy(correct: int, total: int) -> float:
    """Percentage correct; nothing to get right counts as all right."""
    return 100.0 * correct / total if total else 100.0


def score_instructions(
    decoded: list[lang.Instruction],
    expected: list[lang.Instruction],
    recognized_events: list[tuple[int, lang.Token]],
    expected_events: list[tuple[int, lang.Token]],
) -> InstructionReport:
    """Exact in-order AST comparison plus debounced token-event accuracy."""
    return InstructionReport(
        total_instructions=len(expected),
        correct_instructions=sum(d == e for d, e in zip(decoded, expected)),
        total_tokens=len(expected_events),
        correct_tokens=sum(d == e for (_, d), (_, e) in zip(recognized_events, expected_events)),
    )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def run_experiment(spec: dict, out_dir: str | Path | None = None) -> dict:
    """Run one experiment spec; writes report.json plus logs, returns the report."""
    if "kind" not in spec:
        raise ValidationError("experiment spec missing field 'kind'")
    kind = spec["kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ValidationError(
            f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}"
        )
    run, keys = _EXPERIMENTS[kind]
    required = ("scene",) if out_dir is not None else ("scene", "out")
    table = fields(("kind", *keys), lambda value: value)
    spec = read_fields(spec, table, "experiment spec", required)
    out = out_dir if out_dir is not None else spec["out"]
    if not isinstance(out, (str, Path)):
        raise ValidationError(f"experiment spec 'out' must be a directory name, got {out!r}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)

    report = {"kind": kind, **run(spec, out)}
    write_json(out / "report.json", report)
    return report


def _tracker_config(spec: dict) -> TrackerConfig:
    """The spec's "tracker": an inline config object or a config file name; null is the default."""
    ref = {} if spec.get("tracker") is None else spec["tracker"]
    raw = ref if isinstance(ref, dict) else read_json(ref, "tracker config")
    return TrackerConfig.from_dict(raw)


def _run_track(spec: dict, out: Path) -> dict:
    scene = DiverSceneSpec.from_dict(spec["scene"])
    cfg = _tracker_config(spec)
    frames, truth = synth.render_diver_sequence(scene, window=cfg.window)
    results = tracker.track_sequence(frames, cfg)
    grid = grid_for(cfg, scene.width, scene.height)
    report = score_detection(results, truth, cfg, grid)
    write_jsonl(out / "detections.jsonl", results)
    raster.write_truth(out, truth.to_dict())
    return {"scene": to_json(scene), "detection": report.to_dict()}


def _run_decode(spec: dict, out: Path) -> dict:
    scene = GestureSceneSpec.from_dict(spec["scene"])
    recognizer_name = spec.get("recognizer", "oracle")
    mapping = lang.load_mapping(spec.get("mapping"))
    frames, truth = synth.render_gesture_sequence(scene)

    truth_stream = recognize_sequence(frames, "oracle", truth.gesture_labels)
    stream = recognize_sequence(frames, recognizer_name, truth.gesture_labels)

    decoded = lang.decode(stream, mapping)
    expected = lang.decode(truth_stream, mapping)
    events = lang.debounce(stream, mapping)
    expected_events = lang.debounce(truth_stream, mapping)
    report = score_instructions(decoded, expected, events, expected_events)

    write_jsonl(out / "tokens.jsonl", stream)
    write_jsonl(out / "instructions.jsonl", decoded)
    return {
        "scene": to_json(scene),
        "recognizer": recognizer_name,
        "instructions": report.to_dict(),
        "decoded": [i.to_record() for i in decoded],
        "expected": [i.to_record() for i in expected],
    }


def _run_follow(spec: dict, out: Path) -> dict:
    scene = servo.FollowScene.from_dict(spec["scene"])
    config = servo.load_gains(spec.get("gains"))
    rows = scene.run(config, out / "follow_log.csv")

    last = rows[-1]
    converged = False
    final = {"detected": last.detected}
    if last.errors is not None:
        ex, ey, ea = last.errors
        area = config.target_area_fraction - ea
        rel_area_error = abs(area - config.target_area_fraction) / config.target_area_fraction
        converged = abs(ex) < 0.05 and abs(ey) < 0.05 and rel_area_error <= 0.10
        final.update(
            {"ex": ex, "ey": ey, "ea": ea, "rel_area_error": rel_area_error}
        )
    return {
        "scene": to_json(scene),
        "gains": to_json(config),
        "converged": converged,
        "steps": len(rows),
        "final": final,
    }


# experiment kind -> (runner, the other keys its spec may hold)
_EXPERIMENTS = {
    "track": (_run_track, ("scene", "tracker", "out")),
    "decode": (_run_decode, ("scene", "recognizer", "mapping", "out")),
    "follow": (_run_follow, ("scene", "gains", "out")),
}
EXPERIMENT_KINDS = tuple(_EXPERIMENTS)
