"""The four closed-loop workloads and their correctness gates.

Every workload has one caller that feeds the next frame (or control step)
only after the previous result came back. Inputs are generated from the seed
before timing; set-up builds the pipeline objects and pushes one warm-up
input through them, so first-call costs stay out of the timed loop.

- track-table1: the paper's Table 1 path through the real ``track`` command,
  PGM read and blur-heavy evidence; Viterbi + DFT is a few percent.
- track-online: one detection per frame (stride 1, 20x20 windows, M=192) on
  an in-memory scene; the Viterbi table dominates, no disk I/O.
- decode-shape: shape recognizer plus streaming decoder on noisy gesture
  frames; the only workload where ``gesture`` and ``lang`` do the work.
- follow-oracle: PID bank and kinematics against the oracle world; pure
  Python per control step, so ``servo`` and shared ``core`` types show here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from array import array
from collections import deque
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from time import perf_counter

import numpy as np

from diverkit import cli, gesture, harness, kernels, lang, raster, servo, synth, tracker
from diverkit.core import Frame, TrackerConfig, grid_for, luminance

# Relative tolerance on detection scores; every other record field must match
# exactly. The compared paths run the same arithmetic, so any drift beyond
# float round-off is a real difference.
SCORE_RTOL = 1e-9

# Absolute detection floor, from the repo's own criterion c3: at least 85%
# positive and at most 5% wrong cycles on the Table 1 configuration. The
# equality gates compare the tracker with itself, so a change that makes
# detection worse passes them; this floor does not. At stride 1 with 20x20 windows
# every cycle reports a box and wrong is the complement of positive (8-11% on
# the seed code), so there the wrong ceiling is the complement of c3's floor.
MIN_POSITIVE_PCT = 85.0
# Absolute tolerance of the kernel checks against independent references, in
# gray levels (evidence) and spectrum units (DFT of a 0-255 series).
EVIDENCE_ATOL = 1e-9
DFT_ATOL = 1e-6


def experiment_scene(name: str) -> dict:
    """Scene block of a bundled experiment spec."""
    text = resources.files("diverkit").joinpath("data", "experiments", name).read_text()
    return dict(json.loads(text)["scene"])


def records_match(got: dict, want: dict) -> bool:
    """Detection records equal, with the score compared to ``SCORE_RTOL``."""
    if {k: v for k, v in got.items() if k != "score"} != {
        k: v for k, v in want.items() if k != "score"
    }:
        return False
    return math.isclose(got["score"], want["score"], rel_tol=SCORE_RTOL, abs_tol=SCORE_RTOL)


def counter_errors(counters, cycles: int, cfg: TrackerConfig, windows: int) -> list[str]:
    """The tracker's exact work counts: cycles*T*M^2 and cycles*p*T^2."""
    errors = []
    want = cycles * cfg.slide * windows * windows
    if counters.transition_evals != want:
        errors.append(f"transition_evals {counters.transition_evals} != {want}")
    want = cycles * cfg.pool * cfg.slide * cfg.slide
    if counters.dft_mults != want:
        errors.append(f"dft_mults {counters.dft_mults} != {want}")
    return errors


def quality_errors(quality: dict, max_wrong_pct: float) -> list[str]:
    """Detection quality below the absolute floor."""
    errors = []
    if not quality["positive_pct"] >= MIN_POSITIVE_PCT:
        errors.append(f"positive {quality['positive_pct']:.2f}% < {MIN_POSITIVE_PCT}%")
    if not quality["wrong_pct"] <= max_wrong_pct:
        errors.append(f"wrong {quality['wrong_pct']:.2f}% > {max_wrong_pct}%")
    return errors


def reference_evidence(pixels: np.ndarray, cfg: TrackerConfig, grid) -> np.ndarray:
    """Evidence made without the toolkit: scipy blur, then row-major window means."""
    # imported here, so the set-up probe still pays the toolkit's own scipy import
    from scipy.ndimage import gaussian_filter

    blurred = gaussian_filter(pixels, cfg.gauss_sigma, truncate=3.0, mode="reflect")
    crop = blurred[: grid.rows * grid.window_h, : grid.cols * grid.window_w]
    windows = crop.reshape(grid.rows, grid.window_h, grid.cols, grid.window_w)
    return windows.mean(axis=(1, 3)).ravel()


def kernel_errors(frames: list, cfg: TrackerConfig, seed: int) -> list[str]:
    """Evidence, Viterbi step and DFT of the toolkit against independent references.

    The other track gates compare the toolkit with itself, so a change that
    alters what the kernels compute (a wrong blur sigma, say) passes them.
    """
    errors = []
    trk = tracker.Tracker(cfg, frames[0].width, frames[0].height)
    for i in (0, len(frames) // 2, len(frames) - 1):
        got = trk.evidence(frames[i])
        want = reference_evidence(frames[i].pixels, cfg, trk.grid)
        if got.shape != want.shape or not np.allclose(got, want, rtol=0, atol=EVIDENCE_ATOL):
            errors.append(f"evidence of frame {i} differs from the scipy blur + window means")
    rng = np.random.default_rng(seed)
    m = trk.grid.num_windows
    log_mu, log_lik = rng.normal(size=m), rng.normal(size=m)
    scores = trk.log_trans + log_mu[:, None]
    mu, backptr, _ = kernels.viterbi_step(log_mu, trk.log_trans, log_lik)
    if not np.array_equal(backptr, scores.argmax(axis=0)) or not np.allclose(
        mu, scores.max(axis=0) + log_lik, rtol=0, atol=1e-12
    ):
        errors.append("viterbi_step differs from the direct max over predecessors")
    series = rng.uniform(0.0, 255.0, cfg.slide)
    spectrum, _ = kernels.dft_direct(series)
    if not np.allclose(spectrum, np.fft.fft(series), rtol=0, atol=DFT_ATOL):
        errors.append("dft_direct differs from numpy's FFT")
    return errors


def detection_quality(results, truth, cfg: TrackerConfig, width: int, height: int) -> dict:
    report = harness.score_detection(results, truth, cfg, grid_for(cfg, width, height))
    return {
        "positive_pct": report.percentage("positive"),
        "wrong_pct": report.percentage("wrong"),
        "cycles": report.cycles,
    }


@dataclass
class Phase:
    """One timed closed loop: frames done, timed wall and what came out."""

    frames: int = 0
    wall: float = 0.0
    latency_ms: array = field(default_factory=lambda: array("d"))
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)


class Workload:
    name = ""
    default_seed = 0
    latency_what = "frame in to result out"

    def __init__(self, seed: int | None, workdir: Path):
        self.seed = self.default_seed if seed is None else seed
        self.workdir = Path(workdir)
        self.render_ms_per_frame: float | None = None  # scene generation, for the trace

    def generate(self) -> None:
        """Build this seed's inputs (untimed, not part of set-up)."""

    def prepare_warm(self) -> None:
        """Make the warm-up input that :meth:`setup` pushes through."""

    def setup(self) -> None:
        """Build the pipeline objects and run one warm-up input."""

    def run(self, seconds: float, recorder=None) -> Phase:
        raise NotImplementedError

    def check(self, phases: list[Phase]) -> Verdict:
        raise NotImplementedError

    def extras(self, phase: Phase) -> dict:
        """Per-layer figures that come from outputs rather than spans."""
        return {}


# ---------------------------------------------------------------------------
# track-table1
# ---------------------------------------------------------------------------


class TrackTable1(Workload):
    name = "track-table1"
    default_seed = 7
    latency_what = "one track command over the sequence, divided by its frames"
    max_wrong_pct = 5.0

    @property
    def seq(self) -> Path:
        return self.workdir / "seq"

    @property
    def warm_seq(self) -> Path:
        return self.workdir / "warm"

    def generate_files(self) -> None:
        """Write the sequence and the reference detections (child process)."""
        raw = experiment_scene("table1_desk.json")
        raw["seed"] = self.seed
        spec = synth.DiverSceneSpec.from_dict(raw)
        cfg = TrackerConfig()
        start = perf_counter()
        frames, truth = synth.render_diver_sequence(spec)
        render_s = perf_counter() - start
        raster.write_sequence(self.seq, frames)
        raster.write_truth(self.seq, truth.to_dict())
        raster.write_sequence(self.warm_seq, frames[: cfg.slide])
        warm_truth = synth.GroundTruth(
            centers=truth.centers[: cfg.slide], windows=truth.windows[: cfg.slide]
        )
        raster.write_truth(self.warm_seq, warm_truth.to_dict())
        del frames

        gray = [luminance(f) for f in raster.read_sequence(self.seq)]
        counters = tracker.OpCounters()
        results = tracker.track_sequence(gray, cfg, counters)
        grid = grid_for(cfg, spec.width, spec.height)
        reference = {
            "records": [r.to_record() for r in results],
            "frames": len(gray),
            "render_ms_per_frame": 1000.0 * render_s / spec.frames,
            "counter_errors": counter_errors(counters, len(results), cfg, grid.num_windows),
            "kernel_errors": kernel_errors(gray, cfg, self.seed),
            **detection_quality(results, truth, cfg, spec.width, spec.height),
        }
        (self.workdir / "reference.json").write_text(json.dumps(reference))

    def generate(self) -> None:
        # a child renders, so the frames stay out of this process's peak RSS
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--role", "generate",
             "--workload", self.name, "--seed", str(self.seed), "--workdir", str(self.workdir)],
            check=True,
            timeout=300,
        )
        self.reference = json.loads((self.workdir / "reference.json").read_text())
        self.render_ms_per_frame = self.reference["render_ms_per_frame"]

    def _track(self, seq: Path, out: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["track", "--seq", str(seq), "--out", str(out)])

    def setup(self) -> None:
        code = self._track(self.warm_seq, self.workdir / "warm.jsonl")
        if code != 0:
            raise RuntimeError(f"warm-up track command exited {code}")

    def run(self, seconds, recorder=None):
        phase = Phase()
        frames = self.reference["frames"]
        out = self.workdir / "detections.jsonl"
        while phase.wall < seconds:
            if recorder is not None:
                recorder.current_op = phase.frames
            start = perf_counter()
            code = self._track(self.seq, out)
            elapsed = perf_counter() - start
            phase.wall += elapsed
            phase.frames += frames
            phase.latency_ms.append(1000.0 * elapsed / frames)
            lines = out.read_text().splitlines() if code == 0 else []
            phase.outputs.append((code, [json.loads(line) for line in lines]))
        return phase

    def check(self, phases):
        verdict = Verdict(
            quality={k: self.reference[k] for k in ("positive_pct", "wrong_pct", "cycles")}
        )
        bad_run = (
            self.reference["counter_errors"]
            + self.reference["kernel_errors"]
            + quality_errors(verdict.quality, self.max_wrong_pct)
        )
        verdict.errors += bad_run
        want = self.reference["records"]
        for phase in phases:
            for code, records in phase.outputs:
                verdict.attempted += 1
                same = code == 0 and len(records) == len(want) and all(
                    records_match(g, w) for g, w in zip(records, want)
                )
                if not same:
                    verdict.errors.append(
                        f"track command (exit {code}) differs from track_sequence"
                    )
                if bad_run or not same:
                    verdict.failed += 1
        return verdict


# ---------------------------------------------------------------------------
# track-online
# ---------------------------------------------------------------------------


class TrackOnline(Workload):
    name = "track-online"
    default_seed = 7
    latency_what = "evidence + detection over the last T frames, frames with a result"
    cfg = TrackerConfig(window_w=20, window_h=20, stride=1)
    max_wrong_pct = 100.0 - MIN_POSITIVE_PCT

    def generate(self):
        raw = experiment_scene("table1_desk.json")
        raw["seed"] = self.seed
        spec = synth.DiverSceneSpec.from_dict(raw)
        start = perf_counter()
        self.frames, truth = synth.render_diver_sequence(
            spec, window=(self.cfg.window_w, self.cfg.window_h)
        )
        self.render_ms_per_frame = 1000.0 * (perf_counter() - start) / spec.frames
        batch = tracker.track_sequence(self.frames, self.cfg)
        self.reference = [r.to_record() for r in batch]
        self.quality = detection_quality(batch, truth, self.cfg, spec.width, spec.height)
        self.kernel_errors = kernel_errors(self.frames, self.cfg, self.seed)

    def prepare_warm(self):
        self.warm_frame = Frame(np.full((240, 320), 160.0))

    def setup(self):
        warm = self.warm_frame
        self.tracker = tracker.Tracker(self.cfg, warm.width, warm.height)
        evidence = self.tracker.evidence(warm)
        self.tracker.detect(np.stack([evidence] * self.cfg.slide))

    def run(self, seconds, recorder=None):
        phase = Phase()
        slide = self.cfg.slide
        self.tracker.counters.reset()
        ring = deque(maxlen=slide)
        i = len(self.frames)
        t_end = perf_counter() + seconds
        start = perf_counter()
        now = start
        while now < t_end:
            if i == len(self.frames):  # replay the scene as a fresh stream
                i = 0
                ring.clear()
            if recorder is not None:
                recorder.current_op = phase.frames
            t0 = now
            ring.append(self.tracker.evidence(self.frames[i]))
            result = None
            if len(ring) == slide:
                result = self.tracker.detect(np.stack(ring), i - slide + 1)
            now = perf_counter()
            if result is not None:
                phase.latency_ms.append(1000.0 * (now - t0))
                phase.outputs.append(result.to_record())
            phase.frames += 1
            i += 1
        phase.wall = now - start
        phase.errors = counter_errors(
            self.tracker.counters, len(phase.outputs), self.cfg, self.tracker.grid.num_windows
        )
        return phase

    def check(self, phases):
        verdict = Verdict(quality=self.quality)
        bad_run = self.kernel_errors + quality_errors(self.quality, self.max_wrong_pct)
        verdict.errors += bad_run
        for phase in phases:
            verdict.errors += phase.errors
            for record in phase.outputs:
                verdict.attempted += 1
                same = records_match(record, self.reference[record["cycle"]])
                if not same:
                    verdict.errors.append(
                        f"online detection for cycle {record['cycle']} differs from batch"
                    )
                if bad_run or phase.errors or not same:
                    verdict.failed += 1
        return verdict


# ---------------------------------------------------------------------------
# decode-shape
# ---------------------------------------------------------------------------


class DecodeShape(Workload):
    name = "decode-shape"
    default_seed = 5
    latency_what = "shape recognizer + stream decoder feed"

    def generate(self):
        raw = experiment_scene("study_instructions.json")
        raw.update(seed=self.seed, noise_sigma=10.0, jitter=3)
        spec = synth.GestureSceneSpec.from_dict(raw)
        start = perf_counter()
        self.frames, truth = synth.render_gesture_sequence(spec)
        self.render_ms_per_frame = 1000.0 * (perf_counter() - start) / spec.frames
        oracle = gesture.OracleRecognizer(truth.gesture_labels)
        self.oracle_stream = [oracle(f, i) for i, f in enumerate(self.frames)]
        mapping = lang.load_mapping()
        self.expected = lang.decode(self.oracle_stream, mapping)
        self.expected_events = lang.debounce(self.oracle_stream, mapping)

    def prepare_warm(self):
        spec = synth.GestureSceneSpec(
            segments=(synth.GestureSegment(gesture.GestureClass.five, gesture.GestureClass.ok, 1),)
        )
        self.warm_frame = synth.render_gesture_sequence(spec)[0][0]

    def setup(self):
        self.recognizer = gesture.ShapeRecognizer()
        self.mapping = lang.load_mapping()
        lang.StreamDecoder(self.mapping).feed(self.recognizer(self.warm_frame, 0))

    def run(self, seconds, recorder=None):
        phase = Phase()
        t_end = perf_counter() + seconds
        start = perf_counter()
        now = start
        while now < t_end:
            recognizer = gesture.ShapeRecognizer(
                bank=self.recognizer.bank, hsv_range=self.recognizer.hsv_range
            )
            decoder = lang.StreamDecoder(self.mapping)
            tokens, decoded = [], []
            phase.outputs.append((tokens, decoded))
            for i, frame in enumerate(self.frames):
                if now >= t_end:
                    break
                if recorder is not None:
                    recorder.current_op = phase.frames
                t0 = now
                token = recognizer(frame, i)
                instruction = decoder.feed(token)
                now = perf_counter()
                phase.latency_ms.append(1000.0 * (now - t0))
                tokens.append(token)
                if instruction is not None:
                    decoded.append(instruction)
                phase.frames += 1
        phase.wall = now - start
        return phase

    def check(self, phases):
        verdict = Verdict()
        totals = {"correct_instructions": 0, "total_instructions": 0}
        for phase in phases:
            for tokens, decoded in phase.outputs:
                if not tokens:
                    continue
                last = tokens[-1].frame
                expected = [e for e in self.expected if e.emitted_at_frame <= last]
                expected_events = [e for e in self.expected_events if e[0] <= last]
                verdict.attempted += len(tokens)
                if decoded != expected:
                    verdict.failed += len(tokens)
                    verdict.errors.append(
                        f"frames 0-{last}: decoded {len(decoded)} instructions, the oracle "
                        f"stream {len(expected)}, and they differ"
                    )
                report = harness.score_instructions(
                    decoded, expected, lang.debounce(tokens, self.mapping), expected_events
                )
                totals["correct_instructions"] += report.correct_instructions
                totals["total_instructions"] += report.total_instructions
        total = totals["total_instructions"]
        verdict.quality = {
            "instr_accuracy_pct": 100.0 * totals["correct_instructions"] / total if total else 100.0,
            **totals,
        }
        return verdict

    def extras(self, phase):
        tokens = [t for stream, _ in phase.outputs for t in stream]
        hits = sum(t.pair == self.oracle_stream[t.frame].pair for t in tokens)
        return {"gesture.pair_hit_ratio": hits / len(tokens) if tokens else None}


# ---------------------------------------------------------------------------
# follow-oracle
# ---------------------------------------------------------------------------


class FollowOracle(Workload):
    name = "follow-oracle"
    default_seed = 0
    latency_what = "one control step: observe, PID bank, kinematics"
    duration_s = 60.0  # long horizon: many steps per episode
    fps = 10.0
    # c7's four fixed start offsets; the seed does not change them
    offsets = ((0.3, 0.0), (-0.3, 0.0), (0.0, 0.3), (0.0, -0.3))

    def generate(self):
        config = servo.ServoConfig()
        self.worlds = [servo.make_offset_world(ox, oy, config) for ox, oy in self.offsets]

    def prepare_warm(self):
        self.warm_world = servo.make_offset_world(0.3, 0.0, servo.ServoConfig())

    def setup(self):
        self.config = servo.ServoConfig()
        bank = servo.PidBank(self.config)
        servo.follow_loop(self.warm_world.observe, bank, 1.0 / self.fps, self.fps)

    def run(self, seconds, recorder=None):
        phase = Phase()
        check_step = int(round(10.0 * self.fps)) - 1  # c7 judges the state at 10 s
        t_end = perf_counter() + seconds
        start = perf_counter()
        now = start
        k = 0
        while now < t_end:
            world = self.worlds[k % len(self.worlds)]
            stamps = []

            def observe(state, world=world, stamps=stamps):
                stamps.append(perf_counter())
                if recorder is not None:
                    recorder.current_op += 1
                return world.observe(state)

            rows = servo.follow_loop(
                observe, servo.PidBank(self.config), self.duration_s, self.fps
            )
            now = perf_counter()
            phase.latency_ms.extend(1000.0 * np.diff(stamps))
            phase.frames += len(rows)
            phase.outputs.append(rows[check_step].errors)
            k += 1
        phase.wall = now - start
        return phase

    def check(self, phases):
        verdict = Verdict()
        target = self.config.target_area_fraction
        converged = 0
        for phase in phases:
            for errors in phase.outputs:
                verdict.attempted += 1
                ok = False
                if errors is not None:
                    ex, ey, ea = errors
                    rel = abs((target - ea) - target) / target
                    ok = abs(ex) < 0.05 and abs(ey) < 0.05 and rel <= 0.1
                converged += ok
                if not ok:
                    verdict.failed += 1
                    verdict.errors.append(f"episode did not converge by 10 s: {errors}")
        verdict.quality = {
            "converged_pct": 100.0 * converged / verdict.attempted if verdict.attempted else 0.0
        }
        return verdict


WORKLOADS = {w.name: w for w in (TrackTable1, TrackOnline, DecodeShape, FollowOracle)}
