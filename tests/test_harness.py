import json
import os
import subprocess
import sys

import numpy as np
import pytest

from diverkit import synth
from diverkit.core import (
    BoundingBox,
    DetectionResult,
    GridConfig,
    TrackerConfig,
    ValidationError,
)
from diverkit.gesture import GestureClass, recognize_sequence
from diverkit.harness import (
    DetectionReport,
    InstructionReport,
    run_experiment,
    score_detection,
    score_instructions,
)
from diverkit.lang import Snapshot, TaskSwitch, Token
from diverkit.raster import iter_sequence, write_sequence
from diverkit.tracker import track_sequence


def fake_result(cycle, window, score, detected, grid):
    from diverkit.core import window_center

    traj = np.full(15, window, dtype=np.int64)
    cx, cy = window_center(grid, window)
    return DetectionResult(
        trajectory=traj,
        score=score,
        detected=detected,
        bbox=BoundingBox(cx, cy, 30, 30),
        cycle_index=cycle,
    )


def straight_truth(grid, window, cycles, cfg):
    from diverkit.core import window_center

    cx, cy = window_center(grid, window)
    frames = (cycles - 1) * cfg.stride + cfg.slide
    return synth.GroundTruth(centers=[(cx, cy)] * frames, windows=[window] * frames)


CFG = TrackerConfig()
GRID = GridConfig(320, 240)


class TestScoreDetection:
    def test_all_exact_is_100_positive(self):
        truth = straight_truth(GRID, 12, 4, CFG)
        results = [fake_result(k, 12, 100.0, True, GRID) for k in range(4)]
        report = score_detection(results, truth, CFG, GRID)
        assert report.percentage("positive") == 100.0
        assert report.count("missed") == report.count("wrong") == 0

    def test_all_undetected_is_100_missed(self):
        truth = straight_truth(GRID, 12, 4, CFG)
        results = [fake_result(k, 12, 10.0, False, GRID) for k in range(4)]
        report = score_detection(results, truth, CFG, GRID)
        assert report.percentage("missed") == 100.0

    def test_adjacent_window_counts_positive(self):
        truth = straight_truth(GRID, 12, 1, CFG)
        results = [fake_result(0, 13, 100.0, True, GRID)]  # one column right
        report = score_detection(results, truth, CFG, GRID)
        assert report.classifications == ("positive",)

    def test_two_windows_away_is_wrong(self):
        truth = straight_truth(GRID, 12, 1, CFG)
        results = [fake_result(0, 14, 100.0, True, GRID)]
        report = score_detection(results, truth, CFG, GRID)
        assert report.classifications == ("wrong",)

    def test_chebyshev_diagonal_counts(self):
        truth = straight_truth(GRID, 12, 1, CFG)
        diag = 12 + GRID.cols + 1  # one row down, one column right
        report = score_detection([fake_result(0, diag, 90.0, True, GRID)], truth, CFG, GRID)
        assert report.classifications == ("positive",)

    def test_partition_and_percentages(self):
        truth = straight_truth(GRID, 12, 6, CFG)
        results = [
            fake_result(0, 12, 90.0, True, GRID),
            fake_result(1, 12, 90.0, True, GRID),
            fake_result(2, 40, 90.0, True, GRID),
            fake_result(3, 12, 10.0, False, GRID),
            fake_result(4, 13, 90.0, True, GRID),
            fake_result(5, 12, 10.0, False, GRID),
        ]
        report = score_detection(results, truth, CFG, GRID)
        counts = {k: report.count(k) for k in ("positive", "missed", "wrong")}
        assert counts == {"positive": 3, "missed": 2, "wrong": 1}
        total_pct = sum(report.percentage(k) for k in counts)
        assert abs(total_pct - 100.0) <= 0.1

    def test_truth_too_short_rejected(self):
        truth = straight_truth(GRID, 12, 1, CFG)
        results = [fake_result(k, 12, 90.0, True, GRID) for k in range(3)]
        with pytest.raises(ValidationError):
            score_detection(results, truth, CFG, GRID)

    def test_render_rows_format(self):
        report = DetectionReport(
            classifications=("positive",) * 647 + ("missed",) * 46 + ("wrong",) * 12
        )
        rows = report.render_rows()
        # 647/705 = 91.8%, 46/705 = 6.5%, 12/705 = 1.7%
        assert rows[0] == "Positive detection: 647 (91.8%)"
        assert rows[1] == "Missed detection: 46 (6.5%)"
        assert rows[2] == "Wrong detection: 12 (1.7%)"


class TestScoreInstructions:
    def _events(self, names):
        return [(i, Token.from_name(n)) for i, n in enumerate(names)]

    def test_identical_lists_are_100(self):
        decoded = [TaskSwitch(task="HOVER", duration_s=50), Snapshot(duration_s=20)]
        report = score_instructions(
            decoded, list(decoded), self._events(["STOP", "GO"]), self._events(["STOP", "GO"])
        )
        assert report.instruction_accuracy() == 100.0
        assert report.token_accuracy() == 100.0

    def test_one_of_four_wrong_is_75(self):
        expected = [
            TaskSwitch(task="HOVER", duration_s=50),
            Snapshot(duration_s=20),
            TaskSwitch(task="FOLLOW"),
            TaskSwitch(task="EXECUTE", program=1),
        ]
        decoded = list(expected)
        decoded[2] = TaskSwitch(task="MOVE_UP")
        report = score_instructions(decoded, expected, [], [])
        assert report.instruction_accuracy() == 75.0

    def test_missing_instruction_counts_wrong(self):
        expected = [TaskSwitch(task="HOVER"), Snapshot(duration_s=5)]
        report = score_instructions(expected[:1], expected, [], [])
        assert report.correct_instructions == 1
        assert report.total_instructions == 2

    def test_correct_cannot_exceed_total(self):
        with pytest.raises(ValidationError):
            InstructionReport(2, 3, 0, 0)


class TestRunExperiment:
    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown experiment kind"):
            run_experiment({"kind": "dance", "out": str(tmp_path)})

    def test_empty_spec_names_missing_field(self, tmp_path):
        with pytest.raises(ValidationError, match="kind"):
            run_experiment({})

    def test_missing_scene_named(self, tmp_path):
        with pytest.raises(ValidationError, match="scene"):
            run_experiment({"kind": "track", "out": str(tmp_path)})

    def test_track_experiment(self, tmp_path):
        spec = {
            "kind": "track",
            "scene": {
                "frames": 45,
                "width": 90,
                "height": 90,
                "background": 60.0,
                "noise_sigma": 2.0,
                "flipper": {"radius": 15, "intensity": 215.0, "amplitude": 40.0, "frequency": 1.5},
                "path": {"kind": "static"},
                "start": [45.0, 45.0],
                "seed": 5,
            },
        }
        report = run_experiment(spec, out_dir=tmp_path / "run")
        assert report["kind"] == "track"
        assert report["detection"]["cycles"] == 3
        assert (tmp_path / "run" / "report.json").exists()
        assert (tmp_path / "run" / "detections.jsonl").exists()
        lines = (tmp_path / "run" / "detections.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert all("bbox" in json.loads(line) for line in lines)

    def test_decode_experiment_oracle(self, tmp_path):
        spec = {
            "kind": "decode",
            "recognizer": "oracle",
            "scene": {
                "segments": [
                    {"left": "zero", "right": "zero", "frames": 12},
                    {"left": "two", "right": "ok", "frames": 12},
                    {"left": "five", "right": "five", "frames": 12},
                ],
                "seed": 1,
            },
        }
        report = run_experiment(spec, out_dir=tmp_path / "run")
        assert report["instructions"]["total_instructions"] == 1
        assert report["instructions"]["correct_instructions"] == 1
        assert report["decoded"][0]["task"] == "FOLLOW"

    def test_follow_experiment(self, tmp_path):
        spec = {
            "kind": "follow",
            "scene": {"offset_x": 0.3, "offset_y": 0.0, "duration_s": 10.0, "fps": 10.0},
        }
        report = run_experiment(spec, out_dir=tmp_path / "run")
        assert report["converged"] is True
        assert (tmp_path / "run" / "follow_log.csv").exists()

    def test_follow_report_carries_the_gains_file_clamps(self, tmp_path):
        gains = tmp_path / "gains.json"
        gains.write_text(json.dumps({"yaw": {"kp": 0.8, "integral_clamp": 0.5}}))
        spec = {"kind": "follow", "scene": {"duration_s": 1.0}, "gains": str(gains)}
        run_experiment(spec, out_dir=tmp_path / "run")
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["gains"]["yaw"] == {
            "kp": 0.8, "ki": 0.0, "kd": 0.0, "integral_clamp": 0.5, "output_clamp": 1.0
        }
        assert report["scene"] == {
            "offset_x": 0.0, "offset_y": 0.0, "duration_s": 1.0, "fps": 10.0,
            "distance_ratio": 1.25,
        }

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "track", "scene": {"frames": 15, "width": 90, "height": 90,
                                        "start": [45.0, 45.0]}},
            {"kind": "decode", "scene": {"segments": [{"left": "one", "frames": 2}]}},
            {"kind": "follow", "scene": {"duration_s": 0.5}},
        ],
        ids=["track", "decode", "follow"],
    )
    def test_null_tracker_gains_or_mapping_selects_the_default(self, spec, tmp_path):
        key = {"track": "tracker", "decode": "mapping", "follow": "gains"}[spec["kind"]]
        default = run_experiment(spec, out_dir=tmp_path / "default")
        assert run_experiment({**spec, key: None}, out_dir=tmp_path / "null") == default

    def test_reports_byte_identical_across_runs(self, tmp_path):
        spec = {
            "kind": "track",
            "scene": {
                "frames": 30,
                "width": 90,
                "height": 90,
                "noise_sigma": 3.0,
                "start": [45.0, 45.0],
                "seed": 12,
            },
        }
        run_experiment(spec, out_dir=tmp_path / "a")
        run_experiment(spec, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()


class TestExperimentEqualsDiskPipeline:
    """A render reads back from its sequence files unchanged, so an experiment
    reports what ``synth`` followed by ``track`` or ``decode --seq`` reports."""

    @staticmethod
    def round_trip(frames, directory):
        write_sequence(directory, frames)
        back = list(iter_sequence(directory))
        assert len(back) == len(frames)
        for a, b in zip(frames, back):
            assert a.pixels.dtype == b.pixels.dtype and np.array_equal(a.pixels, b.pixels)
        return back

    def test_diver_scene(self, tmp_path):
        scene = synth.DiverSceneSpec(
            frames=30, width=90, height=90, background=160.0, noise_sigma=5.0,
            path=synth.PathSpec("straight", vx=0.5, vy=0.3), start=(40.0, 40.0), seed=3,
        )
        frames, _ = synth.render_diver_sequence(scene)
        back = self.round_trip(frames, tmp_path / "seq")
        cfg = TrackerConfig()

        def records(seq):
            return [r.to_record() for r in track_sequence(seq, cfg)]

        assert records(frames) == records(back)

    def test_noisy_gesture_scene(self, tmp_path):
        scene = synth.GestureSceneSpec(
            segments=(
                synth.GestureSegment(GestureClass.five, GestureClass.ok, 3),
                synth.GestureSegment(None, GestureClass.two, 2),
            ),
            noise_sigma=10.0, jitter=3, seed=5,
        )
        frames, truth = synth.render_gesture_sequence(scene)
        back = self.round_trip(frames, tmp_path / "seq")

        def tokens(seq):
            return recognize_sequence(seq, "shape", truth.gesture_labels)

        assert tokens(frames) == tokens(back)


class TestBundledSpecs:
    def test_study_instructions_runs_4_of_4(self, tmp_path):
        from importlib import resources

        raw = resources.files("diverkit").joinpath(
            "data", "experiments", "study_instructions.json"
        ).read_text()
        report = run_experiment(json.loads(raw), out_dir=tmp_path)
        assert report["instructions"]["total_instructions"] == 4
        assert report["instructions"]["correct_instructions"] == 4
        tasks = [rec for rec in report["decoded"]]
        assert tasks[0] == {
            "type": "task_switch",
            "task": "HOVER",
            "duration_s": 50,
            "emitted_at_frame": tasks[0]["emitted_at_frame"],
        }
        assert tasks[1]["type"] == "snapshot" and tasks[1]["duration_s"] == 20
        assert tasks[2] == {
            "type": "param_reconfig",
            "param": 3,
            "direction": "DECREASE",
            "emitted_at_frame": tasks[2]["emitted_at_frame"],
        }
        assert tasks[3]["task"] == "EXECUTE" and tasks[3]["program"] == 1

    def test_study_instructions_with_shape_recognizer(self, tmp_path):
        from importlib import resources

        raw = resources.files("diverkit").joinpath(
            "data", "experiments", "study_instructions.json"
        ).read_text()
        spec = dict(json.loads(raw), recognizer="shape")
        report = run_experiment(spec, out_dir=tmp_path)
        assert report["instructions"]["correct_instructions"] == 4
        assert report["instructions"]["token_accuracy_pct"] == 100.0


def _bundled_spec(name):
    from importlib import resources

    raw = resources.files("diverkit").joinpath("data", "experiments", f"{name}.json").read_text()
    return json.loads(raw)


def _golden_spec(run):
    if run in ("study_shape", "study_shape_noisy"):
        spec = dict(_bundled_spec("study_instructions"), recognizer="shape")
        if run == "study_shape_noisy":
            spec["scene"] = dict(spec["scene"], noise_sigma=10.0, jitter=3, seed=5)
        return spec
    return _bundled_spec(run)


# SHA-256 of every file each run writes, but for detections.jsonl that of its records
# without "score" (see GOLDEN_SCORES). An intended output change updates these tables
# in the same change and names each old -> new digest.
GOLDEN_DIGESTS = {
    "table1_desk": {
        "detections.jsonl": "5e573196c17f7c182f1894aaf966be0cedd1bfe358e0e6daed7b90aa33dec684",
        "report.json": "e67f5e97f11ba17a23c67cff29d7877d3563a029db1d4b6d837253bd4fce11d1",
        "truth.json": "f364b19b7578ad830e8615234bf47f243f4125b608b676489482ac56d7b3bc02",
    },
    "table1_desk_sideways": {
        "detections.jsonl": "fda3010a392931ecee325b6c7c8eeb0a6e4683a8b1584f04ff76c10c4123ea93",
        "report.json": "6657e074372518da87bd2f66b56f073157ba344dea7f57f519a100e21caf3f58",
        "truth.json": "833662bb1cfda7902fff457c5bcf0f286e913d6597595a33fe9d02ba2d2d872d",
    },
    "follow_offsets": {
        "follow_log.csv": "1811eb07fbeb96323e9a9461540672b10abe3edea9acd6bf2e5dc33b68386c88",
        "report.json": "578dabd89d3073781ffaae4979837a830cb4c93f27cbb56766fc90f4bebf4c2f",
    },
    "study_instructions": {
        "instructions.jsonl": "1e41a2010db352c8f0ad696b48fe0b191fe69c5567f05494f519c7dab7af680a",
        "report.json": "ee73d0aec17812a78663ed49f191f271bb97d2a7d865d3d4e822c37bd26f3a32",
        "tokens.jsonl": "3db6f944c487250fde9fa5bd54bdbcfb0cf9d008b8fdedd4491af411160bdc03",
    },
    "study_shape": {
        "instructions.jsonl": "1e41a2010db352c8f0ad696b48fe0b191fe69c5567f05494f519c7dab7af680a",
        "report.json": "fcc887945756f348315399c66eaf0765bf432d50e757502d5c0585ea679f48f0",
        "tokens.jsonl": "037d785969632e3abd6e85cedc2926f58c499ad22557c15f2c38dc5f52c99426",
    },
    "study_shape_noisy": {
        "instructions.jsonl": "1e41a2010db352c8f0ad696b48fe0b191fe69c5567f05494f519c7dab7af680a",
        "report.json": "ac1af9662673221cc4d7b77b11bbaf5f8eb859e4d6a4721c0d58093e542a2946",
        "tokens.jsonl": "86fb9daf2dd51d73dd41b7d4c87cc028a88f3b39788a72100ebfac909ebb5865",
    },
}


# Each cycle's "score", in order. A score is a DFT amplitude of evidence from matrix
# products that each BLAS kernel rounds its own way: under a forced OpenBLAS core type
# scores move in their last bits, so they are pinned to SCORE_RTOL, with room for a gap
# 1000 times that. The BLAS thread count moves none of them (see the test below).
SCORE_RTOL = 1e-12
GOLDEN_SCORES = {
    "table1_desk": (
        262.2090895370786, 173.50402289899776, 137.19491499507592, 168.68906578412088,
        199.746756074249, 185.14180659640567, 199.17455415678592, 284.6716403917541,
        225.94976423156515, 139.92460883508292, 146.15384190150561, 253.42475037083977,
        250.1880860479648, 195.22193594529824, 179.03561944029423, 229.99108421409832,
        171.36757686793945, 146.7729675794763, 187.08543845874365, 291.6293140259562,
    ),
    "table1_desk_sideways": (
        168.22059024979808, 246.1800780020713, 218.23377993284691, 283.9553260423208,
        168.11301311883764, 246.1982277175018, 218.00535224855395, 284.15443629858163,
        168.2885946820035, 245.14403396076096, 218.29357603412987, 284.1304715316501,
        167.90721192491802, 245.93939871070225, 217.69187979825986, 283.6565991432311,
        168.06348758668628, 245.89766422142839, 217.50323993480848, 281.3311662682154,
    ),
}


@pytest.mark.parametrize("run", sorted(GOLDEN_DIGESTS))
def test_bundled_outputs_match_golden_digests(run, tmp_path):
    import hashlib

    run_experiment(_golden_spec(run), out_dir=tmp_path)
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    if run in GOLDEN_SCORES:
        lines = (tmp_path / "detections.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        scores = [record.pop("score") for record in records]
        assert scores == pytest.approx(GOLDEN_SCORES[run], rel=SCORE_RTOL, abs=0)
        text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
        digests["detections.jsonl"] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == GOLDEN_DIGESTS[run]


OPENBLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_CORETYPE")


@pytest.mark.parametrize(
    "run, name, env",
    [
        ("table1_desk_sideways", "detections.jsonl", {"OPENBLAS_NUM_THREADS": "1"}),
        ("study_shape_noisy", "tokens.jsonl", {"OPENBLAS_CORETYPE": "Prescott"}),
    ],
)
def test_outputs_do_not_depend_on_the_blas_threads_or_kernel(run, name, env, tmp_path):
    # OpenBLAS reads these variables when it loads; another BLAS ignores them. Both runs
    # are children whose BLAS variables the test sets, so the suite's own settings pick
    # neither: under a forced Nehalem kernel OpenBLAS rounds per thread count
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_golden_spec(run)))
    host = {k: v for k, v in os.environ.items() if k not in OPENBLAS_VARS}
    outputs = []
    for out, extra in (("host", {}), ("forced", env)):
        child = subprocess.run(
            [sys.executable, "-m", "diverkit.cli", "experiment", "--spec", str(spec),
             "--out", str(tmp_path / out)],
            env={**host, **extra}, capture_output=True, text=True,
        )
        assert child.returncode == 0, child.stderr
        outputs.append((tmp_path / out / name).read_bytes())
    assert outputs[0] == outputs[1]
