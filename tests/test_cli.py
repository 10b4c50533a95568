import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from diverkit.cli import main
from diverkit.raster import write_pnm

DIVER_SPEC = {
    "frames": 45,
    "fps": 10.0,
    "width": 90,
    "height": 90,
    "background": 60.0,
    "noise_sigma": 2.0,
    "flipper": {"radius": 15, "intensity": 215.0, "amplitude": 40.0, "frequency": 1.5},
    "path": {"kind": "static"},
    "start": [45.0, 45.0],
    "seed": 5,
}

GESTURE_SPEC = {
    "segments": [
        {"left": "zero", "right": "zero", "frames": 12},
        {"left": "three", "right": "ok", "frames": 12},
        {"left": "one", "right": "pic", "frames": 12},
        {"left": "five", "right": "five", "frames": 12},
    ],
    "seed": 3,
}


def run_cli(*argv):
    """Run the CLI in a child process, so an uncaught exception shows as a traceback."""
    return subprocess.run(
        [sys.executable, "-m", "diverkit.cli", *argv], capture_output=True, text=True
    )


@pytest.fixture
def diver_seq(tmp_path):
    spec_path = tmp_path / "diver.json"
    spec_path.write_text(json.dumps(DIVER_SPEC))
    out = tmp_path / "seq"
    assert main(["synth", "--kind", "diver", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


@pytest.fixture
def gesture_seq(tmp_path):
    spec_path = tmp_path / "gesture.json"
    spec_path.write_text(json.dumps(GESTURE_SPEC))
    out = tmp_path / "gseq"
    assert main(["synth", "--kind", "gesture", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_diver_writes_pgm_manifest_truth(self, diver_seq):
        files = {p.name for p in diver_seq.iterdir()}
        assert "manifest.json" in files and "truth.json" in files
        assert sum(1 for f in files if f.endswith(".pgm")) == 45

    def test_gesture_writes_ppm(self, gesture_seq):
        files = {p.name for p in gesture_seq.iterdir()}
        assert sum(1 for f in files if f.endswith(".ppm")) == 48

    def test_invalid_spec_exits_1(self, tmp_path, capsys):
        bad = dict(DIVER_SPEC, background=999.0)
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(bad))
        code = main(["synth", "--kind", "diver", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "background" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, key",
        [
            (("diver", {"flipper": dict(DIVER_SPEC["flipper"], radius="big")}), "'radius'"),
            (("diver", {"path": {"kind": "straight", "vx": [1]}}), "'vx'"),
            (("diver", {"width": 90.5}), "'width'"),
            (("gesture", {"segments": [{"left": "one", "right": None, "frames": "x"}]}), "'frames'"),
            (("gesture", {"segments": [{"left": "one", "right": None, "frames": 12.5}]}), "'frames'"),
        ],
    )
    def test_wrongly_typed_spec_exits_1_with_one_line(self, tmp_path, change, key):
        kind, fields = change
        spec = DIVER_SPEC if kind == "diver" else GESTURE_SPEC
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(dict(spec, **fields)))
        proc = run_cli("synth", "--kind", kind, "--spec", str(spec_path), "--out", str(tmp_path / "x"))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert key in lines[0] and "Traceback" not in proc.stderr

    def test_unwritable_out_exits_2(self, tmp_path):
        # a regular file squatting on the output path defeats mkdir even as root
        spec_path = tmp_path / "diver.json"
        spec_path.write_text(json.dumps(DIVER_SPEC))
        blocker = tmp_path / "blocked"
        blocker.write_text("in the way")
        code = main(
            ["synth", "--kind", "diver", "--spec", str(spec_path), "--out", str(blocker)]
        )
        assert code == 2

    def test_seed_override(self, tmp_path):
        spec_path = tmp_path / "diver.json"
        spec_path.write_text(json.dumps(DIVER_SPEC))
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--kind", "diver", "--spec", str(spec_path), "--out", str(a), "--seed", "99"])
        main(["synth", "--kind", "diver", "--spec", str(spec_path), "--out", str(b), "--seed", "99"])
        assert (a / "frame_000000.pgm").read_bytes() == (b / "frame_000000.pgm").read_bytes()


class TestTrack:
    def test_jsonl_and_summary(self, diver_seq, tmp_path, capsys):
        out = tmp_path / "det.jsonl"
        assert main(["track", "--seq", str(diver_seq), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # 45 frames, T = stride = 15
        rec = json.loads(lines[0])
        assert set(rec) == {"cycle", "detected", "score", "window", "bbox"}
        stdout = capsys.readouterr().out
        assert "Positive detection" in stdout

    def test_stdout_records_are_pure_jsonl_and_summary_goes_to_stderr(self, diver_seq, capsys):
        assert main(["track", "--seq", str(diver_seq), "--out", "-"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["cycle"] for r in records] == [0, 1, 2]
        assert captured.err.splitlines()[0] == "cycles: 3"
        assert "Positive detection" in captured.err

    def test_no_truth_no_summary(self, diver_seq, tmp_path, capsys):
        (diver_seq / "truth.json").unlink()
        out = tmp_path / "det.jsonl"
        assert main(["track", "--seq", str(diver_seq), "--out", str(out)]) == 0
        assert "Positive" not in capsys.readouterr().out

    def test_short_sequence_exits_1(self, tmp_path):
        spec = dict(DIVER_SPEC, frames=10)
        spec_path = tmp_path / "short.json"
        spec_path.write_text(json.dumps(spec))
        seq = tmp_path / "short_seq"
        main(["synth", "--kind", "diver", "--spec", str(spec_path), "--out", str(seq)])
        assert main(["track", "--seq", str(seq), "--out", "-"]) == 1

    def test_corrupt_frame_exits_2_naming_file(self, diver_seq, capsys):
        victim = diver_seq / "frame_000002.pgm"
        victim.write_bytes(b"JUNK")
        code = main(["track", "--seq", str(diver_seq), "--out", "-"])
        assert code == 2
        assert "frame_000002.pgm" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", ['{"fps": 10.0, "width":', "[1, 2]"])
    def test_corrupt_manifest_exits_2_with_one_line(self, diver_seq, manifest):
        (diver_seq / "manifest.json").write_text(manifest)
        proc = run_cli("track", "--seq", str(diver_seq))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("I/O error:")
        assert "manifest.json" in lines[0] and "Traceback" not in proc.stderr

    def test_string_fps_in_manifest_exits_1_with_one_line(self, diver_seq):
        path = diver_seq / "manifest.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), fps="10")))
        proc = run_cli("track", "--seq", str(diver_seq))
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "'fps'" in lines[0] and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("config", ['{"T": "abc"}', '{"delta": [1, 2]}'])
    def test_wrongly_typed_config_exits_1_with_one_line(self, diver_seq, tmp_path, config):
        cfg = tmp_path / "tracker.json"
        cfg.write_text(config)
        proc = run_cli("track", "--seq", str(diver_seq), "--config", str(cfg))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "tracker config" in lines[0] and "Traceback" not in proc.stderr


    def test_sigma_too_small_to_square_tracks_like_sigma_zero(self, diver_seq, tmp_path):
        # 1e-300 squared underflows to 0; the blur treats it as no blur, as at 0
        outs = []
        for sigma in ("1e-300", "0"):
            cfg, out = tmp_path / f"tracker-{sigma}.json", tmp_path / f"det-{sigma}.jsonl"
            cfg.write_text('{"gauss_sigma": %s}' % sigma)
            assert main(["track", "--seq", str(diver_seq), "--config", str(cfg),
                         "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1] and len(outs[0].splitlines()) == 3

    def test_corrupt_late_frame_exits_2_writing_nothing(self, diver_seq, tmp_path):
        (diver_seq / "frame_000040.pgm").write_bytes(b"P5\n90 90\n255\n\x00")
        out = tmp_path / "det.jsonl"
        assert main(["track", "--seq", str(diver_seq), "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_integral_config_exits_1_with_one_line(self, diver_seq, tmp_path):
        cfg = tmp_path / "tracker.json"
        cfg.write_text('{"T": 15.7, "stride": 15.9}')
        proc = run_cli("track", "--seq", str(diver_seq), "--config", str(cfg))
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "'T'" in lines[0] and "Traceback" not in proc.stderr

    def test_peak_memory_is_below_a_few_frames(self, tmp_path):
        spec = dict(DIVER_SPEC, frames=60, width=320, height=240, start=[160.0, 120.0])
        spec_path = tmp_path / "diver.json"
        spec_path.write_text(json.dumps(spec))
        seq = tmp_path / "seq"
        assert main(["synth", "--kind", "diver", "--spec", str(spec_path), "--out", str(seq)]) == 0
        out = tmp_path / "det.jsonl"
        tracemalloc.start()
        try:
            code = main(["track", "--seq", str(seq), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and len(out.read_text().splitlines()) == 4
        # holding the sequence as float64 frames would take 60 of them
        assert peak < 8 * 320 * 240 * 8


class TestDecode:
    def test_from_token_file(self, tmp_path, capsys):
        tokens = tmp_path / "tokens.jsonl"
        rows = []
        frame = 0
        for pair in (("zero", "zero"), ("one", "ok"), ("five", "pic"), ("zero", "pic"), ("five", "five")):
            for _ in range(12):
                rows.append(
                    {"frame": frame, "left": pair[0], "right": pair[1], "conf_l": 1.0, "conf_r": 1.0}
                )
                frame += 1
        tokens.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "ins.jsonl"
        assert main(["decode", "--tokens", str(tokens), "--out", str(out)]) == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(recs) == 1
        assert recs[0]["task"] == "HOVER" and recs[0]["duration_s"] == 50

    def test_from_sequence_with_oracle(self, gesture_seq, tmp_path):
        out = tmp_path / "ins.jsonl"
        assert main(["decode", "--seq", str(gesture_seq), "--out", str(out)]) == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(recs) == 1
        assert recs[0]["task"] == "EXECUTE" and recs[0]["program"] == 1

    def test_from_sequence_with_shape_recognizer(self, gesture_seq, tmp_path):
        out = tmp_path / "ins.jsonl"
        code = main(
            ["decode", "--seq", str(gesture_seq), "--recognizer", "shape", "--out", str(out)]
        )
        assert code == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(recs) == 1 and recs[0]["task"] == "EXECUTE"

    def test_unmapped_only_stream_empty_output(self, tmp_path):
        tokens = tmp_path / "tokens.jsonl"
        rows = [
            {"frame": i, "left": "zero", "right": "one", "conf_l": 1.0, "conf_r": 1.0}
            for i in range(40)
        ]
        tokens.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "ins.jsonl"
        assert main(["decode", "--tokens", str(tokens), "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_bad_mapping_exits_1(self, tmp_path):
        mapping = tmp_path / "mapping.json"
        mapping.write_text('{"pairs": []}')
        tokens = tmp_path / "tokens.jsonl"
        tokens.write_text("")
        assert main(["decode", "--tokens", str(tokens), "--mapping", str(mapping), "--out", "-"]) == 1

    def test_gray_sequence_with_shape_recognizer_exits_1(self, diver_seq):
        proc = run_cli("decode", "--seq", str(diver_seq), "--recognizer", "shape")
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "RGB" in lines[0] and "Traceback" not in proc.stderr


    def test_gray_frame_late_in_rgb_sequence_exits_1_writing_nothing(self, gesture_seq, tmp_path):
        manifest = json.loads((gesture_seq / "manifest.json").read_text())
        gray = np.zeros((manifest["height"], manifest["width"]))
        write_pnm(gesture_seq / "frame_000030.ppm", gray)  # a P5 file under the .ppm name
        out = tmp_path / "ins.jsonl"
        code = main(
            ["decode", "--seq", str(gesture_seq), "--recognizer", "shape", "--out", str(out)]
        )
        assert code == 1 and not out.exists()


@pytest.mark.parametrize(
    "synth_kind, experiment, scene, command, records",
    [
        ("diver", {"kind": "track"}, DIVER_SPEC, ["track"], "detections.jsonl"),
        (
            "gesture",
            {"kind": "decode", "recognizer": "shape"},
            GESTURE_SPEC,
            ["decode", "--recognizer", "shape"],
            "instructions.jsonl",
        ),
    ],
)
def test_command_writes_what_its_experiment_writes(
    synth_kind, experiment, scene, command, records, tmp_path
):
    spec_path, exp_path, seq = tmp_path / "scene.json", tmp_path / "exp.json", tmp_path / "seq"
    spec_path.write_text(json.dumps(scene))
    exp_path.write_text(json.dumps(dict(experiment, scene=scene)))
    assert main(["synth", "--kind", synth_kind, "--spec", str(spec_path), "--out", str(seq)]) == 0
    assert main(["experiment", "--spec", str(exp_path), "--out", str(tmp_path / "run")]) == 0
    out = tmp_path / "out.jsonl"
    assert main([*command, "--seq", str(seq), "--out", str(out)]) == 0
    expected = (tmp_path / "run" / records).read_bytes()
    assert expected and out.read_bytes() == expected


class TestFollowCli:
    def test_writes_log(self, tmp_path):
        out = tmp_path / "log.csv"
        assert main(["follow", "--out", str(out), "--offset-x", "0.3"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,x,y,z")
        assert len(lines) == 101


class TestExperimentCli:
    def test_runs_spec(self, tmp_path):
        spec = {
            "kind": "follow",
            "scene": {"offset_x": 0.2, "offset_y": 0.1, "duration_s": 5.0, "fps": 10.0},
            "out": str(tmp_path / "run"),
        }
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["experiment", "--spec", str(spec_path)]) == 0
        assert (tmp_path / "run" / "report.json").exists()

    def test_missing_field_exits_1(self, tmp_path, capsys):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text("{}")
        assert main(["experiment", "--spec", str(spec_path)]) == 1
        assert "kind" in capsys.readouterr().err


class TestBench:
    def test_counts_are_exact(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            ["bench", "--M", "1,25,100", "--T", "15", "--cycles", "2",
             "--backend", "numpy", "--out", str(out)]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        by_m = {row["M"]: row for row in rows}
        assert by_m[1]["transition_evals"] == 2 * 15 * 1
        assert by_m[25]["transition_evals"] == 2 * 15 * 625
        assert by_m[100]["transition_evals"] == 2 * 15 * 10000
        assert by_m[100]["transition_evals"] == 16 * by_m[25]["transition_evals"]

    def test_dft_work_scales_quadratically(self, tmp_path):
        out = tmp_path / "bench.json"
        main(["bench", "--M", "25", "--T", "15,30", "--cycles", "2",
              "--backend", "numpy", "--out", str(out)])
        rows = {row["T"]: row for row in json.loads(out.read_text())}
        # direct DFT: work per cycle is pool * T^2
        assert rows[30]["dft_mults"] == 4 * rows[15]["dft_mults"]

    def test_empty_list_exits_1(self):
        assert main(["bench", "--M", "", "--T", "15"]) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "diverkit" in capsys.readouterr().out


COLD_START = """
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from diverkit.cli import main

d = Path(sys.argv[1])
exp = resources.files("diverkit").joinpath("data", "experiments", "follow_offsets.json")
(d / "exp.json").write_text(exp.read_text())
for argv in (
    ["synth", "--kind", "diver", "--spec", f"{d}/diver.json", "--out", f"{d}/seq"],
    ["synth", "--kind", "gesture", "--spec", f"{d}/gesture.json", "--out", f"{d}/gseq"],
    ["track", "--seq", f"{d}/seq", "--out", f"{d}/det.jsonl"],
    ["follow", "--out", f"{d}/log.csv"],
    ["decode", "--tokens", f"{d}/tokens.jsonl", "--out", f"{d}/ins.jsonl"],
    ["experiment", "--spec", f"{d}/exp.json", "--out", f"{d}/run"],
):
    assert main(argv) == 0, argv


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


print(scipy_modules())

from diverkit.core import Frame
from diverkit.gesture import ShapeRecognizer

ShapeRecognizer()(Frame(np.zeros((60, 90, 3), np.uint8)), 0)
print(scipy_modules())
argv = ["decode", "--seq", f"{d}/gseq", "--recognizer", "shape", "--out", f"{d}/shape.jsonl"]
assert main(argv) == 0
print(scipy_modules(), len((d / "shape.jsonl").read_text().splitlines()))
"""


def test_cold_start_of_track_follow_synth_loads_no_scipy(tmp_path):
    # every pipeline runs on numpy alone: the tracker's blur matrix, the shape
    # recognizer's blur and labelling, and its hull count load no scipy module
    (tmp_path / "diver.json").write_text(json.dumps(dict(DIVER_SPEC, frames=15)))
    (tmp_path / "gesture.json").write_text(json.dumps(GESTURE_SPEC))
    token = {"frame": 0, "left": "zero", "right": "zero", "conf_l": 1.0, "conf_r": 1.0}
    (tmp_path / "tokens.jsonl").write_text(json.dumps(token) + "\n")
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    # nor do a shape recognizer call and a shape decode that emits instructions
    commands, recognizer, shape_decode = proc.stdout.splitlines()[-3:]
    assert commands == recognizer == "[]"
    loaded, instructions = shape_decode.split()
    assert loaded == "[]" and int(instructions) > 0
