"""Malformed JSON inputs and numeric flags: one error line, never a traceback.

Every CLI case below exits 1 (validation) or 2 (I/O) with exactly one stderr
line; the property test feeds arbitrary JSON to every typed loader, which must
return an object or raise ValidationError and nothing else.
"""

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverkit.cli import main
from diverkit.core import TrackerConfig, ValidationError, to_json
from diverkit.gesture import GestureClass, GesturePairToken
from diverkit.lang import DEBOUNCE_FRAMES, Token, load_mapping, mapping_from_dict
from diverkit.servo import FollowScene, ServoConfig
from diverkit.synth import DiverSceneSpec, GestureSceneSpec, GestureSegment, GroundTruth

from test_cli import DIVER_SPEC, GESTURE_SPEC, run_cli

UNDECODABLE = b'{"seed": "\xff"}'
BLACK_PGM = b"P5\n90 60\n255\n" + bytes(90 * 60)  # six 30x30 windows
TOKEN = {"frame": 0, "left": "zero", "right": "zero", "conf_l": 1.0, "conf_r": 1.0}


def follow_experiment(scene) -> dict:
    return {"kind": "follow", "scene": scene}


def tokens(*records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


EXPERIMENT = ["experiment", "--spec", "{d}/exp.json", "--out", "{d}/run"]
FOLLOW = ["follow", "--out", "{d}/log.csv"]
GAINS = FOLLOW + ["--gains", "{d}/gains.json"]
DECODE = ["decode", "--tokens", "{d}/tokens.jsonl", "--out", "{d}/ins.jsonl"]
SYNTH = ["synth", "--spec", "{d}/spec.json", "--out", "{d}/seq"]
ONE_HAND = {"segments": [{"left": "one", "frames": 2}]}

# case id -> (files to write, argv); "{d}" is the case's directory, "{seq}" a valid
# diver sequence. Strings and bytes are written as they stand, other values as JSON.
CASES = {
    "experiment-offset-x-string": (
        {"exp.json": follow_experiment({"offset_x": "abc"})}, EXPERIMENT
    ),
    "experiment-duration-overflow": (
        {"exp.json": '{"kind": "follow", "scene": {"duration_s": 1e400}}'}, EXPERIMENT
    ),
    "experiment-fps-zero": ({"exp.json": follow_experiment({"fps": 0})}, EXPERIMENT),
    "experiment-scene-list": ({"exp.json": follow_experiment([0.3, 0.0])}, EXPERIMENT),
    "experiment-scene-unknown-key": (
        {"exp.json": follow_experiment({"offset_z": 0.1})}, EXPERIMENT
    ),
    "experiment-tracker-bad-json": (
        {"exp.json": {"kind": "track", "scene": {}, "tracker": "{d}/tracker.json"},
         "tracker.json": '{"T": '},
        EXPERIMENT,
    ),
    "experiment-tracker-number": (
        {"exp.json": {"kind": "track", "scene": {}, "tracker": 7}}, EXPERIMENT
    ),
    **{  # only a missing key or null selects the packaged default
        f"experiment-{key}-{name}": (
            {"exp.json": {"kind": kind, "scene": scene, key: value}}, EXPERIMENT
        )
        for key, kind, scene in (
            ("tracker", "track", {"frames": 15, "width": 90, "height": 90, "start": [45, 45]}),
            ("mapping", "decode", {"segments": [{"left": "one", "frames": 2}]}),
            ("gains", "follow", {"duration_s": 0.5}),
        )
        for name, value in (("false", False), ("zero", 0), ("empty-string", ""), ("empty-list", []))
    },
    "experiment-out-number": (  # without --out, so the spec's own "out" is used
        {"exp.json": {"kind": "follow", "scene": {}, "out": 7}}, EXPERIMENT[:3]
    ),
    "experiment-unknown-key": (  # a misspelt "tracker" must not run with the defaults
        {"exp.json": {"kind": "track", "scene": {}, "trackr": {"T": 5}}}, EXPERIMENT
    ),
    "follow-fps-zero": ({}, FOLLOW + ["--fps", "0"]),
    "follow-duration-nan": ({}, FOLLOW + ["--duration-s", "nan"]),
    "follow-offset-inf": ({}, FOLLOW + ["--offset-x", "inf"]),
    "gains-string-kp": ({"gains.json": {"yaw": {"kp": "x"}}}, GAINS),
    "gains-unknown-key": ({"gains.json": {"roll": {"kp": 1.0}}}, GAINS),
    "gains-list": ({"gains.json": [1]}, GAINS),
    "gains-output-clamp-above-one": (  # commands are normalized to [-1, 1]
        {"gains.json": {"yaw": {"kp": 5.0, "output_clamp": 2.0}}}, GAINS
    ),
    "mapping-token-number": (
        {"mapping.json": {"pairs": [{"left": "zero", "right": "zero", "token": 7}]},
         "tokens.jsonl": tokens(TOKEN)},
        DECODE + ["--mapping", "{d}/mapping.json"],
    ),
    "token-frame-string": ({"tokens.jsonl": tokens(dict(TOKEN, frame="a"))}, DECODE),
    "token-line-list": ({"tokens.jsonl": tokens(TOKEN, [1, 2])}, DECODE),
    "token-conf-string": ({"tokens.jsonl": tokens(dict(TOKEN, conf_l="hi"))}, DECODE),
    "track-config-empty-string": ({}, ["track", "--seq", "{seq}", "--config", ""]),
    "track-config-sigma-above-cap": (  # the blur matrix would take minutes to build
        {"tracker.json": {"gauss_sigma": 1e7}},
        ["track", "--seq", "{seq}", "--config", "{d}/tracker.json"],
    ),
    "undecodable-track-config": (
        {"tracker.json": UNDECODABLE}, ["track", "--seq", "{seq}", "--config", "{d}/tracker.json"]
    ),
    "undecodable-mapping": (
        {"mapping.json": UNDECODABLE, "tokens.jsonl": tokens(TOKEN)},
        DECODE + ["--mapping", "{d}/mapping.json"],
    ),
    "undecodable-gains": ({"gains.json": UNDECODABLE}, GAINS),
    "undecodable-synth-spec": ({"spec.json": UNDECODABLE}, SYNTH + ["--kind", "diver"]),
    "undecodable-experiment-spec": ({"exp.json": UNDECODABLE}, EXPERIMENT),
    "undecodable-token-line": ({"tokens.jsonl": tokens(TOKEN).encode() + UNDECODABLE}, DECODE),
    "deeply-nested-spec": ({"spec.json": "[" * 100_000}, SYNTH + ["--kind", "diver"]),
    "deeply-nested-token-line": ({"tokens.jsonl": "[" * 100_000}, DECODE),
    "deeply-nested-manifest": ({"seq/manifest.json": "[" * 100_000}, ["track", "--seq", "{d}/seq"]),
    "track-missing-seq-dir": ({}, ["track", "--seq", "{d}/nowhere"]),
    "track-pgm-trailing-bytes": (  # pixel data must end the file
        {"seq/manifest.json": {"fps": 10.0, "width": 90, "height": 60, "channels": 1,
                               "frame_count": 15},
         **{f"seq/frame_{i:06d}.pgm": BLACK_PGM + (b"junk" if i == 14 else b"") for i in range(15)}},
        ["track", "--seq", "{d}/seq"],
    ),
    "track-manifest-fps-zero": (
        {"seq/manifest.json": {"fps": 0, "width": 90, "height": 60, "channels": 1,
                               "frame_count": 15},
         **{f"seq/frame_{i:06d}.pgm": BLACK_PGM for i in range(15)}},
        ["track", "--seq", "{d}/seq"],
    ),
    "track-fps-mismatch": (  # the default tracker config is for 10 fps
        {"seq/manifest.json": {"fps": 20.0, "width": 90, "height": 60, "channels": 1,
                               "frame_count": 15},
         **{f"seq/frame_{i:06d}.pgm": BLACK_PGM for i in range(15)}},
        ["track", "--seq", "{d}/seq"],
    ),
    "decode-oracle-missing-seq-dir": ({}, ["decode", "--seq", "{d}/nowhere"]),
    "decode-shape-missing-seq-dir": (
        {}, ["decode", "--seq", "{d}/nowhere", "--recognizer", "shape"]
    ),
    "bench-T-not-integer": ({}, ["bench", "--M", "4", "--T", "abc"]),
    "bench-M-not-integer": ({}, ["bench", "--M", "abc", "--T", "15"]),
    "bench-T-zero": ({}, ["bench", "--M", "4", "--T", "15,0"]),
    "bench-cycles-negative": ({}, ["bench", "--M", "4", "--T", "15", "--cycles", "-1"]),
    # sizes whose arrays cannot be allocated: (T, T) complex at 149 GiB, two (M, M) at 87.9 GiB
    "bench-T-beyond-cap": ({}, ["bench", "--M", "4", "--T", "15,100000"]),
    "bench-M-beyond-cap": ({}, ["bench", "--M", "25,76800", "--T", "15"]),
    # 491 GB of (cycles, T, M) evidence, 10^12 follow log rows, renders of 10^14 pixels and more
    "bench-cycles-beyond-cap": ({}, ["bench", "--M", "4096", "--T", "15", "--cycles", "1000000"]),
    "follow-duration-beyond-cap": ({}, FOLLOW + ["--duration-s", "1e12"]),
    "experiment-follow-steps-beyond-cap": (
        {"exp.json": follow_experiment({"duration_s": 1e9, "fps": 1e3})}, EXPERIMENT
    ),
    "synth-diver-frames-beyond-cap": (
        {"spec.json": {"frames": 10**12}}, SYNTH + ["--kind", "diver"]
    ),
    "synth-diver-width-beyond-cap": ({"spec.json": {"width": 10**12}}, SYNTH + ["--kind", "diver"]),
    "synth-gesture-frames-beyond-cap": (
        {"spec.json": {"segments": [{"left": "one", "frames": 10**12}]}},
        SYNTH + ["--kind", "gesture"],
    ),
    "synth-gesture-height-beyond-cap": (
        {"spec.json": dict(ONE_HAND, height=10**12)}, SYNTH + ["--kind", "gesture"]
    ),
    "track-config-one-pixel-windows": (  # M = 8100 on the 90x90 sequence
        {"tracker.json": {"window": [1, 1]}},
        ["track", "--seq", "{seq}", "--config", "{d}/tracker.json"],
    ),
    "track-config-T-beyond-cap": (
        {"tracker.json": {"T": 100000, "stride": 1}},
        ["track", "--seq", "{seq}", "--config", "{d}/tracker.json"],
    ),
    "gesture-fps-nan": (
        {"spec.json": '{"segments": [{"left": "one", "frames": 2}], "fps": NaN}'},
        SYNTH + ["--kind", "gesture"],
    ),
    "synth-diver-seed-negative": ({"spec.json": {}}, SYNTH + ["--kind", "diver", "--seed", "-1"]),
    "synth-gesture-seed-negative": (
        {"spec.json": dict(ONE_HAND, seed=-3)}, SYNTH + ["--kind", "gesture"]
    ),
    "experiment-diver-seed-negative": (
        {"exp.json": {"kind": "track", "scene": {"seed": -2}}}, EXPERIMENT
    ),
    "synth-gesture-jitter-beyond-margin": (  # a hand's margin is 30 px at 320x240
        {"spec.json": dict(ONE_HAND, jitter=100)}, SYNTH + ["--kind", "gesture"]
    ),
    "synth-gesture-jitter-at-minimum-frame": (  # no margin at all at 200x100
        {"spec.json": dict(ONE_HAND, width=200, height=100, jitter=1)},
        SYNTH + ["--kind", "gesture"],
    ),
    "synth-flipper-amplitude-negative": (  # 250 +- 40 leaves [0, 255]
        {"spec.json": {"flipper": {"intensity": 250.0, "amplitude": -40.0}}},
        SYNTH + ["--kind", "diver"],
    ),
    "synth-flipper-radius-negative": (
        {"spec.json": {"flipper": {"radius": -5.0}}}, SYNTH + ["--kind", "diver"]
    ),
    "synth-flipper-radius-zero": (
        {"spec.json": {"flipper": {"radius": 0}}}, SYNTH + ["--kind", "diver"]
    ),
}

# the spec refusals of a value that reads fine but is out of range, each with its key
RANGE_CASES = {
    "synth-diver-seed-negative": "seed",
    "synth-gesture-seed-negative": "seed",
    "experiment-diver-seed-negative": "seed",
    "synth-gesture-jitter-beyond-margin": "jitter",
    "synth-gesture-jitter-at-minimum-frame": "jitter",
    "synth-flipper-amplitude-negative": "amplitude",
    "synth-flipper-radius-negative": "radius",
    "synth-flipper-radius-zero": "radius",
    "track-config-sigma-above-cap": "gauss_sigma",
    "bench-T-beyond-cap": "slide size T",
    "bench-M-beyond-cap": "window count M",
    "bench-cycles-beyond-cap": "--cycles",
    "follow-duration-beyond-cap": "duration_s",
    "experiment-follow-steps-beyond-cap": "duration_s",
    "synth-diver-frames-beyond-cap": "frames",
    "synth-diver-width-beyond-cap": "width",
    "synth-gesture-frames-beyond-cap": "frames",
    "synth-gesture-height-beyond-cap": "height",
    "track-config-one-pixel-windows": "window count M",
    "track-config-T-beyond-cap": "slide size T",
}

# one case per command family, also run as a child process
SUBPROCESS_CASES = [
    "undecodable-synth-spec",
    "follow-duration-nan",
    "token-line-list",
    "experiment-scene-list",
    "bench-cycles-negative",
]


@pytest.fixture(scope="module")
def diver_seq(tmp_path_factory):
    root = tmp_path_factory.mktemp("diver")
    spec, out = root / "spec.json", root / "seq"
    spec.write_text(json.dumps(DIVER_SPEC))
    assert main(["synth", "--kind", "diver", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def case_argv(case: str, directory, seq) -> list[str]:
    files, argv = CASES[case]
    for name, content in files.items():
        (directory / name).parent.mkdir(exist_ok=True)
        if isinstance(content, bytes):
            (directory / name).write_bytes(content)
            continue
        text = content if isinstance(content, str) else json.dumps(content)
        (directory / name).write_text(text.replace("{d}", str(directory)))
    return [a.replace("{d}", str(directory)).replace("{seq}", str(seq)) for a in argv]


def assert_one_error_line(stderr: str) -> None:
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    assert lines[0].startswith(("error:", "I/O error:")), stderr


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_input_exits_with_one_error_line(case, tmp_path, diver_seq, capsys):
    code = main(case_argv(case, tmp_path, diver_seq))
    assert code in (1, 2)
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "case, code",
    [
        ("experiment-unknown-key", 1),
        ("track-missing-seq-dir", 2),
        ("track-pgm-trailing-bytes", 2),
        ("track-manifest-fps-zero", 1),
        ("track-fps-mismatch", 1),
        *((case, 1) for case in RANGE_CASES),
    ],
)
def test_exit_code_tells_validation_from_io(case, code, tmp_path, diver_seq, capsys):
    assert main(case_argv(case, tmp_path, diver_seq)) == code
    assert capsys.readouterr().err.startswith("error:" if code == 1 else "I/O error:")


@pytest.mark.parametrize(
    "case, key",
    [
        ("gains-output-clamp-above-one", "output_clamp"),
        ("track-manifest-fps-zero", "'fps'"),
        ("track-fps-mismatch", "20.0 fps"),
        *RANGE_CASES.items(),
    ],
)
def test_error_line_names_the_key(case, key, tmp_path, diver_seq, capsys):
    assert main(case_argv(case, tmp_path, diver_seq)) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert key in err


@pytest.mark.parametrize("case", [c for c in RANGE_CASES if "beyond-cap" in c or "pixel" in c])
def test_size_refusal_comes_before_the_large_arrays(case, tmp_path, diver_seq, capsys):
    argv = case_argv(case, tmp_path, diver_seq)
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("case", [c for c in RANGE_CASES if c.startswith("bench-")])
def test_bench_refuses_before_its_first_line(case, tmp_path, diver_seq, capsys):
    # every (M, T) and the evidence size are checked before the header and the first row
    assert main(case_argv(case, tmp_path, diver_seq)) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("recognizer", ["oracle", "shape"])
def test_decode_missing_seq_dir_is_an_io_error(recognizer, tmp_path, diver_seq, capsys):
    assert main(case_argv(f"decode-{recognizer}-missing-seq-dir", tmp_path, diver_seq)) == 2
    assert capsys.readouterr().err.startswith("I/O error:")


def test_number_beyond_the_int_digit_limit_decodes_to_nothing(tmp_path, capsys):
    mapping = load_mapping()
    digits = ["DIGIT_1"] * (sys.get_int_max_str_digits() + 1)
    rest = {"left": None, "right": None, "conf_l": None, "conf_r": None}
    records = []
    for name in ["STOP", "HOVER", *digits, "GO"]:
        left, right = mapping.pair_for(Token.from_name(name))
        held = dict(TOKEN, left=left.name, right=right.name)
        records += [held] * DEBOUNCE_FRAMES + [rest]  # the rest lets a repeated pair fire again
    lines = [json.dumps(dict(record, frame=i)) + "\n" for i, record in enumerate(records)]
    (tmp_path / "tokens.jsonl").write_text("".join(lines))
    assert main([a.replace("{d}", str(tmp_path)) for a in DECODE]) == 0
    assert (tmp_path / "ins.jsonl").read_text() == ""
    assert capsys.readouterr().err == ""


def test_malformed_input_prints_no_traceback(tmp_path, diver_seq):
    argvs = []
    for case in SUBPROCESS_CASES:
        (tmp_path / case).mkdir()
        argvs.append(case_argv(case, tmp_path / case, diver_seq))
    # the children are independent, so they run side by side
    with ThreadPoolExecutor(len(argvs)) as pool:
        procs = list(pool.map(lambda argv: run_cli(*argv), argvs))
    for case, proc in zip(SUBPROCESS_CASES, procs):
        assert proc.returncode in (1, 2), case
        assert "Traceback" not in proc.stderr, case
        assert_one_error_line(proc.stderr)


@pytest.mark.parametrize(
    "command, truth",
    [
        ("track", {"centers": 5}),
        ("track", {"centers": [[45.0]] * 45}),
        ("decode", {"gesture_labels": 5}),
        ("decode", {"gesture_labels": [["zero"]] * 45}),
        ("decode", {"gesture_labels": [["zero", "zero"]] * 10}),
    ],
)
def test_malformed_truth_exits_1_with_one_line(command, truth, tmp_path, diver_seq, capsys):
    seq = tmp_path / "seq"
    shutil.copytree(diver_seq, seq)
    (seq / "truth.json").write_text(json.dumps(truth))
    assert main([command, "--seq", str(seq), "--out", str(tmp_path / "out.jsonl")]) == 1
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("fps", ["NaN", "1e400", "0"])
def test_gesture_scene_without_a_finite_positive_fps_writes_nothing(fps, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"segments": [{"left": "one", "frames": 2}], "fps": %s}' % fps)
    out = tmp_path / "seq"
    assert main(["synth", "--kind", "gesture", "--spec", str(spec), "--out", str(out)]) == 1
    assert not out.exists()


def test_sinusoid_path_too_fast_for_a_finite_phase_is_refused():
    with pytest.raises(ValidationError, match="sinusoid"):
        DiverSceneSpec.from_dict({"path": {"kind": "sinusoid", "amplitude": 1.0, "period": 5e-324}})


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["diver", "gesture"]),
    frames=st.integers(1, 2),
    # each value from a narrow range around its bounds or a wide one
    seed=st.integers(-3, 3) | st.integers(-2**70, 2**70),
    jitter=st.integers(-3, 40) | st.integers(-400, 400),
    size=st.tuples(st.integers(190, 420), st.integers(90, 300)),
    radius=st.floats(-3.0, 30.0) | st.floats(-1e3, 1e3),
    amplitude=st.floats(-60.0, 60.0) | st.floats(-400.0, 400.0),
)
def test_synth_on_wide_spec_values_exits_0_or_1(
    kind, frames, seed, jitter, size, radius, amplitude
):
    if kind == "diver":
        flipper = dict(DIVER_SPEC["flipper"], radius=radius, amplitude=amplitude)
        spec = dict(DIVER_SPEC, frames=frames, flipper=flipper)
    else:
        segments = [dict(GESTURE_SPEC["segments"][1], frames=frames)]
        spec = {"segments": segments, "width": size[0], "height": size[1], "jitter": jitter}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["synth", "--kind", kind, "--spec", str(path), "--out", f"{d}/seq"]
        argv += ["--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1)
    if code == 1:
        assert_one_error_line(err.getvalue())


def test_follow_scene_defaults_and_checks():
    assert FollowScene.from_dict({}) == FollowScene()
    assert FollowScene.from_dict({"fps": 5}).fps == 5.0
    for bad in ({"fps": -1.0}, {"duration_s": 0.01}, {"duration_s": -5.0}):
        with pytest.raises(ValidationError):
            FollowScene.from_dict(bad)
    with pytest.raises(ValidationError, match="offset_x"):
        FollowScene(offset_x=math.inf)


# ---------------------------------------------------------------------------
# arbitrary JSON into every typed loader
# ---------------------------------------------------------------------------

LOADERS = [
    TrackerConfig.from_dict,
    DiverSceneSpec.from_dict,
    GestureSceneSpec.from_dict,
    ServoConfig.from_dict,
    mapping_from_dict,
    GesturePairToken.from_record,
    FollowScene.from_dict,
    GroundTruth.from_dict,
]

# keys and strings the loaders know, so generated objects reach the converters
KEYS = (
    "T p delta epsilon R fps band stride window gauss_sigma frames width height "
    "background noise_sigma flipper path start seed radius intensity amplitude "
    "frequency kind vx vy period segments left right skin jitter yaw pitch vertical "
    "forward kp ki kd integral_clamp output_clamp target_area_fraction v_max omega_max "
    "offset_x offset_y duration_s distance_ratio pairs token frame conf_l conf_r centers "
    "windows gesture_labels"
).split()
WORDS = KEYS + "sinusoid straight sideways static STOP GO DIGIT_3 DIGIT_9 zero one five ok pic".split()

# Numbers are bounded: an integral float reads as an integer, and a frame count or
# slide size of 1e12 is a valid request whose checks alone take that many steps.
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-10**4, 10**4)
    | st.floats(-1e4, 1e4)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.sampled_from(WORDS)
    | st.text(max_size=6)
)
# Lists and objects nested up to three deep, built level by level: st.recursive
# would re-read this file by line number to check that its extend function
# recurses, and warn when the file changed on disk after the import.
json_values = scalars
for _ in range(3):
    json_values = scalars | st.lists(json_values, max_size=4) | st.dictionaries(
        st.sampled_from(KEYS) | st.text(max_size=4), json_values, max_size=5
    )
json_objects = st.dictionaries(st.sampled_from(KEYS), json_values, max_size=6)


def packaged(name: str) -> dict:
    """A data file shipped with the package, as parsed JSON."""
    return json.loads(resources.files("diverkit").joinpath("data", name).read_text())


# one valid input per loader, to be damaged at any depth
VALID = [
    TrackerConfig().to_dict(),
    to_json(DiverSceneSpec()),
    to_json(GestureSceneSpec(segments=(GestureSegment(GestureClass.one, None, 3),))),
    to_json(ServoConfig()),
    packaged("mapping.json"),
    GesturePairToken(GestureClass.ok, None, 4, conf_left=0.5).to_record(),
    {"offset_x": 0.3, "offset_y": -0.1, "duration_s": 2.0, "fps": 10.0, "distance_ratio": 1.0},
    {"centers": [[1.0, 2.0]], "windows": [3], "gesture_labels": [["one", None]]},
]


def test_valid_inputs_load():
    for load, raw in zip(LOADERS, VALID, strict=True):
        load(raw)


def objects_in(value):
    if isinstance(value, dict):
        yield value
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from objects_in(item)


@st.composite
def damaged_valid_inputs(draw):
    """A valid input with one to three values, at any depth, replaced by arbitrary JSON."""
    raw = json.loads(json.dumps(draw(st.sampled_from(VALID))))
    for _ in range(draw(st.integers(1, 3))):
        obj = draw(st.sampled_from(list(objects_in(raw))))
        key = draw(st.sampled_from(sorted(obj) or KEYS))
        obj[key] = draw(scalars | json_values)
    return raw


@settings(max_examples=100, deadline=None)
@given(st.one_of(json_values, json_objects, damaged_valid_inputs(), damaged_valid_inputs()))
def test_loaders_return_or_raise_validation_error(raw):
    for load in LOADERS:
        try:
            load(raw)
        except ValidationError:
            pass
