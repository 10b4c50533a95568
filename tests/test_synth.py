import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import ndimage

from diverkit import synth
from diverkit.core import GridConfig, ValidationError, to_json
from diverkit.gesture import GestureClass
from diverkit.synth import (
    DiverSceneSpec,
    Flipper,
    GestureSceneSpec,
    GestureSegment,
    GroundTruth,
    PathSpec,
    hand_anchor,
    hand_mask,
    render_diver_sequence,
    render_gesture_sequence,
)


class TestDiverScene:
    def spec(self, **kwargs):
        defaults = dict(
            frames=20,
            fps=10.0,
            width=90,
            height=90,
            background=60.0,
            noise_sigma=0.0,
            flipper=Flipper(radius=10, intensity=200.0, amplitude=30.0, frequency=1.5),
            path=PathSpec("static"),
            start=(45.0, 45.0),
            seed=0,
        )
        defaults.update(kwargs)
        return DiverSceneSpec(**defaults)

    def test_zero_amplitude_blob_constant(self):
        spec = self.spec(flipper=Flipper(radius=10, intensity=200.0, amplitude=0.0, frequency=1.5))
        frames, _ = render_diver_sequence(spec)
        for f in frames:
            assert f.pixels[45, 45] == 200.0

    def test_blob_intensity_at_t5_is_trough(self):
        # sin(2 pi * 1.5 * 5 / 10) = sin(1.5 pi) = -1
        spec = self.spec()
        assert spec.blob_intensity(5) == pytest.approx(200.0 - 30.0)
        frames, _ = render_diver_sequence(spec)
        assert frames[5].pixels[45, 45] == pytest.approx(170.0)

    def test_straight_path_center(self):
        spec = self.spec(path=PathSpec("straight", vx=1.0, vy=0.0), start=(20.0, 45.0))
        _, truth = render_diver_sequence(spec)
        for t, (x, y) in enumerate(truth.centers):
            assert x == pytest.approx(20.0 + t)
            assert y == 45.0

    def test_sideways_is_horizontal(self):
        spec = self.spec(path=PathSpec("sideways", vx=2.0), start=(20.0, 45.0))
        _, truth = render_diver_sequence(spec)
        ys = {y for _, y in truth.centers}
        assert ys == {45.0}

    def test_sinusoid_path_sways_vertically(self):
        spec = self.spec(path=PathSpec("sinusoid", amplitude=8.0, period=10.0))
        _, truth = render_diver_sequence(spec)
        for t, (x, y) in enumerate(truth.centers):
            assert x == 45.0
            assert y == pytest.approx(45.0 + 8.0 * math.sin(2 * math.pi * t / 10.0))

    def test_blob_leaving_frame_rejected(self):
        with pytest.raises(ValidationError):
            self.spec(path=PathSpec("straight", vx=5.0), start=(45.0, 45.0))

    def test_nyquist_limit(self):
        with pytest.raises(ValidationError):
            self.spec(flipper=Flipper(radius=10, intensity=200, amplitude=30, frequency=5.0))

    def test_intensity_range_validated(self):
        with pytest.raises(ValidationError):
            self.spec(flipper=Flipper(radius=10, intensity=240.0, amplitude=30.0, frequency=1.5))

    def test_determinism(self):
        a, _ = render_diver_sequence(self.spec(noise_sigma=4.0, seed=5))
        b, _ = render_diver_sequence(self.spec(noise_sigma=4.0, seed=5))
        for fa, fb in zip(a, b):
            assert (fa.pixels == fb.pixels).all()

    def test_truth_windows_match_centers(self):
        spec = self.spec(path=PathSpec("straight", vx=1.5), start=(20.0, 45.0))
        _, truth = render_diver_sequence(spec)
        grid = GridConfig(90, 90, 30, 30)
        for (x, y), w in zip(truth.centers, truth.windows):
            assert grid.window_index_at(x, y) == w

    def test_oscillation_lands_on_expected_bin(self):
        # 2 Hz at 10 fps over 15 frames is exactly bin 3 of the window series
        from diverkit.core import TrackerConfig
        from diverkit.tracker import Tracker, dtft

        spec = self.spec(
            frames=15,
            flipper=Flipper(radius=10, intensity=200.0, amplitude=40.0, frequency=2.0),
        )
        frames, truth = render_diver_sequence(spec)
        trk = Tracker(TrackerConfig(), 90, 90)
        series = np.array([trk.evidence(f)[truth.windows[t]] for t, f in enumerate(frames)])
        spectrum = np.abs(dtft(series - series.mean()))
        assert spectrum[1:].argmax() + 1 in (3, 15 - 3)

    def test_spec_dict_roundtrip(self):
        spec = self.spec(path=PathSpec("straight", vx=1.0, vy=0.5), noise_sigma=2.0)
        assert DiverSceneSpec.from_dict(to_json(spec)) == spec

    def test_sinusoid_spec_dict_roundtrip(self):
        spec = self.spec(path=PathSpec("sinusoid", amplitude=10.0, period=20.0), seed=4)
        raw = to_json(spec)
        assert raw["path"] == {"kind": "sinusoid", "vx": 0.0, "vy": 0.0, "amplitude": 10.0,
                               "period": 20.0}
        assert DiverSceneSpec.from_dict(raw) == spec

    def test_truth_dict_roundtrip(self):
        _, truth = render_diver_sequence(self.spec(frames=5))
        raw = truth.to_dict()
        assert set(raw) == {"centers", "windows"} and raw["centers"][0] == [45.0, 45.0]
        labels = GroundTruth(gesture_labels=[("one", None), (None, None)])
        assert labels.to_dict() == {"gesture_labels": [["one", None], [None, None]]}
        for value in (truth, labels):
            assert GroundTruth.from_dict(value.to_dict()).to_dict() == value.to_dict()

    def test_spec_dict_numbers_are_converted(self):
        raw = dict(to_json(self.spec(noise_sigma=2.0)), background=60, fps=10)
        raw["flipper"] = dict(raw["flipper"], radius=10)
        spec = DiverSceneSpec.from_dict(raw)
        assert type(spec.background) is float and type(spec.flipper.radius) is float
        frames, _ = render_diver_sequence(spec)
        ref, _ = render_diver_sequence(self.spec(noise_sigma=2.0))
        assert all((a.pixels == b.pixels).all() for a, b in zip(frames, ref))

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"flipper": {"radius": "big"}}, "radius"),
            ({"flipper": {"radius": None}}, "radius"),
            ({"path": {"kind": "straight", "period": "x"}}, "period"),
            ({"frames": 20.5}, "frames"),
            ({"seed": True}, "seed"),
            ({"start": [45.0]}, "start"),
            ({"flipper": {"size": 3}}, "size"),
            ({"colour": 1}, "colour"),
        ],
    )
    def test_spec_dict_wrongly_typed_rejected(self, change, key):
        raw = dict(to_json(self.spec()), **change)
        with pytest.raises(ValidationError, match=key):
            DiverSceneSpec.from_dict(raw)


    @pytest.mark.parametrize(
        "path, start, first_out",
        [
            (PathSpec("straight", vx=1.0, vy=0.5), (20.0, 45.0), 70),  # x reaches 90 at t=70
            (PathSpec("straight", vx=-0.25, vy=-2.0), (45.0, 45.0), 23),  # y < 0 from t=23
            (PathSpec("sideways", vx=-3.0), (40.0, 45.0), 14),
            (PathSpec("static"), (90.0, 45.0), 0),
            (PathSpec("sinusoid", amplitude=50.0, period=40.0), (45.0, 45.0), 8),
        ],
    )
    def test_first_frame_outside_is_named(self, path, start, first_out):
        with pytest.raises(ValidationError, match=f"at t={first_out} "):
            self.spec(frames=100, path=path, start=start)

    def test_monotone_paths_are_checked_without_a_pass_per_frame(self):
        # a per-frame check of 10**8 frames would take about a minute
        spec = DiverSceneSpec.from_dict({"frames": 10**8, "path": {"kind": "straight", "vx": 1e-7}})
        assert spec.center_at(10**8 - 1)[0] == pytest.approx(170.0)

    def test_sinusoid_inside_the_frame_is_checked_without_a_pass_per_frame(self):
        # start y +- |amplitude| lies in the frame; a per-frame check would take 16 minutes
        code = (
            "from diverkit.synth import DiverSceneSpec\n"
            "path = {'kind': 'sinusoid', 'amplitude': -119.5, 'period': 7.5}\n"
            "spec = DiverSceneSpec.from_dict({'frames': 10**9, 'start': [0.0, 120.0], 'path': path})\n"
            "print(spec.frames)\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=5
        )
        assert child.stdout == f"{10**9}\n", child.stderr

    @pytest.mark.parametrize("start_y", [29.0, 30.0, 59.0, 60.0])
    def test_sinusoid_shortcut_agrees_with_a_scan(self, start_y):
        # start y +- 30 lies in [0, 90) only for y in [30, 60)
        path = PathSpec("sinusoid", amplitude=30.0, period=4.0)  # sin is +-1 at t = 1, 3
        outside = [t for t in range(8) if not 0.0 <= start_y + path.offset(t)[1] < 90.0]
        try:
            self.spec(frames=8, path=path, start=(45.0, start_y))
            assert outside == []
        except ValidationError as exc:
            assert f"at t={outside[0]} " in str(exc)

class TestHandShapes:
    def test_ten_distinct_connected_silhouettes(self):
        seen = []
        for cls in GestureClass:
            mask = hand_mask(cls)
            assert mask.sum() >= 1000
            _, n = ndimage.label(mask, structure=np.ones((3, 3), bool))
            assert n == 1, f"{cls.name} silhouette is disconnected"
            seen.append(mask)
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                assert (seen[i] != seen[j]).any()

    def test_ok_has_a_hole(self):
        mask = hand_mask(GestureClass.ok)
        filled = ndimage.binary_fill_holes(mask)
        assert filled.sum() > mask.sum()


class TestGestureScene:
    def spec(self, **kwargs):
        defaults = dict(
            segments=(GestureSegment(GestureClass.zero, GestureClass.zero, 12),),
            noise_sigma=0.0,
            jitter=0,
            seed=0,
        )
        defaults.update(kwargs)
        return GestureSceneSpec(**defaults)

    def test_labels_stream(self):
        frames, truth = render_gesture_sequence(self.spec())
        assert len(frames) == 12
        assert truth.gesture_labels == [("zero", "zero")] * 12

    def test_segment_plan_in_order(self):
        spec = self.spec(
            segments=(
                GestureSegment(GestureClass.ok, GestureClass.ok, 15),
                GestureSegment(GestureClass.pic, GestureClass.pic, 15),
            )
        )
        _, truth = render_gesture_sequence(spec)
        assert len(truth.gesture_labels) == 30
        assert truth.gesture_labels[:15] == [("ok", "ok")] * 15
        assert truth.gesture_labels[15:] == [("pic", "pic")] * 15

    def test_zero_jitter_centroids_match_templates(self):
        spec = self.spec(
            segments=(GestureSegment(GestureClass.five, GestureClass.three, 1),)
        )
        frames, _ = render_gesture_sequence(spec)
        img = frames[0].pixels
        skin = np.all(img == np.array(synth.DEFAULT_SKIN), axis=-1)
        labeled, n = ndimage.label(skin, structure=np.ones((3, 3), bool))
        assert n == 2
        # person's right hand (viewer-left) is the right_label = three
        mask3 = hand_mask(GestureClass.three)
        ys, xs = np.nonzero(mask3)
        ax, ay = hand_anchor(spec, "right")
        expected = (xs.mean() + ax, ys.mean() + ay)
        blob1 = labeled == labeled[:, : spec.width // 2].max()
        by, bx = np.nonzero(blob1)
        assert bx.mean() == pytest.approx(expected[0], abs=1e-9)
        assert by.mean() == pytest.approx(expected[1], abs=1e-9)

    def test_none_segment_renders_no_hands(self):
        spec = self.spec(segments=(GestureSegment(None, None, 3),))
        frames, truth = render_gesture_sequence(spec)
        assert truth.gesture_labels == [(None, None)] * 3
        img = frames[0].pixels
        assert np.all(img == np.array(synth.DEFAULT_GESTURE_BACKGROUND))

    def test_determinism(self):
        spec = self.spec(noise_sigma=8.0, jitter=3, seed=21)
        a, _ = render_gesture_sequence(spec)
        b, _ = render_gesture_sequence(spec)
        for fa, fb in zip(a, b):
            assert (fa.pixels == fb.pixels).all()

    def test_spec_dict_roundtrip(self):
        spec = self.spec(
            segments=(
                GestureSegment(GestureClass.one, GestureClass.ok, 5),
                GestureSegment(None, GestureClass.pic, 4),
            ),
            noise_sigma=3.0,
            jitter=2,
            seed=9,
        )
        assert GestureSceneSpec.from_dict(to_json(spec)) == spec

    def test_one_hand_spec_dict_roundtrip(self):
        spec = self.spec(segments=(GestureSegment(None, GestureClass.five, 3),))
        raw = to_json(spec)
        assert raw["segments"] == [{"left": None, "right": "five", "frames": 3}]
        assert GestureSceneSpec.from_dict(raw) == spec

    def test_empty_segments_rejected(self):
        with pytest.raises(ValidationError):
            GestureSceneSpec(segments=())

    def test_spec_dict_numbers_and_hands_are_converted(self):
        raw = {"segments": [{"left": "one", "frames": 3.0}], "skin": [205, 160, 130], "fps": 10}
        spec = GestureSceneSpec.from_dict(raw)
        assert spec.segments == (GestureSegment(GestureClass.one, None, 3),)
        assert spec.skin == (205.0, 160.0, 130.0) and type(spec.skin[0]) is float
        assert type(spec.fps) is float

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"segments": [{"left": None, "right": None, "frames": "x"}]}, "frames"),
            ({"segments": [{"left": None, "right": None, "frames": 12.5}]}, "frames"),
            ({"segments": [{"left": "six", "right": None, "frames": 2}]}, "six"),
            ({"segments": [{"left": None, "hand": "one", "frames": 2}]}, "hand"),
            ({"segments": [{"left": "one", "right": None}]}, "frames"),
            ({"segments": 5}, "segments"),
            ({"width": 320.5}, "width"),
            ({"seed": True}, "seed"),
            ({"noise_sigma": "loud"}, "noise_sigma"),
            ({"skin": [205.0, 160.0]}, "skin"),
            ({"background": "blue"}, "background"),
        ],
    )
    def test_spec_dict_wrongly_typed_rejected(self, change, key):
        raw = dict(to_json(self.spec()), **change)
        with pytest.raises(ValidationError, match=key):
            GestureSceneSpec.from_dict(raw)

    def test_spec_dict_without_segments_rejected(self):
        with pytest.raises(ValidationError, match="segment"):
            GestureSceneSpec.from_dict({"seed": 1})
