import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverkit import gesture, kernels, synth
from diverkit.core import Frame, ValidationError
from diverkit.gesture import (
    CacheEntry,
    GestureClass,
    GesturePairToken,
    HsvRange,
    OracleRecognizer,
    RegionCache,
    ShapeRecognizer,
    build_default_bank,
    extract_regions,
    load_gesture_config,
    match_gesture,
    recognize_pair,
    region_from_pixels,
    reject_outliers,
    rgb_to_hsv,
    segment_skin,
)

SKIN_HSV = HsvRange(h=(5.0, 45.0), s=(0.15, 0.6), v=(0.5, 1.0))


def solid_frame(color, w=320, h=240):
    img = np.empty((h, w, 3))
    img[:] = color
    return Frame(img)


def disk_mask(h, w, cx, cy, r):
    ys, xs = np.ogrid[:h, :w]
    return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r


class TestHsv:
    def test_known_conversions(self):
        h, s, v = rgb_to_hsv(np.array([[[255.0, 0.0, 0.0]]]))
        assert (h[0, 0], s[0, 0], v[0, 0]) == (0.0, 1.0, 1.0)
        h, s, v = rgb_to_hsv(np.array([[[0.0, 255.0, 0.0]]]))
        assert h[0, 0] == 120.0
        h, s, v = rgb_to_hsv(np.array([[[0.0, 0.0, 255.0]]]))
        assert h[0, 0] == 240.0

    def test_matches_colorsys(self):
        import colorsys

        rng = np.random.default_rng(0)
        for _ in range(50):
            rgb = rng.uniform(0, 255, 3)
            h, s, v = rgb_to_hsv(rgb.reshape(1, 1, 3))
            hh, ss, vv = colorsys.rgb_to_hsv(*(rgb / 255.0))
            assert h[0, 0] == pytest.approx(hh * 360.0, abs=1e-9)
            assert s[0, 0] == pytest.approx(ss, abs=1e-9)
            assert v[0, 0] == pytest.approx(vv, abs=1e-9)

    def test_wraparound_hue_interval(self):
        r = HsvRange(h=(350.0, 20.0), s=(0.0, 1.0), v=(0.0, 1.0))
        assert r.contains(np.array(10.0), np.array(0.5), np.array(0.5))
        assert r.contains(np.array(355.0), np.array(0.5), np.array(0.5))
        assert not r.contains(np.array(180.0), np.array(0.5), np.array(0.5))

    def test_empty_range_rejected(self):
        with pytest.raises(ValidationError):
            HsvRange(h=(0.0, 360.0), s=(0.6, 0.2), v=(0.0, 1.0))


class TestSegmentSkin:
    def test_all_skin_frame_gives_full_mask(self):
        mask = segment_skin(solid_frame(synth.DEFAULT_SKIN), SKIN_HSV)
        assert mask.all()

    def test_background_frame_gives_empty_mask(self):
        mask = segment_skin(solid_frame(synth.DEFAULT_GESTURE_BACKGROUND), SKIN_HSV)
        assert not mask.any()

    def test_gray_frame_rejected(self):
        with pytest.raises(TypeError):
            segment_skin(Frame(np.zeros((8, 8))), SKIN_HSV)

    def test_mask_area_tracks_rendered_blob(self):
        spec = synth.GestureSceneSpec(
            segments=(synth.GestureSegment(GestureClass.zero, GestureClass.zero, 1),)
        )
        frames, _ = synth.render_gesture_sequence(spec)
        mask = segment_skin(frames[0], SKIN_HSV)
        blob_area = 2 * synth.hand_mask(GestureClass.zero).sum()
        perimeter = 2 * 2 * math.pi * 30  # two disk silhouettes of radius 30
        assert abs(int(mask.sum()) - blob_area) <= perimeter * 3.0


def stacked_hsv(frame, sigma=1.0):
    """Oracle: (H, S, V) of the stacked (h, w, 3) blurred frame."""
    blurred = np.stack(
        [kernels.gaussian_blur(frame.pixels[:, :, c], sigma) for c in range(3)], axis=-1
    )
    return rgb_to_hsv(blurred)


@st.composite
def skin_cases(draw):
    """A frame, a blur sigma and an HSV range whose edges often sit on pixel values."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pixels = rng.integers(0, 256, (h, w, 3)).astype(np.float64)
    else:
        pixels = rng.uniform(0.0, 255.0, (h, w, 3))
    # per-pixel odds of (kept, gray with span 0, black with maxc 0)
    odds = draw(st.sampled_from([(1, 0, 0), (0.6, 0.2, 0.2), (0, 1, 0), (0, 0.5, 0.5)]))
    kind = rng.choice(3, size=(h, w), p=odds)
    pixels[kind == 1] = pixels[kind == 1][:, :1]
    pixels[kind == 2] = 0.0
    frame = Frame(pixels)
    sigma = draw(st.sampled_from([0.0, 1.0, 2.5]))

    hue, sat, val = (a.ravel() for a in stacked_hsv(frame, sigma))

    def edge(seen, lo, hi):
        on_pixel = st.integers(0, seen.size - 1).map(lambda i: float(seen[i]))
        return draw(st.one_of(on_pixel, st.floats(lo, hi)))

    # unsorted hue edges give a wrapping interval such as [350, 20]
    hsv_range = HsvRange(
        h=(edge(hue, 0.0, 359.99), edge(hue, 0.0, 359.99)),
        s=tuple(sorted((edge(sat, 0.0, 1.0), edge(sat, 0.0, 1.0)))),
        v=tuple(sorted((edge(val, 0.0, 1.0), edge(val, 0.0, 1.0)))),
    )
    return frame, sigma, hsv_range


class TestSkinMaskEquality:
    @settings(max_examples=300, deadline=None)
    @given(skin_cases())
    def test_matches_stacked_hsv_threshold(self, case):
        frame, sigma, hsv_range = case
        got = segment_skin(frame, hsv_range, sigma)
        assert got.dtype == bool
        assert np.array_equal(got, hsv_range.contains(*stacked_hsv(frame, sigma)))

    def test_matches_on_noisy_study_scene(self):
        raw = resources.files("diverkit").joinpath(
            "data", "experiments", "study_instructions.json"
        ).read_text()
        scene = dict(json.loads(raw)["scene"], noise_sigma=10.0, jitter=3)
        frames, _ = synth.render_gesture_sequence(synth.GestureSceneSpec.from_dict(scene))
        hsv_range, _ = load_gesture_config()
        mismatched = [
            f.index
            for f in frames
            if not np.array_equal(
                segment_skin(f, hsv_range), hsv_range.contains(*stacked_hsv(f))
            )
        ]
        assert len(frames) == 260 and mismatched == []


class TestRegions:
    def test_disk_descriptor(self):
        mask = disk_mask(100, 100, 50, 50, 20)
        regions = extract_regions(mask)
        assert len(regions) == 1
        region = regions[0]
        assert abs(region.area - math.pi * 400) / (math.pi * 400) < 0.02
        assert region.descriptor[2] > 0.95  # solidity
        assert region.centroid == pytest.approx((50.0, 50.0), abs=0.01)

    def test_empty_mask(self):
        assert extract_regions(np.zeros((50, 50), bool)) == []

    def test_min_area_filter(self):
        mask = disk_mask(60, 60, 30, 30, 4)  # ~50 px, below the 100 px floor
        assert extract_regions(mask) == []
        assert len(extract_regions(mask, min_area=10)) == 1

    def test_two_blobs_ordered_by_area(self):
        mask = disk_mask(100, 200, 150, 50, 25) | disk_mask(100, 200, 40, 50, 15)
        regions = extract_regions(mask)
        assert len(regions) == 2
        assert regions[0].area > regions[1].area
        assert regions[0].centroid[0] == pytest.approx(150.0, abs=0.1)

    def test_eight_connectivity(self):
        # two squares touching only at one diagonal pixel pair
        mask = np.zeros((40, 40), bool)
        mask[5:10, 5:10] = True
        mask[10:15, 10:15] = True
        regions = extract_regions(mask, min_area=10)
        assert len(regions) == 1


class TestRejectOutliers:
    def _region(self, cx, cy, r=20):
        mask = disk_mask(240, 320, cx, cy, r)
        ys, xs = np.nonzero(mask)
        return region_from_pixels(xs, ys)

    def _cache(self, cx, cy, frame_index=0):
        region = self._region(cx, cy)
        return RegionCache(
            horizon=30,
            left=CacheEntry(region.bbox, region.centroid, region.area, frame_index),
        )

    def test_no_cache_is_identity(self):
        regions = [self._region(60, 60)]
        assert reject_outliers(regions, None) == regions
        assert reject_outliers(regions, RegionCache()) == regions

    def test_identical_region_retained(self):
        regions = [self._region(60, 60)]
        cache = self._cache(60, 60)
        assert reject_outliers(regions, cache, frame_index=1) == regions

    def test_far_region_dropped(self):
        regions = [self._region(300, 220)]
        cache = self._cache(30, 30)
        assert reject_outliers(regions, cache, frame_index=1) == []

    def test_area_blowup_dropped(self):
        big = self._region(60, 60, r=80)
        cache = self._cache(60, 60, frame_index=0)
        assert reject_outliers([big], cache, frame_index=1) == []

    def test_expired_cache_is_identity(self):
        regions = [self._region(300, 220)]
        cache = self._cache(30, 30, frame_index=0)
        assert reject_outliers(regions, cache, frame_index=100) == regions


class TestMatching:
    def test_exact_template_match(self):
        bank = build_default_bank()
        mask = synth.hand_mask(GestureClass.ok)
        ys, xs = np.nonzero(mask)
        region = region_from_pixels(xs, ys)
        cls, conf = match_gesture(region, bank)
        assert cls is GestureClass.ok
        assert conf == pytest.approx(1.0)

    def test_tie_breaks_to_lower_enum_index(self):
        bank = {
            GestureClass.two: np.array([0.5, 0.5, 0.5]),
            GestureClass.one: np.array([0.5, 0.5, 0.5]),
        }
        mask = disk_mask(100, 100, 50, 50, 20)
        region = extract_regions(mask)[0]
        cls, _ = match_gesture(region, bank)
        assert cls is GestureClass.one

    def test_empty_bank_rejected(self):
        mask = disk_mask(100, 100, 50, 50, 20)
        region = extract_regions(mask)[0]
        with pytest.raises(ValidationError):
            match_gesture(region, {})


class TestRecognizePair:
    BANK = None

    @classmethod
    def setup_class(cls):
        cls.BANK = build_default_bank()

    def _scene(self, left, right, **kwargs):
        spec = synth.GestureSceneSpec(
            segments=(synth.GestureSegment(left, right, 1),), **kwargs
        )
        return synth.render_gesture_sequence(spec)[0][0]

    def test_zero_zero_scene(self):
        frame = self._scene(GestureClass.zero, GestureClass.zero)
        token = recognize_pair(frame, None, self.BANK, SKIN_HSV)
        assert (token.left, token.right) == (GestureClass.zero, GestureClass.zero)
        assert token.conf_left > 0.9 and token.conf_right > 0.9

    def test_blank_frame(self):
        token = recognize_pair(
            solid_frame(synth.DEFAULT_GESTURE_BACKGROUND), None, self.BANK, SKIN_HSV
        )
        assert token.pair == (None, None)
        assert token.conf_left is None and token.conf_right is None

    def test_one_hand_scene(self):
        frame = self._scene(None, GestureClass.five)
        token = recognize_pair(frame, None, self.BANK, SKIN_HSV)
        assert token.left is None
        assert token.right is GestureClass.five

    def test_sides_follow_the_person(self):
        # person's right hand is drawn in the viewer-left half
        frame = self._scene(GestureClass.one, GestureClass.five)
        token = recognize_pair(frame, None, self.BANK, SKIN_HSV)
        assert token.left is GestureClass.one
        assert token.right is GestureClass.five

    def test_cache_updated_on_success(self):
        cache = RegionCache()
        frame = self._scene(GestureClass.zero, GestureClass.pic)
        recognize_pair(frame, cache, self.BANK, SKIN_HSV, frame_index=3)
        assert cache.left is not None and cache.right is not None
        assert cache.left.frame_index == 3

    def test_determinism(self):
        frame = self._scene(GestureClass.three, GestureClass.four, noise_sigma=10.0, seed=4)
        a = recognize_pair(frame, None, self.BANK, SKIN_HSV)
        b = recognize_pair(frame, None, self.BANK, SKIN_HSV)
        assert a == b


class TestRecognizers:
    def test_oracle_replays_labels(self):
        labels = [("zero", "one"), (None, "pic")]
        rec = OracleRecognizer(labels)
        frame = solid_frame((0, 0, 0), w=8, h=8)
        t0 = rec(frame, 0)
        assert (t0.left, t0.right) == (GestureClass.zero, GestureClass.one)
        t1 = rec(frame, 1)
        assert t1.left is None and t1.right is GestureClass.pic

    def test_shape_recognizer_runs_with_packaged_defaults(self):
        spec = synth.GestureSceneSpec(
            segments=(synth.GestureSegment(GestureClass.ok, GestureClass.ok, 2),)
        )
        frames, _ = synth.render_gesture_sequence(spec)
        rec = ShapeRecognizer()
        token = rec(frames[0], 0)
        assert (token.left, token.right) == (GestureClass.ok, GestureClass.ok)

    def test_shape_recognizer_survives_shape_changes_across_rests(self):
        # sparse wide shape -> rest -> compact shape: the cache from the first
        # segment must not reject the second (pixel areas, not bbox areas)
        spec = synth.GestureSceneSpec(
            segments=(
                synth.GestureSegment(GestureClass.five, GestureClass.five, 12),
                synth.GestureSegment(None, None, 8),
                synth.GestureSegment(GestureClass.ok, GestureClass.ok, 12),
                synth.GestureSegment(GestureClass.right, GestureClass.right, 12),
            )
        )
        frames, truth = synth.render_gesture_sequence(spec)
        rec = ShapeRecognizer()
        for i, frame in enumerate(frames):
            token = rec(frame, i)
            got = (
                token.left.name if token.left else None,
                token.right.name if token.right else None,
            )
            assert got == truth.gesture_labels[i], f"frame {i}"


class TestConfig:
    def test_packaged_config_matches_computed_bank(self):
        hsv, bank = load_gesture_config()
        computed = build_default_bank()
        assert set(bank) == set(computed)
        for cls in computed:
            assert bank[cls] == pytest.approx(computed[cls], abs=1e-9)
        assert hsv == SKIN_HSV

    def test_config_roundtrip(self, tmp_path):
        import json

        hsv, bank = load_gesture_config()
        path = tmp_path / "gesture.json"
        path.write_text(json.dumps(gesture.gesture_config_to_dict(hsv, bank)))
        hsv2, bank2 = load_gesture_config(path)
        assert hsv2 == hsv
        for cls in bank:
            assert bank2[cls] == pytest.approx(bank[cls])

    def test_malformed_config_rejected(self, tmp_path):
        path = tmp_path / "gesture.json"
        path.write_text('{"hsv": {"h": [0, 60]}}')
        with pytest.raises(ValidationError):
            load_gesture_config(path)

    def test_token_confidence_invariant(self):
        with pytest.raises(ValidationError):
            GesturePairToken(left=GestureClass.ok, right=None, conf_left=None)
