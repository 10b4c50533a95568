import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial import ConvexHull, QhullError  # only the qhull oracle below uses it

from diverkit import gesture, kernels, synth
from diverkit.core import Frame, ValidationError
from diverkit.gesture import (
    GestureClass,
    SKIN_HSV,
    GesturePairToken,
    HsvRange,
    OracleRecognizer,
    RegionCache,
    ShapeRecognizer,
    build_default_bank,
    extract_regions,
    match_gesture,
    recognize_pair,
    region_from_pixels,
    reject_outliers,
    segment_skin,
)

def solid_frame(color, w=320, h=240):
    img = np.empty((h, w, 3))
    img[:] = color
    return Frame(img)


def disk_mask(h, w, cx, cy, r):
    ys, xs = np.ogrid[:h, :w]
    return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r


def rgb_to_hsv(rgb):
    """Oracle: RGB [0, 255] to (H degrees, S, V) of a whole image, S and V in [0, 1].

    It runs the per-pixel expressions of ``segment_skin`` on every pixel, so a
    threshold of its output is the mask ``segment_skin`` must give bit for bit.
    """
    arr = np.asarray(rgb, dtype=np.float64) / 255.0
    r, g, b = arr[..., 0], arr[..., 1], arr[..., 2]
    v, s, span = gesture._value_saturation(r, g, b)
    return gesture._hue(r, g, b, v, span), s, v


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
    if draw(st.booleans()):  # bytes, as rendered or read from a PPM
        pixels = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
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


def noisy_study_frames(seed):
    """The study scene's 260 frames rendered from ``seed`` with noise 10 and jitter 3."""
    raw = resources.files("diverkit").joinpath(
        "data", "experiments", "study_instructions.json"
    ).read_text()
    scene = dict(json.loads(raw)["scene"], noise_sigma=10.0, jitter=3, seed=seed)
    return synth.render_gesture_sequence(synth.GestureSceneSpec.from_dict(scene))[0]


class TestSkinMaskEquality:
    @settings(max_examples=300, deadline=None)
    @given(skin_cases())
    def test_matches_stacked_hsv_threshold(self, case):
        frame, sigma, hsv_range = case
        got = segment_skin(frame, hsv_range, sigma)
        assert got.dtype == bool
        assert np.array_equal(got, hsv_range.contains(*stacked_hsv(frame, sigma)))

    def test_matches_on_noisy_study_scene(self):
        frames = noisy_study_frames(seed=5)
        mismatched = [
            f.index
            for f in frames
            if not np.array_equal(segment_skin(f, SKIN_HSV), SKIN_HSV.contains(*stacked_hsv(f)))
        ]
        assert len(frames) == 260 and mismatched == []


DARK_MAX = 40  # dark pixels stay at or below this value in every channel
SIGMAS = [0.0, 1.0, 2.5]


@st.composite
def boxed_skin_cases(draw):
    """A dark frame with a rectangle of random pixels, a blur sigma and an HSV
    range whose V floor lies above the dark pixels, so skin can pass only near
    the rectangle and the box is usually a strict sub-rectangle of the frame."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    y1, x1 = draw(st.integers(y0 + 1, h)), draw(st.integers(x0 + 1, w))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pixels = rng.integers(0, DARK_MAX + 1, (h, w, 3), dtype=np.uint8)
    if draw(st.booleans()):  # bytes, as rendered or read from a PPM
        pixels[y0:y1, x0:x1] = rng.integers(0, 256, (y1 - y0, x1 - x0, 3))
    else:
        pixels = pixels.astype(np.float64)
        pixels[y0:y1, x0:x1] = rng.uniform(0.0, 255.0, (y1 - y0, x1 - x0, 3))
    frame = Frame(pixels)
    sigma = draw(st.sampled_from(SIGMAS))

    hue, sat, val = (a.ravel() for a in stacked_hsv(frame, sigma))
    v_floor = DARK_MAX / 255.0
    bright = val[val > v_floor]

    def edge(seen, lo, hi):
        if seen.size == 0:
            return draw(st.floats(lo, hi))
        on_pixel = st.integers(0, seen.size - 1).map(lambda i: float(seen[i]))
        return draw(st.one_of(on_pixel, st.floats(lo, hi)))

    hsv_range = HsvRange(
        h=(edge(hue, 0.0, 359.99), edge(hue, 0.0, 359.99)),
        s=tuple(sorted((edge(sat, 0.0, 1.0), edge(sat, 0.0, 1.0)))),
        v=tuple(sorted((edge(bright, v_floor, 1.0), edge(bright, v_floor, 1.0)))),
    )
    return frame, sigma, hsv_range


def dark_frame(h=40, w=60):
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[:] = (20, 30, DARK_MAX)
    return img


def add_patch(img, y, x, h=6, w=8, seed=0):
    """Paint a noisy skin patch with its top-left corner at (y, x)."""
    noise = np.random.default_rng(seed).integers(-20, 21, (h, w, 3))
    img[y : y + h, x : x + w] = np.clip(np.array(synth.DEFAULT_SKIN) + noise, 0, 255)
    return img


def skin_and_blurred_shapes(monkeypatch, frame, sigma):
    """``segment_skin``'s mask and the shapes of the planes it blurred, in order."""
    shapes = []
    blur = kernels.gaussian_blur

    def recording(img, s):
        shapes.append(img.shape)
        return blur(img, s)

    with monkeypatch.context() as patched:
        patched.setattr(kernels, "gaussian_blur", recording)
        mask = segment_skin(frame, SKIN_HSV, sigma)
    assert np.array_equal(mask, SKIN_HSV.contains(*stacked_hsv(frame, sigma)))
    return mask, shapes


class TestSkinBox:
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_dark_frame_has_an_empty_box(self, sigma, monkeypatch):
        mask, shapes = skin_and_blurred_shapes(monkeypatch, Frame(dark_frame()), sigma)
        assert not mask.any() and shapes == [(40, 60)]  # the bound only

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_bright_gray_frame_boxes_the_whole_frame(self, sigma, monkeypatch):
        frame = solid_frame((150, 150, 150), w=60, h=40)
        mask, shapes = skin_and_blurred_shapes(monkeypatch, frame, sigma)
        assert not mask.any() and shapes == [(40, 60)] * 4

    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize(
        "y, x", [(0, 0), (0, 26), (0, 52), (17, 0), (17, 52), (34, 0), (34, 26), (34, 52)]
    )
    def test_patch_on_a_corner_or_an_edge(self, sigma, y, x, monkeypatch):
        frame = Frame(add_patch(dark_frame(), y, x))
        mask, shapes = skin_and_blurred_shapes(monkeypatch, frame, sigma)
        assert mask.any() and len(shapes) == 4
        assert all(h < 40 and w < 60 for h, w in shapes[1:])

    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("edge", ["top", "left", "bottom", "right"])
    def test_patch_one_radius_from_an_edge(self, sigma, edge, monkeypatch):
        pad = kernels.tap_radius(sigma)
        at = dict(top=(pad, 26), left=(17, pad), bottom=(34 - pad, 26), right=(17, 52 - pad))
        img = add_patch(dark_frame(), *at[edge])
        mask, shapes = skin_and_blurred_shapes(monkeypatch, Frame(img), sigma)
        # the box the V bound leaves, found here with a whole-pixel max
        ys, xs = np.nonzero(kernels.gaussian_blur(img.max(axis=2), sigma) / 255.0 >= SKIN_HSV.v[0])
        assert ys.min() >= pad and ys.max() < 40 - pad and xs.min() >= pad and xs.max() < 60 - pad
        box = (ys.max() - ys.min() + 1, xs.max() - xs.min() + 1)
        assert mask.any() and shapes[1:] == [(box[0] + 2 * pad, box[1] + 2 * pad)] * 3

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_patch_at_every_distance_from_a_corner(self, sigma, monkeypatch):
        for d in range(2 * kernels.tap_radius(sigma) + 2):
            img = add_patch(dark_frame(), d, d, seed=d)
            assert skin_and_blurred_shapes(monkeypatch, Frame(img), sigma)[0].any()

    @settings(max_examples=300, deadline=None)
    @given(boxed_skin_cases())
    def test_matches_stacked_hsv_threshold_in_a_box(self, case):
        frame, sigma, hsv_range = case
        got = segment_skin(frame, hsv_range, sigma)
        assert np.array_equal(got, hsv_range.contains(*stacked_hsv(frame, sigma)))


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


def full_frame_regions(mask, min_area):
    """Oracle: ``extract_regions`` labelling the whole frame, not the mask's box."""
    labeled, _ = ndimage.label(mask, structure=np.ones((3, 3), bool))
    regions = []
    for index, slc in enumerate(ndimage.find_objects(labeled), start=1):
        local = labeled[slc] == index
        if local.sum() < min_area:
            continue
        ys, xs = np.nonzero(local)
        regions.append(region_from_pixels(xs + slc[1].start, ys + slc[0].start))
    regions.sort(key=lambda r: (-r.area, r.centroid[0]))
    return regions


def assert_same_regions(got, want):
    """Same order, boxes, centroids and areas, and bit-equal descriptors."""
    assert [(r.bbox, r.centroid, r.area) for r in got] == [
        (r.bbox, r.centroid, r.area) for r in want
    ]
    assert all(np.array_equal(a.descriptor, b.descriptor) for a, b in zip(got, want))


@st.composite
def component_masks(draw):
    """A mask of random components placed anywhere, often on an edge or a corner:
    filled and ragged blocks, single pixels, diagonal pixel chains and blocks that
    touch only at a corner; or an empty or all-True mask."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    fill = draw(st.sampled_from([None, None, None, False, True]))
    if fill is not None:
        return np.full((h, w), fill)
    mask = np.zeros((h, w), bool)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["block", "ragged", "pixel", "chain", "corners"]))
        bh, bw = (1, 1) if kind == "pixel" else (draw(st.integers(1, h)), draw(st.integers(1, w)))
        y = draw(st.sampled_from([0, h - bh]) | st.integers(0, h - bh))  # an edge, or anywhere
        x = draw(st.sampled_from([0, w - bw]) | st.integers(0, w - bw))
        box = mask[y : y + bh, x : x + bw]
        if kind == "ragged":
            box |= rng.random((bh, bw)) < 0.6
        elif kind == "chain":  # pixels that touch only diagonally, either way
            n = min(bh, bw)
            box[np.arange(n), np.arange(n)[:: draw(st.sampled_from([1, -1]))]] = True
        elif kind == "corners":  # top-left and bottom-right quarters meet at one corner
            box[: bh // 2, : bw // 2] = True
            box[bh // 2 :, bw // 2 :] = True
        else:
            box[:] = True
    return mask


def oracle_pixels(mask, min_area):
    """Oracle: row-major pixels of each component ``ndimage.label`` numbers, in its order."""
    labeled, count = ndimage.label(mask, structure=np.ones((3, 3), bool))
    pixels = [np.nonzero(labeled == index) for index in range(1, count + 1)]
    return [(xs, ys) for ys, xs in pixels if len(xs) >= min_area]


def labelled_pixels(mask, min_area):
    """``extract_regions``' regions and the pixel arrays it built them from, in order."""
    calls = []

    def recording(xs, ys):
        calls.append((xs, ys))
        return region_from_pixels(xs, ys)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(gesture, "region_from_pixels", recording)
        regions = extract_regions(mask, min_area)
    return regions, calls


def assert_labelled_like_ndimage(mask, min_area):
    """Same components in ndimage's order, with the same row-major int pixel arrays,
    and the same regions as the whole-frame labelling, sorted with their ties."""
    regions, calls = labelled_pixels(mask, min_area)
    want = oracle_pixels(mask, min_area)
    assert len(calls) == len(want)
    for (xs, ys), (want_xs, want_ys) in zip(calls, want):
        assert xs.dtype == want_xs.dtype and ys.dtype == want_ys.dtype
        assert np.array_equal(xs, want_xs) and np.array_equal(ys, want_ys)
    assert_same_regions(regions, full_frame_regions(mask, min_area))


def serpentine(h=240, w=320):
    """One path that fills every other row and turns at alternate ends."""
    mask = np.zeros((h, w), bool)
    mask[::2] = True
    mask[1::4, -1] = mask[3::4, 0] = True
    return mask


def comb(h=240, w=320):
    """A top row with a one-pixel tooth hanging from every other column."""
    mask = np.zeros((h, w), bool)
    mask[:, ::2] = mask[0] = True
    return mask


def checkerboard(h=240, w=320):
    """8-connected through the diagonals: one component with a run per pixel."""
    ys, xs = np.mgrid[:h, :w]
    return (ys + xs) % 2 == 0


class TestRegionsInTheMaskBox:
    @settings(max_examples=300, deadline=None)
    @given(component_masks(), st.sampled_from([1, 100]))
    def test_matches_full_frame_labelling(self, mask, min_area):
        assert_labelled_like_ndimage(mask, min_area)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 100]),
    )
    def test_matches_ndimage_on_random_masks(self, h, w, density, seed, min_area):
        # many one-pixel components of equal area and column: ties in the region order
        mask = np.random.default_rng(seed).random((h, w)) < density
        assert_labelled_like_ndimage(mask, min_area)

    @pytest.mark.parametrize("seed", [5, 23])
    def test_matches_on_noisy_study_scene(self, seed):
        # seed 5 is the scene of the decode-shape benchmark workload
        for frame in noisy_study_frames(seed):
            mask = segment_skin(frame, SKIN_HSV)
            for min_area in (1, 100):
                assert_labelled_like_ndimage(mask, min_area)

    @pytest.mark.parametrize("make", [serpentine, comb, checkerboard])
    def test_matches_ndimage_on_adversarial_masks(self, make):
        mask = make()
        assert len(extract_regions(mask)) == 1
        assert_labelled_like_ndimage(mask, 100)


def cross(o, a, b):
    """z of (a - o) x (b - o); positive when o, a, b turn counter-clockwise."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def monotone_chain(points):
    """Counter-clockwise convex hull of integer points (A. M. Andrew, 1979)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return half(pts) + half(reversed(pts))


def hull_lattice_count(xs, ys):
    """Exact oracle: bounding-box lattice points on or inside the hull of the pixels."""
    hull = monotone_chain(zip(xs.tolist(), ys.tolist()))
    edges = list(zip(hull, hull[1:] + hull[:1]))
    return sum(
        all(cross(a, b, (x, y)) >= 0 for a, b in edges)
        for x in range(xs.min(), xs.max() + 1)
        for y in range(ys.min(), ys.max() + 1)
    )


def qhull_pixel_count(xs, ys):
    """Oracle: the hull count through qhull, as the shape recognizer once took it.

    ``ConvexHull`` of each row's first and last pixel, then Pick's theorem on its
    vertices; qhull refuses a flat hull (one pixel, one row, a collinear set), which
    counts ``len(xs)``.
    """
    step = np.flatnonzero(ys[1:] != ys[:-1])
    idx = np.concatenate([[0], step + 1, step, [len(ys) - 1]])  # row firsts, then row lasts
    ends = np.column_stack([xs[idx], ys[idx]])
    try:
        hull = ConvexHull(ends)
    except QhullError:
        return len(xs)
    ring = ends[hull.vertices]
    ring = np.concatenate([ring, ring[:1]])
    (x, y), (dx, dy) = ring[:-1].T, (ring[1:] - ring[:-1]).T
    return (abs(int(np.sum(x * dy - y * dx))) + int(np.gcd(dx, dy).sum())) // 2 + 1


@st.composite
def largest_components(draw):
    """Pixel coordinates of the largest 8-connected component of a random mask."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    mask = np.array(cells).reshape(h, w)
    mask[0, 0] = True  # at least one component
    labeled, _ = ndimage.label(mask, structure=np.ones((3, 3), bool))
    sizes = np.bincount(labeled.ravel())[1:]
    ys, xs = np.nonzero(labeled == 1 + int(np.argmax(sizes)))
    return xs, ys


def var_descriptor(xs, ys):
    """Oracle: the shape descriptor with its second moments from ``np.var``."""
    area = len(xs)
    extent = area / ((xs.max() - xs.min() + 1) * (ys.max() - ys.min() + 1))
    mxx, myy = np.var(xs), np.var(ys)
    mxy = np.mean((xs - xs.mean()) * (ys - ys.mean()))
    half_tr = (mxx + myy) / 2.0
    det_root = math.sqrt(((mxx - myy) / 2.0) ** 2 + mxy**2)
    lam1, lam2 = half_tr + det_root, max(half_tr - det_root, 0.0)
    ecc = math.sqrt(1.0 - lam2 / lam1) if lam1 > 0 else 0.0
    return np.array([extent, ecc, area / gesture._hull_pixel_count(xs, ys)])


class TestShapeDescriptor:
    @settings(max_examples=100, deadline=None)
    @given(largest_components())
    def test_matches_var_form(self, component):
        xs, ys = component
        assert np.array_equal(gesture.shape_descriptor(xs, ys), var_descriptor(xs, ys))

    @pytest.mark.parametrize("cls", list(GestureClass))
    def test_matches_var_form_on_hand_silhouettes(self, cls):
        ys, xs = np.nonzero(synth.hand_mask(cls))
        assert np.array_equal(gesture.shape_descriptor(xs, ys), var_descriptor(xs, ys))


class TestHullPixelCount:
    @settings(max_examples=100, deadline=None)
    @given(largest_components())
    def test_matches_exact_lattice_count(self, component):
        xs, ys = component
        assert gesture._hull_pixel_count(xs, ys) == hull_lattice_count(xs, ys)

    @pytest.mark.parametrize("cls", list(GestureClass))
    def test_matches_on_hand_silhouettes(self, cls):
        ys, xs = np.nonzero(synth.hand_mask(cls))
        assert gesture._hull_pixel_count(xs, ys) == hull_lattice_count(xs, ys)

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([7], [3]),  # single pixel
            ([2, 3, 4, 5, 6], [4] * 5),  # one row
            ([5] * 6, [0, 1, 2, 3, 4, 5]),  # one column
            ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]),  # diagonal line
        ],
        ids=["pixel", "row", "column", "diagonal"],
    )
    def test_matches_on_degenerate_regions(self, xs, ys):
        xs, ys = np.array(xs), np.array(ys)
        assert gesture._hull_pixel_count(xs, ys) == hull_lattice_count(xs, ys) == len(xs)


@st.composite
def pixel_sets(draw):
    """Row-major pixels of a mask up to 40x40: an ellipse, whose hull has many
    vertices, or one random run per row; then holes at a random density, and at
    least one pixel."""
    ellipse = draw(st.booleans())
    side = st.integers(16 if ellipse else 1, 40)
    h, w = draw(side), draw(side)
    ys, xs = np.mgrid[:h, :w]
    if ellipse:
        cy, cx = (h - 1) / 2 + draw(st.floats(-2, 2)), (w - 1) / 2 + draw(st.floats(-2, 2))
        ry, rx = h / 2 * draw(st.floats(0.1, 1.2)), w / 2 * draw(st.floats(0.1, 1.2))
        mask = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
    else:
        run = st.tuples(st.integers(0, w), st.integers(0, w))
        runs = draw(st.lists(run, min_size=h, max_size=h))
        mask = np.array([(xs[0] >= min(run)) & (xs[0] < max(run)) for run in runs])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask &= rng.random((h, w)) >= draw(st.sampled_from([0.0, 0.0, 0.1, 0.5]))
    mask[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    ys, xs = np.nonzero(mask)
    return xs, ys


def row_major(xs, ys):
    order = np.lexsort((xs, ys))
    return xs[order], ys[order]


class TestHullPixelCountOracles:
    def test_matches_qhull_on_every_region_of_the_noisy_study_scene(self):
        regions = 0
        for frame in noisy_study_frames(seed=5):
            mask = segment_skin(frame, SKIN_HSV)
            labeled, _ = ndimage.label(mask, structure=np.ones((3, 3), bool))
            for index, slc in enumerate(ndimage.find_objects(labeled), start=1):
                ys, xs = np.nonzero(labeled[slc] == index)
                assert gesture._hull_pixel_count(xs, ys) == qhull_pixel_count(xs, ys)
                regions += 1
        assert regions > 260  # two hands in most frames, and noise specks

    @pytest.mark.parametrize("cls", list(GestureClass))
    def test_matches_qhull_on_hand_silhouettes(self, cls):
        ys, xs = np.nonzero(synth.hand_mask(cls))
        assert gesture._hull_pixel_count(xs, ys) == qhull_pixel_count(xs, ys)

    @settings(max_examples=150, deadline=None)
    @given(pixel_sets(), st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_shift_mirror_and_transpose_keep_the_count(self, pixels, dx, dy):
        xs, ys = pixels
        count = gesture._hull_pixel_count(xs, ys)
        assert gesture._hull_pixel_count(xs + dx, ys + dy) == count
        assert gesture._hull_pixel_count(*row_major(-xs, ys)) == count
        # transposing changes which pixels are row ends, so both chains see new points
        assert gesture._hull_pixel_count(*row_major(ys, xs)) == count


class TestRejectOutliers:
    def _region(self, cx, cy, r=20):
        mask = disk_mask(240, 320, cx, cy, r)
        ys, xs = np.nonzero(mask)
        return region_from_pixels(xs, ys)

    def _cache(self, cx, cy, frame_index=0):
        region = self._region(cx, cy)
        return RegionCache(
            horizon=30,
            left=(region, frame_index),
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
        assert cache.left[1] == 3

    def test_determinism(self):
        frame = self._scene(GestureClass.three, GestureClass.four, noise_sigma=10.0, seed=4)
        a = recognize_pair(frame, None, self.BANK, SKIN_HSV)
        b = recognize_pair(frame, None, self.BANK, SKIN_HSV)
        assert a == b

    @staticmethod
    def _disk_frame(cx, w=320, h=240, r=30):
        img = np.empty((h, w, 3), dtype=np.uint8)
        img[:] = synth.DEFAULT_GESTURE_BACKGROUND
        img[disk_mask(h, w, cx, h // 2, r)] = synth.DEFAULT_SKIN
        return Frame(img)

    def test_lone_hand_beside_the_center_line_changes_side_in_the_mirror(self):
        # a centroid in (w/2 - 1, w/2) mirrors to one in the same interval, so
        # halving the frame at w/2 gave the same side to both
        frame = self._disk_frame(cx=159.25)
        (region,) = extract_regions(segment_skin(frame, SKIN_HSV))
        assert 159.0 < region.centroid[0] < 159.5
        token = recognize_pair(frame, None, self.BANK, SKIN_HSV)
        flipped = recognize_pair(Frame(frame.pixels[:, ::-1]), None, self.BANK, SKIN_HSV)
        assert token.pair == (None, GestureClass.zero)
        assert flipped.pair == (GestureClass.zero, None)

    def test_lone_hand_on_the_center_line_is_the_left_hand(self):
        # the one tie: a frame symmetric about (w - 1) / 2 is its own mirror
        frame = self._disk_frame(cx=159.5)
        assert np.array_equal(frame.pixels, frame.pixels[:, ::-1])
        (region,) = extract_regions(segment_skin(frame, SKIN_HSV))
        assert region.centroid[0] == 159.5
        token = recognize_pair(frame, None, self.BANK, SKIN_HSV)
        assert token.pair == (GestureClass.zero, None)

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from([None, *GestureClass]),
        st.sampled_from([None, *GestureClass]),
        st.floats(0.0, 15.0),
        st.integers(0, 30),  # the largest jitter a 320x240 scene takes
        st.integers(0, 2**32 - 1),
    )
    def test_mirrored_frame_mirrors_the_mask_and_swaps_the_hands(
        self, left, right, noise, jitter, seed
    ):
        frame = self._scene(left, right, noise_sigma=noise, jitter=jitter, seed=seed)
        mirrored = Frame(frame.pixels[:, ::-1])
        mask = segment_skin(frame, SKIN_HSV)
        assert np.array_equal(segment_skin(mirrored, SKIN_HSV), mask[:, ::-1])
        token = recognize_pair(frame, None, self.BANK, SKIN_HSV)
        flipped = recognize_pair(mirrored, None, self.BANK, SKIN_HSV)
        assert flipped.pair == (token.right, token.left)


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
    def test_default_recognizer_uses_the_silhouette_bank(self):
        rec, computed = ShapeRecognizer(), build_default_bank()
        assert list(rec.bank) == list(computed) == list(GestureClass)
        assert all(rec.bank[cls].tobytes() == computed[cls].tobytes() for cls in computed)
        assert rec.hsv_range == SKIN_HSV

    def test_token_confidence_invariant(self):
        with pytest.raises(ValidationError):
            GesturePairToken(left=GestureClass.ok, right=None, conf_left=None)
