"""Hand-region selection and gesture-pair recognition.

The shape pipeline is classical: blur, HSV skin threshold, 8-connected
components, outlier rejection against the previous frame's cached hands, and
nearest-neighbor matching of a small shape descriptor against a per-class
template bank. The descriptor is ``(extent, eccentricity, solidity)``, all in
[0, 1].

The skin threshold blurs the channels only inside the box where the blurred
max of R, G and B reaches the V floor, and keeps each blurred channel as its
own plane. V and S come from plane-wise max/min inside that box; hue, the
costly part, is computed only for the pixels whose S and V already lie inside
the range, with the same per-pixel expressions as a whole-image conversion, so
the mask equals a threshold of the full HSV image bit for bit. Connected
components are labelled only inside the bounding box of the mask's True
pixels, from the mask's row runs, in the raster order of each component's
first pixel, so the regions equal those of labelling the whole frame.

Solidity needs the number of pixels in a region's convex hull. That count is
exact and integer: Andrew's monotone chain (1979) over the row ends of a
row-major pixel set finds the hull, and Pick's theorem counts its lattice
points (see :func:`_hull_pixel_count`).

The pipeline runs on numpy alone, as the rest of the toolkit does: the blur
and the labelling equal ``scipy.ndimage``'s bit for bit, and the tests keep
scipy as their oracle.

Recognizers are pluggable callables ``(frame, frame_index) -> GesturePairToken``
so a learned detector can replace the shape pipeline later. Two ship here:
``ShapeRecognizer`` (the pipeline above) and ``OracleRecognizer`` (replays
synthetic-scene ground truth, for isolating the decoder); every front end
picks one by name and runs it over a sequence with :func:`recognize_sequence`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .core import BoundingBox, Frame, ValidationError, read_fields, to_json
from .core import fields, finite, integer, optional  # table helper, converters


class GestureClass(Enum):
    """The ten-gesture alphabet; serialized names are the lowercase members."""

    zero = 0
    one = 1
    two = 2
    three = 3
    four = 4
    five = 5
    left = 6
    right = 7
    ok = 8
    pic = 9

    @classmethod
    def from_name(cls, name: str) -> "GestureClass":
        try:
            return cls[name]
        except KeyError:
            raise ValidationError(f"unknown gesture class {name!r}") from None


# converter of one hand: a gesture class name, or null for no hand
hand_class = optional(GestureClass.from_name)


# ---------------------------------------------------------------------------
# color segmentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HsvRange:
    """Closed HSV intervals; hue is degrees in [0, 360) and may wrap."""

    h: tuple[float, float]
    s: tuple[float, float]
    v: tuple[float, float]

    def __post_init__(self):
        if self.s[0] > self.s[1] or self.v[0] > self.v[1]:
            raise ValidationError("empty saturation/value range")

    def contains(self, h: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
        h_lo, h_hi = self.h
        if h_lo <= h_hi:
            in_h = (h >= h_lo) & (h <= h_hi)
        else:  # wraparound interval, e.g. [350, 20]
            in_h = (h >= h_lo) | (h <= h_hi)
        return (
            in_h
            & (s >= self.s[0])
            & (s <= self.s[1])
            & (v >= self.v[0])
            & (v <= self.v[1])
        )


# the skin tones that synth renders hands in, after the blur
SKIN_HSV = HsvRange(h=(5.0, 45.0), s=(0.15, 0.6), v=(0.5, 1.0))


def _value_saturation(r, g, b):
    """V, S and the max-min span of three same-shape [0, 1] channel planes."""
    maxc = np.maximum(np.maximum(r, g), b)
    span = maxc - np.minimum(np.minimum(r, g), b)
    s = np.divide(span, maxc, out=np.zeros_like(maxc), where=maxc > 0)
    return maxc, s, span


def _hue(r, g, b, maxc, span):
    """Hue in degrees of [0, 1] channel values; 0 where the span is 0 (gray)."""
    safe = np.where(span > 0, span, 1.0)
    is_r = (maxc == r) & (span > 0)
    is_g = (maxc == g) & (span > 0) & ~is_r
    is_b = (span > 0) & ~is_r & ~is_g
    h = np.zeros_like(maxc)
    h = np.where(is_r, (g - b) / safe % 6.0, h)
    h = np.where(is_g, (b - r) / safe + 2.0, h)
    h = np.where(is_b, (r - g) / safe + 4.0, h)
    return h * 60.0


def segment_skin(frame: Frame, hsv_range: HsvRange, sigma: float = 1.0) -> np.ndarray:
    """Blur then threshold an RGB frame in HSV space; returns a bool mask.

    The mask equals a threshold of the whole blurred image's (H, S, V) bit for
    bit. The blur weighs every channel with the same non-negative taps and
    IEEE rounding is monotone, so the blur of the plane-wise max ``max(R, G,
    B)``, divided by 255 as V is, bounds the blurred V from above: no pixel
    where it is below ``v_lo`` can pass. The channels are blurred only over the
    bounding box of the other pixels, grown by the tap radius and clipped to
    the frame, so every box pixel reads the taps (and frame-edge reflections)
    of a full-frame blur. Inside the box, S and V come from the three blurred
    planes and hue is computed only where S and V already lie inside the range.
    """
    if frame.channels != 3:
        raise TypeError("segment_skin needs an RGB frame")
    rgb = frame.pixels
    (s_lo, s_hi), (v_lo, v_hi) = hsv_range.s, hsv_range.v
    mask = np.zeros(rgb.shape[:2], dtype=bool)
    maxc = np.maximum(np.maximum(rgb[:, :, 0], rgb[:, :, 1]), rgb[:, :, 2])
    may_pass = kernels.gaussian_blur(maxc, sigma) / 255.0 >= v_lo
    rows = np.flatnonzero(may_pass.any(axis=1))
    if rows.size == 0:
        return mask
    cols = np.flatnonzero(may_pass.any(axis=0))
    (y0, y1), (x0, x1) = (rows[0], rows[-1] + 1), (cols[0], cols[-1] + 1)
    pad = kernels.tap_radius(sigma)
    cy, cx = max(y0 - pad, 0), max(x0 - pad, 0)
    crop = rgb[cy : min(y1 + pad, rgb.shape[0]), cx : min(x1 + pad, rgb.shape[1])]
    box = (slice(y0 - cy, y1 - cy), slice(x0 - cx, x1 - cx))
    r, g, b = (kernels.gaussian_blur(crop[:, :, c], sigma)[box] / 255.0 for c in range(3))
    v, s, span = _value_saturation(r, g, b)
    idx = np.flatnonzero((s >= s_lo) & (s <= s_hi) & (v >= v_lo) & (v <= v_hi))
    r, g, b, v, s, span = (a.ravel()[idx] for a in (r, g, b, v, s, span))
    in_box = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    in_box.ravel()[idx] = hsv_range.contains(_hue(r, g, b, v, span), s, v)
    mask[y0:y1, x0:x1] = in_box
    return mask


# ---------------------------------------------------------------------------
# regions and descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    bbox: BoundingBox
    centroid: tuple[float, float]
    area: int
    descriptor: np.ndarray  # (extent, eccentricity, solidity)


def _half_hull(ys: list[int], xs: list[int], turn: int) -> list[tuple[int, int]]:
    """One side of the hull of points ``(y, x)`` already sorted by y (Andrew, 1979).

    ``turn`` 1 keeps the left side (x's convex minorant), -1 the right side (its
    concave majorant). Collinear middle points are dropped.
    """
    chain: list[tuple[int, int]] = []
    for y, x in zip(ys, xs):
        while len(chain) >= 2:
            (oy, ox), (ay, ax) = chain[-2], chain[-1]
            if turn * ((ay - oy) * (x - ox) - (ax - ox) * (y - oy)) > 0:
                break
            chain.pop()
        chain.append((y, x))
    return chain


def _hull_pixel_count(xs: np.ndarray, ys: np.ndarray) -> int:
    """Lattice points on or inside the convex hull of a row-major pixel set.

    ``xs, ys`` must be in row-major order, as ``np.nonzero`` returns them. The
    hull of the pixels is the hull of each row's first and last pixel. Those
    ends come sorted by y, so Andrew's monotone chain (Andrew, "Another
    efficient algorithm for convex hulls in two dimensions", IPL 1979) finds
    the left side over the first pixels and the right side over the last ones
    without a sort, in integer arithmetic. The vertices are pixels, so Pick's
    theorem gives the count exactly from twice the area (integer shoelace) and
    the boundary points (the gcd of each edge's dx and dy). A hull of zero area
    (one pixel, one row, one column or a diagonal line) counts ``len(xs)``.
    """
    step = np.flatnonzero(ys[1:] != ys[:-1])  # last pixel of every row but the bottom one
    firsts, lasts = np.append(0, step + 1), np.append(step, len(ys) - 1)
    rows = ys[firsts].tolist()
    # down the left side, then back up the right; where a top or bottom row is one
    # pixel wide its vertex repeats, and that zero-length edge adds 0 to both sums
    left = _half_hull(rows, xs[firsts].tolist(), 1)
    right = _half_hull(rows, xs[lasts].tolist(), -1)
    ring = left + right[::-1]
    twice_area = boundary = 0
    for (y0, x0), (y1, x1) in zip(ring, ring[1:] + ring[:1]):
        twice_area += x0 * y1 - x1 * y0
        boundary += math.gcd(x1 - x0, y1 - y0)
    if twice_area == 0:
        return len(xs)
    return (abs(twice_area) + boundary) // 2 + 1


def shape_descriptor(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(extent, eccentricity, solidity) of a row-major pixel set (as from ``np.nonzero``)."""
    area = len(xs)
    bw = xs.max() - xs.min() + 1
    bh = ys.max() - ys.min() + 1
    extent = area / (bw * bh)

    # the central moments with the float operations of np.var, each mean taken once
    dx, dy = xs - xs.mean(), ys - ys.mean()
    mxx, myy, mxy = np.mean(dx * dx), np.mean(dy * dy), np.mean(dx * dy)
    half_tr = (mxx + myy) / 2.0
    det_root = math.sqrt(((mxx - myy) / 2.0) ** 2 + mxy**2)
    lam1 = half_tr + det_root
    lam2 = max(half_tr - det_root, 0.0)
    ecc = math.sqrt(1.0 - lam2 / lam1) if lam1 > 0 else 0.0

    solidity = area / _hull_pixel_count(xs, ys)
    return np.array([extent, ecc, solidity])


def region_from_pixels(xs: np.ndarray, ys: np.ndarray) -> Region:
    x0, x1 = int(xs.min()), int(xs.max())
    y0, y1 = int(ys.min()), int(ys.max())
    bbox = BoundingBox(
        cx=(x0 + x1 + 1) / 2.0,
        cy=(y0 + y1 + 1) / 2.0,
        w=x1 - x0 + 1,
        h=y1 - y0 + 1,
    )
    return Region(
        bbox=bbox,
        centroid=(float(xs.mean()), float(ys.mean())),
        area=len(xs),
        descriptor=shape_descriptor(xs, ys),
    )


MIN_HAND_AREA = 100  # pixels; a smaller skin region is not a hand


def _label_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Row runs of a 2-D bool mask and the 8-connected component of each.

    A cell (y, x) has the key ``y * width + x`` with ``width = w + 1``, so
    keys run in raster order and a run never reaches the next row. Returns
    ``(first, end, label, width)``: the key of each run's first cell and one
    past its last, in raster order, and the index of the first run of its
    component, which numbers the components in the raster order of their
    first pixel. Labelling runs rather than pixels follows Rosenfeld & Pfaltz
    (JACM 1966) and He, Chao & Suzuki (IEEE TIP 2008); the runs are merged
    here by min-label hooking and pointer jumping over all runs at once.
    """
    h, w = mask.shape
    width = w + 1
    cells = np.zeros(h * width + 1, dtype=np.int8)  # a 0 before row 0 and after every row
    cells[1:].reshape(h, width)[:, :w] = mask
    edges = np.flatnonzero(np.diff(cells))  # run starts and ends alternate
    first, end = edges[::2], edges[1::2]
    # a run of the row above touches a run, diagonals included, when it ends at or
    # after the run's first column and starts at or before its end column; those
    # runs form the slice [lo, hi) of the raster order
    lo = np.searchsorted(end, first - width, side="left")
    hi = np.searchsorted(first, end - width, side="right")
    count = np.maximum(hi - lo, 0)
    run = np.repeat(np.arange(len(first)), count)
    above = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
    label = np.arange(len(first))
    while True:
        # hook each touching pair's larger root under its smaller one, then jump
        # pointers until every run points at its root
        a, b = label[run], label[above]
        touching = a != b
        if not touching.any():
            return first, end, label, width
        np.minimum.at(label, np.maximum(a, b)[touching], np.minimum(a, b)[touching])
        root = label[label]
        while (root != label).any():
            label, root = root, root[root]


def extract_regions(mask: np.ndarray, min_area: int = MIN_HAND_AREA) -> list[Region]:
    """8-connected components of a bool mask, largest (then leftmost) first.

    Labelling runs inside the bounding box of the mask's True pixels, on the
    mask's row runs (:func:`_label_runs`). Components are taken in raster
    order of their first pixel, within the box as within the frame, so the
    regions and their order equal those of ``scipy.ndimage.label`` with an
    8-connected structure and ``find_objects`` on the whole mask. Only
    components of at least ``min_area`` pixels are expanded to pixels, in
    row-major order.
    """
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return []
    cols = np.flatnonzero(mask.any(axis=0))
    y0, x0 = rows[0], cols[0]
    first, end, label, width = _label_runs(mask[y0 : rows[-1] + 1, x0 : cols[-1] + 1])
    lengths = end - first
    areas = np.bincount(label, weights=lengths)
    regions = []
    for root in np.flatnonzero(areas >= min_area):
        runs = np.flatnonzero(label == root)
        n = lengths[runs]
        keys = np.arange(n.sum()) + np.repeat(first[runs] - np.cumsum(n) + n, n)
        ys, xs = np.divmod(keys, width)
        regions.append(region_from_pixels(xs + x0, ys + y0))
    regions.sort(key=lambda r: (-r.area, r.centroid[0]))
    return regions


# ---------------------------------------------------------------------------
# temporal outlier rejection
# ---------------------------------------------------------------------------


@dataclass
class RegionCache:
    """Last accepted hand regions and their frames; a hand expires after ``horizon`` frames."""

    horizon: int = 30
    left: tuple[Region, int] | None = None
    right: tuple[Region, int] | None = None

    def valid_entries(self, frame_index: int) -> list[Region]:
        return [
            region
            for region, seen in filter(None, (self.left, self.right))
            if frame_index - seen <= self.horizon
        ]


# a region is plausible if it lies within this many box sizes of a cached hand
# and its area is within this factor of the hand's, either way
OUTLIER_DISTANCE_FACTOR = 1.5
OUTLIER_AREA_FACTOR = 3.0


def reject_outliers(
    regions: list[Region], cache: RegionCache | None, frame_index: int = 0
) -> list[Region]:
    """Drop regions inconsistent with every cached hand; identity without cache."""
    if cache is None:
        return regions
    entries = cache.valid_entries(frame_index)
    if not entries:
        return regions

    def plausible(region: Region) -> bool:
        for entry in entries:
            scale = max(entry.bbox.w, entry.bbox.h)
            dist = math.hypot(
                region.centroid[0] - entry.centroid[0],
                region.centroid[1] - entry.centroid[1],
            )
            ratio = max(region.area / entry.area, entry.area / max(region.area, 1))
            if dist <= OUTLIER_DISTANCE_FACTOR * scale and ratio <= OUTLIER_AREA_FACTOR:
                return True
        return False

    return [r for r in regions if plausible(r)]


# ---------------------------------------------------------------------------
# template matching
# ---------------------------------------------------------------------------


TemplateBank = dict[GestureClass, np.ndarray]


def match_gesture(
    region: Region, bank: TemplateBank
) -> tuple[GestureClass, float]:
    """Nearest template by descriptor L2; confidence = 1 / (1 + distance)."""
    if not bank:
        raise ValidationError("template bank is empty")

    distances = [
        (float(np.linalg.norm(region.descriptor - bank[cls])), cls)
        for cls in GestureClass
        if cls in bank
    ]
    distance, best = min(distances, key=lambda d: d[0])  # min keeps the first: enum order breaks ties
    return best, 1.0 / (1.0 + distance)


@dataclass(frozen=True)
class GesturePairToken:
    """Debounce input: per-frame classes for the person's left and right hand."""

    left: GestureClass | None = None
    right: GestureClass | None = None
    frame: int = 0
    conf_left: float | None = None
    conf_right: float | None = None

    def __post_init__(self):
        if (self.left is None) != (self.conf_left is None) or (
            self.right is None
        ) != (self.conf_right is None):
            raise ValidationError("confidence must be present iff the class is")

    @property
    def pair(self) -> tuple[GestureClass | None, GestureClass | None]:
        return (self.left, self.right)

    def to_record(self) -> dict:
        return {key: to_json(getattr(self, name)) for key, (name, _) in _TOKEN_KEYS.items()}

    @classmethod
    def from_record(cls, rec: dict) -> "GesturePairToken":
        return cls(**read_fields(rec, _TOKEN_KEYS, "gesture pair token"))


# token record JSON key -> (GesturePairToken field, converter)
_TOKEN_KEYS = {
    **fields(("left", "right"), hand_class),
    "frame": ("frame", integer),
    "conf_l": ("conf_left", optional(finite)),
    "conf_r": ("conf_right", optional(finite)),
}


def recognize_pair(
    frame: Frame,
    cache: RegionCache | None,
    bank: TemplateBank,
    hsv_range: HsvRange,
    frame_index: int = 0,
) -> GesturePairToken:
    """Full pipeline for one frame; a missing hand leaves its side as None.

    The person faces the camera, so the region with the smaller image x is the
    person's right hand and the larger x the person's left.
    """
    mask = segment_skin(frame, hsv_range)
    regions = reject_outliers(extract_regions(mask, MIN_HAND_AREA), cache, frame_index)
    matched = [(region, *match_gesture(region, bank)) for region in regions]
    matched.sort(key=lambda m: (-m[2], -m[0].area, m[0].centroid[0]))
    matched = sorted(matched[:2], key=lambda m: m[0].centroid[0])

    # side -> (region, class, confidence); a lone region's side is its half of the
    # frame. Pixel centroids of a frame and its mirror are symmetric about
    # (width - 1) / 2, so mirroring swaps the side of every centroid but one exactly
    # on that line, which goes to the left in both.
    if len(matched) == 1:
        sides = ("right",) if matched[0][0].centroid[0] < (frame.width - 1) / 2 else ("left",)
    else:
        sides = ("right", "left")
    hands = dict(zip(sides, matched))

    token = {}
    for side, (region, cls, conf) in hands.items():
        token[side], token[f"conf_{side}"] = cls, conf
        if cache is not None:
            setattr(cache, side, (region, frame_index))
    return GesturePairToken(frame=frame_index, **token)


# ---------------------------------------------------------------------------
# recognizers
# ---------------------------------------------------------------------------


class ShapeRecognizer:
    """Stateful shape-pipeline recognizer (one region cache per stream).

    Without a ``bank``, the templates are :func:`build_default_bank`'s, built
    here rather than at import so that importing the package stays cheap.
    """

    def __init__(self, bank: TemplateBank | None = None, hsv_range: HsvRange = SKIN_HSV):
        self.bank = build_default_bank() if bank is None else bank
        self.hsv_range = hsv_range
        self.cache = RegionCache()

    def __call__(self, frame: Frame, frame_index: int) -> GesturePairToken:
        if frame.channels != 3:
            raise ValidationError(f"frame {frame_index} is gray; the shape recognizer needs RGB")
        return recognize_pair(frame, self.cache, self.bank, self.hsv_range, frame_index)


class OracleRecognizer:
    """Replays ground-truth pair labels; isolates the decoder from vision."""

    def __init__(self, labels: list[tuple[str | None, str | None]]):
        self.labels = labels

    def __call__(self, frame: Frame, frame_index: int) -> GesturePairToken:
        if not 0 <= frame_index < len(self.labels):
            raise ValidationError(f"no ground-truth gesture label for frame {frame_index}")
        left, right = (hand_class(name) for name in self.labels[frame_index])
        return GesturePairToken(
            left=left,
            right=right,
            frame=frame_index,
            conf_left=1.0 if left else None,
            conf_right=1.0 if right else None,
        )


RECOGNIZERS = ("oracle", "shape")


def recognize_sequence(
    frames: Iterable[Frame], name: str, labels: list | None
) -> list[GesturePairToken]:
    """One gesture pair per frame from the recognizer ``name``; the oracle replays ``labels``."""
    if name not in RECOGNIZERS:
        raise ValidationError(f"unknown recognizer {name!r}; expected one of {RECOGNIZERS}")
    if name == "oracle" and labels is None:
        raise ValidationError("the oracle recognizer needs ground-truth gesture labels (truth.json)")
    recognizer = OracleRecognizer(labels) if name == "oracle" else ShapeRecognizer()
    return [recognizer(frame, i) for i, frame in enumerate(frames)]


def build_default_bank() -> TemplateBank:
    """Descriptors of the canonical synthetic hand silhouettes."""
    from . import synth  # local import; synth depends on this module's classes

    bank = {}
    for cls in GestureClass:
        mask = synth.hand_mask(cls)
        ys, xs = np.nonzero(mask)
        bank[cls] = shape_descriptor(xs, ys)
    return bank

