"""Hand-region selection and gesture-pair recognition.

The shape pipeline is classical: blur, HSV skin threshold, 8-connected
components, outlier rejection against the previous frame's cached hands, and
nearest-neighbor matching of a small shape descriptor against a per-class
template bank. The descriptor is ``(extent, eccentricity, solidity)``, all in
[0, 1].

The skin threshold keeps each blurred channel as its own plane. V and S come
from plane-wise max/min over the whole frame; hue, the costly part, is
computed only for the pixels whose S and V already lie inside the range, with
the same per-pixel expressions as :func:`rgb_to_hsv`, so the mask equals a
threshold of the full HSV image bit for bit.

Recognizers are pluggable callables ``(frame, frame_index) -> GesturePairToken``
so a learned detector can replace the shape pipeline later. Two ship here:
``ShapeRecognizer`` (the pipeline above) and ``OracleRecognizer`` (replays
synthetic-scene ground truth, for isolating the decoder).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.spatial import ConvexHull, QhullError

from . import kernels
from .core import BoundingBox, Frame, ValidationError


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


DIGIT_CLASSES = (
    GestureClass.zero,
    GestureClass.one,
    GestureClass.two,
    GestureClass.three,
    GestureClass.four,
    GestureClass.five,
)


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


def rgb_to_hsv(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized RGB [0,255] to (H degrees, S, V) with S, V in [0, 1]."""
    arr = np.asarray(rgb, dtype=np.float64) / 255.0
    r, g, b = arr[..., 0], arr[..., 1], arr[..., 2]
    v, s, span = _value_saturation(r, g, b)
    return _hue(r, g, b, v, span), s, v


def segment_skin(frame: Frame, hsv_range: HsvRange, sigma: float = 1.0) -> np.ndarray:
    """Blur then threshold an RGB frame in HSV space; returns a bool mask.

    The mask equals ``hsv_range.contains(*rgb_to_hsv(blurred))`` bit for bit,
    but works on the three blurred channel planes and computes hue only for
    the pixels whose S and V already lie inside the range.
    """
    if frame.channels != 3:
        raise TypeError("segment_skin needs an RGB frame")
    rgb = frame.pixels
    r, g, b = (kernels.gaussian_blur(rgb[:, :, c], sigma) / 255.0 for c in range(3))
    v, s, span = _value_saturation(r, g, b)
    (s_lo, s_hi), (v_lo, v_hi) = hsv_range.s, hsv_range.v
    idx = np.flatnonzero((s >= s_lo) & (s <= s_hi) & (v >= v_lo) & (v <= v_hi))
    r, g, b, v, s, span = (a.ravel()[idx] for a in (r, g, b, v, s, span))
    mask = np.zeros(rgb.shape[:2], dtype=bool)
    mask.ravel()[idx] = hsv_range.contains(_hue(r, g, b, v, span), s, v)
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


def _hull_pixel_count(xs: np.ndarray, ys: np.ndarray) -> int:
    """Pixels of the bounding box whose centers lie inside the convex hull."""
    pts = np.column_stack([xs, ys]).astype(np.float64)
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return len(xs)  # degenerate (collinear) region
    gx, gy = np.meshgrid(
        np.arange(xs.min(), xs.max() + 1), np.arange(ys.min(), ys.max() + 1)
    )
    grid = np.column_stack([gx.ravel(), gy.ravel()]).astype(np.float64)
    inside = np.ones(len(grid), dtype=bool)
    for a, b, c in hull.equations:
        inside &= grid[:, 0] * a + grid[:, 1] * b + c <= 1e-9
    return int(inside.sum())


def shape_descriptor(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(extent, eccentricity, solidity) of a pixel set."""
    area = len(xs)
    bw = xs.max() - xs.min() + 1
    bh = ys.max() - ys.min() + 1
    extent = area / (bw * bh)

    mxx = np.var(xs)
    myy = np.var(ys)
    mxy = np.mean((xs - xs.mean()) * (ys - ys.mean()))
    half_tr = (mxx + myy) / 2.0
    det_root = math.sqrt(((mxx - myy) / 2.0) ** 2 + mxy**2)
    lam1 = half_tr + det_root
    lam2 = max(half_tr - det_root, 0.0)
    ecc = math.sqrt(1.0 - lam2 / lam1) if lam1 > 0 else 0.0

    solidity = min(area / max(_hull_pixel_count(xs, ys), 1), 1.0)
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


_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


def extract_regions(mask: np.ndarray, min_area: int = 100) -> list[Region]:
    """8-connected components of a bool mask, largest (then leftmost) first."""
    labeled, count = ndimage.label(mask, structure=_EIGHT_CONNECTED)
    regions = []
    for index, slc in enumerate(ndimage.find_objects(labeled), start=1):
        if slc is None:
            continue
        local = labeled[slc] == index
        if local.sum() < min_area:
            continue
        ys, xs = np.nonzero(local)
        regions.append(region_from_pixels(xs + slc[1].start, ys + slc[0].start))
    regions.sort(key=lambda r: (-r.area, r.centroid[0]))
    return regions


# ---------------------------------------------------------------------------
# temporal outlier rejection
# ---------------------------------------------------------------------------


@dataclass
class CacheEntry:
    bbox: BoundingBox
    centroid: tuple[float, float]
    area: int
    frame_index: int


@dataclass
class RegionCache:
    """Last accepted hand regions; entries expire after ``horizon`` frames."""

    horizon: int = 30
    left: CacheEntry | None = None
    right: CacheEntry | None = None

    def valid_entries(self, frame_index: int) -> list[CacheEntry]:
        out = []
        for entry in (self.left, self.right):
            if entry is not None and frame_index - entry.frame_index <= self.horizon:
                out.append(entry)
        return out


def reject_outliers(
    regions: list[Region],
    cache: RegionCache | None,
    frame_index: int = 0,
    distance_factor: float = 1.5,
    area_factor: float = 3.0,
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
            if dist <= distance_factor * scale and ratio <= area_factor:
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
    best_cls = None
    best_dist = math.inf
    for cls in GestureClass:  # enum order fixes tie-breaking
        if cls not in bank:
            continue
        dist = float(np.linalg.norm(region.descriptor - bank[cls]))
        if dist < best_dist:
            best_cls = cls
            best_dist = dist
    return best_cls, 1.0 / (1.0 + best_dist)


@dataclass(frozen=True)
class GesturePairToken:
    """Debounce input: per-frame classes for the person's left and right hand."""

    left: GestureClass | None
    right: GestureClass | None
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
        return {
            "frame": self.frame,
            "left": self.left.name if self.left else None,
            "right": self.right.name if self.right else None,
            "conf_l": self.conf_left,
            "conf_r": self.conf_right,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "GesturePairToken":
        left = GestureClass.from_name(rec["left"]) if rec.get("left") else None
        right = GestureClass.from_name(rec["right"]) if rec.get("right") else None
        return cls(
            left=left,
            right=right,
            frame=int(rec.get("frame", 0)),
            conf_left=rec.get("conf_l") if left else None,
            conf_right=rec.get("conf_r") if right else None,
        )


def recognize_pair(
    frame: Frame,
    cache: RegionCache | None,
    bank: TemplateBank,
    hsv_range: HsvRange,
    min_area: int = 100,
    frame_index: int = 0,
) -> GesturePairToken:
    """Full pipeline for one frame; a missing hand leaves its side as None.

    The person faces the camera, so the region with the smaller image x is the
    person's right hand and the larger x the person's left.
    """
    mask = segment_skin(frame, hsv_range)
    regions = reject_outliers(extract_regions(mask, min_area), cache, frame_index)
    matched = [(region, *match_gesture(region, bank)) for region in regions]
    matched.sort(key=lambda m: (-m[2], -m[0].area, m[0].centroid[0]))
    matched = matched[:2]

    left = right = None
    conf_left = conf_right = None
    if len(matched) == 2:
        a, b = sorted(matched, key=lambda m: m[0].centroid[0])
        right, conf_right = a[1], a[2]  # viewer-left region = person's right
        left, conf_left = b[1], b[2]
        right_region, left_region = a[0], b[0]
    elif len(matched) == 1:
        region, cls, conf = matched[0]
        if region.centroid[0] < frame.width / 2:
            right, conf_right, right_region = cls, conf, region
            left_region = None
        else:
            left, conf_left, left_region = cls, conf, region
            right_region = None
    else:
        left_region = right_region = None

    if cache is not None:
        if left_region is not None:
            cache.left = CacheEntry(
                left_region.bbox, left_region.centroid, left_region.area, frame_index
            )
        if right_region is not None:
            cache.right = CacheEntry(
                right_region.bbox, right_region.centroid, right_region.area, frame_index
            )
    return GesturePairToken(
        left=left,
        right=right,
        frame=frame_index,
        conf_left=conf_left,
        conf_right=conf_right,
    )


# ---------------------------------------------------------------------------
# recognizers and configuration
# ---------------------------------------------------------------------------


class ShapeRecognizer:
    """Stateful shape-pipeline recognizer (one region cache per stream)."""

    def __init__(
        self,
        bank: TemplateBank | None = None,
        hsv_range: HsvRange | None = None,
        min_area: int = 100,
        horizon: int = 30,
    ):
        if bank is None or hsv_range is None:
            default_hsv, default_bank = load_gesture_config()
            bank = bank if bank is not None else default_bank
            hsv_range = hsv_range if hsv_range is not None else default_hsv
        self.bank = bank
        self.hsv_range = hsv_range
        self.min_area = min_area
        self.cache = RegionCache(horizon=horizon)

    def __call__(self, frame: Frame, frame_index: int) -> GesturePairToken:
        return recognize_pair(
            frame, self.cache, self.bank, self.hsv_range, self.min_area, frame_index
        )


class OracleRecognizer:
    """Replays ground-truth pair labels; isolates the decoder from vision."""

    def __init__(self, labels: list[tuple[str | None, str | None]]):
        self.labels = labels

    def __call__(self, frame: Frame, frame_index: int) -> GesturePairToken:
        left_name, right_name = self.labels[frame_index]
        left = GestureClass.from_name(left_name) if left_name else None
        right = GestureClass.from_name(right_name) if right_name else None
        return GesturePairToken(
            left=left,
            right=right,
            frame=frame_index,
            conf_left=1.0 if left else None,
            conf_right=1.0 if right else None,
        )


def build_default_bank() -> TemplateBank:
    """Descriptors of the canonical synthetic hand silhouettes."""
    from . import synth  # local import; synth depends on this module's classes

    bank = {}
    for cls in GestureClass:
        mask = synth.hand_mask(cls)
        ys, xs = np.nonzero(mask)
        bank[cls] = shape_descriptor(xs, ys)
    return bank


def gesture_config_to_dict(hsv_range: HsvRange, bank: TemplateBank) -> dict:
    return {
        "hsv": {
            "h": list(hsv_range.h),
            "s": list(hsv_range.s),
            "v": list(hsv_range.v),
        },
        "templates": {cls.name: [float(v) for v in desc] for cls, desc in bank.items()},
    }


def parse_gesture_config(raw: dict) -> tuple[HsvRange, TemplateBank]:
    try:
        hsv = HsvRange(
            h=tuple(raw["hsv"]["h"]), s=tuple(raw["hsv"]["s"]), v=tuple(raw["hsv"]["v"])
        )
        bank = {
            GestureClass.from_name(name): np.asarray(desc, dtype=np.float64)
            for name, desc in raw["templates"].items()
        }
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed gesture config: {exc}") from exc
    for cls, desc in bank.items():
        if desc.shape != (3,) or not np.isfinite(desc).all():
            raise ValidationError(f"template for {cls.name!r} must be 3 finite values")
    return hsv, bank


def load_gesture_config(path: str | Path | None = None) -> tuple[HsvRange, TemplateBank]:
    """Load ``gesture.json``; without a path, the packaged default."""
    if path is None:
        text = resources.files("diverkit").joinpath("data", "gesture.json").read_text()
    else:
        text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"gesture config is not valid JSON: {exc}") from exc
    return parse_gesture_config(raw)
