"""Deterministic synthetic scenes with exact ground truth.

Diver scenes are gray sequences: a flat background plus seeded Gaussian noise
and a filled disk whose intensity oscillates sinusoidally at the flipper gait
frequency while its center follows a configurable path. Gesture scenes are
RGB sequences with two canonical hand silhouettes in skin color, one per half
of the frame.

Every frame is quantized to whole intensities the way ``raster.write_pnm``
writes it, so a render and its sequence files hold the same pixels.
Everything is a pure function of (spec, seed): identical specs render
bit-identical sequences.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .core import Frame, GridConfig, ValidationError, quantize, read_fields, to_json
from .core import fields, finite, integer, listof, nested, optional  # table helpers, converters
from .gesture import GestureClass, hand_class

PATH_KINDS = ("static", "straight", "sideways", "sinusoid")


@dataclass(frozen=True)
class PathSpec:
    """Blob center motion: static, straight(vx, vy), sideways(vx), or a
    vertical sinusoid(amplitude px, period frames) around the start point."""

    kind: str = "static"
    vx: float = 0.0
    vy: float = 0.0
    amplitude: float = 0.0
    period: float = 0.0

    def __post_init__(self):
        if self.kind not in PATH_KINDS:
            raise ValidationError(f"unknown path kind {self.kind!r}")
        if self.kind == "sinusoid" and self.period <= 0:
            raise ValidationError("sinusoid path needs a positive period")

    def offset(self, t: int) -> tuple[float, float]:
        if self.kind == "static":
            return (0.0, 0.0)
        if self.kind == "straight":
            return (self.vx * t, self.vy * t)
        if self.kind == "sideways":
            return (self.vx * t, 0.0)
        return (0.0, self.amplitude * math.sin(2.0 * math.pi * t / self.period))


@dataclass(frozen=True)
class Flipper:
    radius: float = 13.0
    intensity: float = 215.0  # disk intensity at zero oscillation phase
    amplitude: float = 40.0  # the intensity swings by +- |amplitude|
    frequency: float = 1.5  # Hz

    def __post_init__(self):
        if not self.radius > 0:
            raise ValidationError(f"flipper radius must be positive, got {self.radius}")
        swing = abs(self.amplitude)
        if not (0.0 <= self.intensity - swing and self.intensity + swing <= 255.0):
            raise ValidationError("flipper intensity +- |amplitude| must stay in [0, 255]")


@dataclass(frozen=True)
class DiverSceneSpec:
    frames: int = 300
    fps: float = 10.0
    width: int = 320
    height: int = 240
    background: float = 60.0
    noise_sigma: float = 0.0
    flipper: Flipper = field(default_factory=Flipper)
    path: PathSpec = field(default_factory=PathSpec)
    start: tuple[float, float] = (160.0, 120.0)
    seed: int = 0

    def __post_init__(self):
        if self.frames < 1:
            raise ValidationError("scene needs at least one frame")
        if not 0.0 < self.flipper.frequency < self.fps / 2.0:
            raise ValidationError(
                "flipper frequency must lie in (0, fps/2) to be observable"
            )
        if not 0.0 <= self.background <= 255.0:
            raise ValidationError("background intensity must lie in [0, 255]")
        if self.noise_sigma < 0:
            raise ValidationError("noise sigma must be >= 0")
        _check_seed(self.seed)
        sinusoid = self.path.kind == "sinusoid"
        if sinusoid and math.isinf(2.0 * math.pi * self.frames / self.path.period):
            raise ValidationError("sinusoid period is too short for the path's phase to be finite")
        if sinusoid:
            t = next((t for t in range(self.frames) if self._outside(t)), self.frames)
        else:  # x and y are monotone in t, so the frames inside form a prefix if t=0 is inside
            t = 0 if self._outside(0) else bisect_left(range(self.frames), True, key=self._outside)
        if t < self.frames:
            x, y = self.center_at(t)
            raise ValidationError(
                f"blob leaves the frame at t={t} (center {x:.1f}, {y:.1f})"
            )

    def _outside(self, t: int) -> bool:
        x, y = self.center_at(t)
        return not (0.0 <= x < self.width and 0.0 <= y < self.height)

    def center_at(self, t: int) -> tuple[float, float]:
        dx, dy = self.path.offset(t)
        return (self.start[0] + dx, self.start[1] + dy)

    def blob_intensity(self, t: int) -> float:
        phase = 2.0 * math.pi * self.flipper.frequency * t / self.fps
        return self.flipper.intensity + self.flipper.amplitude * math.sin(phase)

    @classmethod
    def from_dict(cls, raw: dict) -> "DiverSceneSpec":
        return cls(**read_fields(raw, _DIVER_KEYS, "diver scene spec"))


# diver scene spec JSON key -> (field, converter)
_FLIPPER_KEYS = fields(("radius", "intensity", "amplitude", "frequency"), finite)
_PATH_KEYS = {"kind": ("kind", str), **fields(("vx", "vy", "amplitude", "period"), finite)}
_DIVER_KEYS = {
    **fields(("frames", "width", "height", "seed"), integer),
    **fields(("fps", "background", "noise_sigma"), finite),
    "flipper": ("flipper", nested(Flipper, _FLIPPER_KEYS, "diver scene spec flipper")),
    "path": ("path", nested(PathSpec, _PATH_KEYS, "diver scene spec path")),
    "start": ("start", listof(finite, 2)),
}


@dataclass
class GroundTruth:
    """Exact per-frame annotations emitted next to a rendered sequence."""

    centers: list[tuple[float, float]] | None = None
    windows: list[int] | None = None
    gesture_labels: list[tuple[str | None, str | None]] | None = None

    def to_dict(self) -> dict:
        return {key: value for key, value in to_json(self).items() if value is not None}

    @classmethod
    def from_dict(cls, raw: dict) -> "GroundTruth":
        return cls(**read_fields(raw, _TRUTH_KEYS, "truth"))


# truth JSON key -> (field, converter)
_TRUTH_KEYS = {
    "centers": ("centers", listof(listof(finite, 2))),
    "windows": ("windows", listof(integer)),
    "gesture_labels": ("gesture_labels", listof(listof(optional(str), 2))),
}


# The most pixels a scene renders, frames x width x height. A render is held in
# memory: gray diver frames as float64, 8 bytes a pixel (1 GiB at this cap), RGB
# gesture frames as bytes, 3 a pixel (384 MiB). The bundled scenes render 23 million.
# The render refuses a larger scene; the spec itself validates, as a spec's other
# uses (its path's centers, its segment plan) hold no frame.
RENDER_PIXELS_MAX = 2**27


def _check_render_size(what: str, frames: int, width: int, height: int) -> None:
    if frames * width * height > RENDER_PIXELS_MAX:
        raise ValidationError(
            f"{what} frames x width x height = {frames} x {width} x {height} "
            f"exceeds {RENDER_PIXELS_MAX} pixels"
        )


def _check_seed(seed: int) -> None:
    if seed < 0:  # np.random.default_rng takes non-negative seeds only
        raise ValidationError(f"seed must be >= 0, got {seed}")


def render_diver_sequence(
    spec: DiverSceneSpec, window: tuple[int, int] = (30, 30)
) -> tuple[list[Frame], GroundTruth]:
    """Render a diver scene; truth holds per-frame centers and the index of
    the window containing the center on a ``window``-sized grid."""
    _check_render_size("diver scene", spec.frames, spec.width, spec.height)
    grid = GridConfig(spec.width, spec.height, window[0], window[1])
    rng = np.random.default_rng(spec.seed)
    frames = []
    centers = []
    windows = []
    ys, xs = np.ogrid[: spec.height, : spec.width]
    for t in range(spec.frames):
        cx, cy = spec.center_at(t)
        img = np.full((spec.height, spec.width), spec.background)
        img[_disk(xs, ys, cx, cy, spec.flipper.radius)] = spec.blob_intensity(t)
        if spec.noise_sigma > 0:
            img += rng.normal(0.0, spec.noise_sigma, img.shape)
        frames.append(Frame(quantize(img), index=t, fps=spec.fps))
        centers.append((cx, cy))
        windows.append(grid.window_index_at(cx, cy))
    return frames, GroundTruth(centers=centers, windows=windows)


# ---------------------------------------------------------------------------
# canonical hand silhouettes
# ---------------------------------------------------------------------------

HAND_CANVAS = 100  # silhouettes are defined on a square canvas of this size


def _canvas_grid() -> tuple[np.ndarray, np.ndarray]:
    ys, xs = np.ogrid[:HAND_CANVAS, :HAND_CANVAS]
    return xs, ys


def _disk(xs, ys, cx, cy, r):
    return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r


def _rect(xs, ys, x0, y0, x1, y1):
    return (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)


def _tri(xs, ys, p0, p1, p2):
    def half(a, b):
        return (xs - a[0]) * (b[1] - a[1]) - (ys - a[1]) * (b[0] - a[0])

    s0, s1, s2 = half(p0, p1), half(p1, p2), half(p2, p0)
    return ((s0 >= 0) & (s1 >= 0) & (s2 >= 0)) | ((s0 <= 0) & (s1 <= 0) & (s2 <= 0))


def _digit_hand(xs, ys, count, width, top, span):
    """Palm disk, a knuckle bar, and ``count`` finger bars over ``span`` px.

    The knuckle bar overlaps both the palm and every finger so the silhouette
    stays one 8-connected component after blur and thresholding.
    """
    mask = _disk(xs, ys, 50, 66, 22) | _rect(xs, ys, 50 - span // 2, 46, 49 + span // 2, 58)
    left0 = (HAND_CANVAS - span) // 2
    for k in range(count):
        if count == 1:
            x0 = HAND_CANVAS // 2 - width // 2
        else:
            x0 = left0 + round(k * (span - width) / (count - 1))
        mask |= _rect(xs, ys, x0, top, x0 + width - 1, 52)
    return mask


def hand_mask(cls: GestureClass) -> np.ndarray:
    """Canonical silhouette of a gesture class on the hand canvas."""
    xs, ys = _canvas_grid()
    if cls is GestureClass.zero:
        return _disk(xs, ys, 50, 55, 30)
    if cls is GestureClass.one:
        return _digit_hand(xs, ys, 1, 14, 8, 44)
    if cls is GestureClass.two:
        return _digit_hand(xs, ys, 2, 13, 10, 48)
    if cls is GestureClass.three:
        return _digit_hand(xs, ys, 3, 12, 12, 64)
    if cls is GestureClass.four:
        return _digit_hand(xs, ys, 4, 10, 26, 80)
    if cls is GestureClass.five:
        return _digit_hand(xs, ys, 5, 8, 4, 92)
    if cls is GestureClass.left:
        return _tri(xs, ys, (10, 50), (78, 16), (78, 84))
    if cls is GestureClass.right:
        return _rect(xs, ys, 8, 42, 92, 58)
    if cls is GestureClass.ok:
        return _disk(xs, ys, 50, 55, 30) & ~_disk(xs, ys, 50, 55, 14)
    if cls is GestureClass.pic:
        return _rect(xs, ys, 8, 34, 92, 76) & ~_rect(xs, ys, 22, 48, 78, 62)
    raise ValidationError(f"no silhouette for {cls!r}")


DEFAULT_SKIN = (205.0, 160.0, 130.0)
DEFAULT_GESTURE_BACKGROUND = (40.0, 60.0, 110.0)


@dataclass(frozen=True)
class GestureSegment:
    left: GestureClass | None = None  # None: no hand
    right: GestureClass | None = None
    frames: int = 0

    def __post_init__(self):
        if self.frames < 1:
            raise ValidationError("segment must span at least one frame")


@dataclass(frozen=True)
class GestureSceneSpec:
    """Segments tile the sequence; labels follow the person's hands, so the
    person's right hand is drawn in the viewer-left half of the frame."""

    segments: tuple[GestureSegment, ...] = ()
    width: int = 320
    height: int = 240
    fps: float = 10.0
    skin: tuple[float, float, float] = DEFAULT_SKIN
    background: tuple[float, float, float] = DEFAULT_GESTURE_BACKGROUND
    noise_sigma: float = 0.0
    jitter: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValidationError("gesture scene needs at least one segment")
        if self.width < 2 * HAND_CANVAS or self.height < HAND_CANVAS:
            raise ValidationError(
                f"frame must be at least {2 * HAND_CANVAS}x{HAND_CANVAS}"
            )
        if self.noise_sigma < 0:
            raise ValidationError("noise sigma must be >= 0")
        # a jittered canvas must stay inside the frame: jitter is at most the
        # smallest gap between a hand's canvas and the frame edge
        margin = min(
            min(x, y, self.width - HAND_CANVAS - x, self.height - HAND_CANVAS - y)
            for x, y in (hand_anchor(self, side) for side in ("left", "right"))
        )
        if not 0 <= self.jitter <= margin:
            raise ValidationError(
                f"jitter must lie in [0, {margin}] at {self.width}x{self.height}, got {self.jitter}"
            )
        _check_seed(self.seed)

    @property
    def frames(self) -> int:
        return sum(seg.frames for seg in self.segments)

    def label_at(self, t: int) -> tuple[str | None, str | None]:
        for seg in self.segments:
            if t < seg.frames:
                return (
                    seg.left.name if seg.left else None,
                    seg.right.name if seg.right else None,
                )
            t -= seg.frames
        raise ValidationError(f"frame {t} beyond the segment plan")

    @classmethod
    def from_dict(cls, raw: dict) -> "GestureSceneSpec":
        return cls(**read_fields(raw, _GESTURE_KEYS, "gesture scene spec"))


# gesture scene spec JSON key -> (field, converter); a hand left out is no hand
_SEGMENT_KEYS = {**fields(("left", "right"), hand_class), "frames": ("frames", integer)}
_SEGMENT = nested(GestureSegment, _SEGMENT_KEYS, "gesture scene spec segment", ("frames",))
_GESTURE_KEYS = {
    "segments": ("segments", listof(_SEGMENT)),
    **fields(("width", "height", "jitter", "seed"), integer),
    **fields(("fps", "noise_sigma"), finite),
    **fields(("skin", "background"), listof(finite, 3)),
}


def hand_anchor(spec: GestureSceneSpec, person_side: str) -> tuple[int, int]:
    """Top-left paste position of the canvas for the given hand."""
    y = (spec.height - HAND_CANVAS) // 2
    quarter = spec.width // 4
    if person_side == "right":  # viewer-left half
        return (quarter - HAND_CANVAS // 2, y)
    return (3 * quarter - HAND_CANVAS // 2, y)


def render_gesture_sequence(
    spec: GestureSceneSpec,
) -> tuple[list[Frame], GroundTruth]:
    _check_render_size("gesture scene", spec.frames, spec.width, spec.height)
    rng = np.random.default_rng(spec.seed)
    background = np.empty((spec.height, spec.width, 3))
    background[:] = spec.background
    frames = []
    labels = []
    for t in range(spec.frames):
        left_name, right_name = spec.label_at(t)
        img = background.copy()
        for person_side, name in (("right", right_name), ("left", left_name)):
            if name is None:
                continue
            mask = hand_mask(GestureClass.from_name(name))
            ax, ay = hand_anchor(spec, person_side)
            if spec.jitter > 0:
                jx, jy = rng.integers(-spec.jitter, spec.jitter + 1, size=2)
                ax, ay = ax + int(jx), ay + int(jy)
            region = img[ay : ay + HAND_CANVAS, ax : ax + HAND_CANVAS]
            region[mask] = spec.skin
        if spec.noise_sigma > 0:
            img += rng.normal(0.0, spec.noise_sigma, img.shape)
        frames.append(Frame(quantize(img), index=t, fps=spec.fps))
        labels.append((left_name, right_name))
    return frames, GroundTruth(gesture_labels=labels)
