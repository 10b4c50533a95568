"""Shared domain types: frames, the window grid, and tracker configuration.

A frame is a float64 raster with intensities in [0, 255]. The grid chops a
frame into equal non-overlapping windows; pixels in the right/bottom margin
left over by the flooring are not part of any window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels


class ValidationError(ValueError):
    """A domain object or config file violates its invariants."""


@dataclass(frozen=True)
class Frame:
    """One image frame; gray arrays are (h, w), RGB arrays are (h, w, 3)."""

    pixels: np.ndarray
    index: int = 0
    fps: float = 10.0

    def __post_init__(self):
        arr = np.ascontiguousarray(self.pixels, dtype=np.float64)
        if arr.ndim == 3 and arr.shape[2] == 1:
            arr = arr[:, :, 0]
        if arr.ndim not in (2, 3) or (arr.ndim == 3 and arr.shape[2] != 3):
            raise ValidationError(f"frame must be (h, w) or (h, w, 3), got {arr.shape}")
        if arr.size == 0:
            raise ValidationError("empty frame")
        # written so NaN fails too: every comparison with NaN is False
        if not (arr.min() >= 0 and arr.max() <= 255):
            raise ValidationError("pixel intensities must be finite and lie in [0, 255]")
        if self.fps <= 0:
            raise ValidationError("fps must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3

    @property
    def timestamp_s(self) -> float:
        return self.index / self.fps


@dataclass(frozen=True)
class GridConfig:
    """Non-overlapping window grid over a frame, row-major window indices."""

    frame_w: int
    frame_h: int
    window_w: int = 30
    window_h: int = 30

    def __post_init__(self):
        if self.window_w < 1 or self.window_h < 1:
            raise ValidationError("window dimensions must be >= 1")
        if self.window_w > self.frame_w or self.window_h > self.frame_h:
            raise ValidationError("window dimensions must not exceed frame dimensions")

    @property
    def cols(self) -> int:
        return self.frame_w // self.window_w

    @property
    def rows(self) -> int:
        return self.frame_h // self.window_h

    @property
    def num_windows(self) -> int:
        return self.rows * self.cols

    def window_index_at(self, x: float, y: float) -> int:
        """Window containing pixel (x, y); clamped to the covered area."""
        col = min(max(int(x) // self.window_w, 0), self.cols - 1)
        row = min(max(int(y) // self.window_h, 0), self.rows - 1)
        return row * self.cols + col

    def grid_coords(self, i: int) -> tuple[int, int]:
        """(row, col) of window ``i``."""
        self._check_index(i)
        return divmod(i, self.cols)

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.num_windows:
            raise ValidationError(
                f"window index {i} out of range [0, {self.num_windows})"
            )


def window_rect(grid: GridConfig, i: int) -> tuple[int, int, int, int]:
    """Pixel rectangle (x, y, w, h) of window ``i``."""
    row, col = grid.grid_coords(i)
    return (col * grid.window_w, row * grid.window_h, grid.window_w, grid.window_h)


def window_center(grid: GridConfig, i: int) -> tuple[float, float]:
    """Geometric center of window ``i`` in pixel coordinates."""
    x, y, w, h = window_rect(grid, i)
    return (x + w / 2.0, y + h / 2.0)


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box given by center, size and a detection score."""

    cx: float
    cy: float
    w: float
    h: float
    score: float = 0.0

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValidationError("bounding box must have positive size")

    @property
    def area(self) -> float:
        return self.w * self.h

    def clamped(self, frame_w: int, frame_h: int) -> "BoundingBox":
        """Shift the center so the box lies within the frame."""
        hw, hh = self.w / 2.0, self.h / 2.0
        cx = min(max(self.cx, hw), frame_w - hw)
        cy = min(max(self.cy, hh), frame_h - hh)
        return BoundingBox(cx, cy, self.w, self.h, self.score)


@dataclass(frozen=True)
class TrackerConfig:
    """Detection parameters for the periodic-motion tracker.

    ``slide`` is the number of frames per detection cycle, ``pool`` the number
    of candidate trajectories kept for frequency inspection, ``delta`` the
    amplitude threshold a candidate must reach inside ``band`` (Hz) to count
    as a detection, and ``intensity_range`` the closed intensity interval that
    the evidence model treats as flipper-like.
    """

    slide: int = 15
    pool: int = 5
    delta: float = 75.0
    epsilon: float = 0.1
    intensity_range: tuple[float, float] = (180.0, 255.0)
    fps: float = 10.0
    band: tuple[float, float] = (1.0, 2.0)
    stride: int = 0  # 0 means "use slide"
    window_w: int = 30
    window_h: int = 30
    gauss_sigma: float = 1.0

    def __post_init__(self):
        if self.stride == 0:
            object.__setattr__(self, "stride", self.slide)
        object.__setattr__(
            self, "intensity_range", tuple(float(v) for v in self.intensity_range)
        )
        object.__setattr__(self, "band", tuple(float(v) for v in self.band))
        if self.slide < 1:
            raise ValidationError("slide size must be >= 1")
        if self.pool < 1:
            raise ValidationError("pool size must be >= 1")
        if not 0.0 < self.epsilon < 0.5:
            raise ValidationError("epsilon must lie in (0, 0.5)")
        lo, hi = self.intensity_range
        if not 0.0 <= lo <= hi <= 255.0:
            raise ValidationError("intensity range must satisfy 0 <= lo <= hi <= 255")
        if self.band[0] >= self.band[1]:
            raise ValidationError("band must satisfy low < high")
        if not 1 <= self.stride <= self.slide:
            raise ValidationError("stride must lie in [1, slide]")
        if self.fps <= 0:
            raise ValidationError("fps must be positive")
        if self.gauss_sigma < 0:
            raise ValidationError("gauss_sigma must be >= 0")
        if not self.band_bins():
            raise ValidationError(
                f"no integer DFT bin of a length-{self.slide} series at "
                f"{self.fps} fps falls inside the band {self.band}"
            )

    def band_bins(self) -> list[int]:
        """Non-DC DFT bins whose center frequency lies inside the band."""
        lo, hi = self.band
        eps = 1e-9
        bins = []
        for k in range(1, self.slide):
            f = k * self.fps / self.slide
            if lo - eps <= f <= hi + eps:
                bins.append(k)
        return bins

    def to_dict(self) -> dict:
        return {
            "T": self.slide,
            "p": self.pool,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "R": list(self.intensity_range),
            "fps": self.fps,
            "band": list(self.band),
            "stride": self.stride,
            "window": [self.window_w, self.window_h],
            "gauss_sigma": self.gauss_sigma,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TrackerConfig":
        if not isinstance(raw, dict):
            raise ValidationError("tracker config must be a JSON object")
        unknown = set(raw) - set(_TRACKER_KEYS)
        if unknown:
            raise ValidationError(f"unknown tracker config keys: {sorted(unknown)}")
        kwargs = {}
        for key, value in raw.items():
            name, convert = _TRACKER_KEYS[key]
            try:
                kwargs[name] = convert(value)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"tracker config key {key!r}: cannot read {value!r}"
                ) from None
        if "window" in kwargs:
            kwargs["window_w"], kwargs["window_h"] = kwargs.pop("window")
        return cls(**kwargs)


def _pair(convert):
    """Converter of a two-element JSON list."""

    def pair(value):
        lo, hi = (convert(v) for v in value)
        return lo, hi

    return pair


# tracker config JSON key -> (TrackerConfig field, converter)
_TRACKER_KEYS = {
    "T": ("slide", int),
    "p": ("pool", int),
    "delta": ("delta", float),
    "epsilon": ("epsilon", float),
    "R": ("intensity_range", _pair(float)),
    "fps": ("fps", float),
    "band": ("band", _pair(float)),
    "stride": ("stride", int),
    "window": ("window", _pair(int)),
    "gauss_sigma": ("gauss_sigma", float),
}


def load_tracker_config(path: str | Path) -> TrackerConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return TrackerConfig.from_dict(raw)


def grid_for(cfg: TrackerConfig, frame_w: int, frame_h: int) -> GridConfig:
    grid = GridConfig(frame_w, frame_h, cfg.window_w, cfg.window_h)
    if cfg.pool > grid.num_windows:
        raise ValidationError(
            f"pool size {cfg.pool} exceeds the {grid.num_windows}-window grid"
        )
    return grid


def luminance(frame: Frame) -> Frame:
    """RGB to gray via 0.299R + 0.587G + 0.114B, rounded half-up.

    Gray input passes through unchanged.
    """
    if frame.channels == 1:
        return frame
    rgb = frame.pixels
    gray = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    gray = np.clip(np.floor(gray + 0.5), 0.0, 255.0)
    return Frame(gray, index=frame.index, fps=frame.fps)


def window_intensity(
    frame: Frame, grid: GridConfig, i: int, sigma: float = 1.0
) -> float:
    """Mean of the Gaussian-blurred frame inside window ``i``."""
    if frame.channels != 1:
        raise TypeError("window_intensity needs a gray frame; convert via luminance()")
    x, y, w, h = window_rect(grid, i)
    blurred = kernels.gaussian_blur(frame.pixels, sigma)
    return float(blurred[y : y + h, x : x + w].mean())


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detection cycle."""

    trajectory: np.ndarray  # slide-size window indices, one per frame
    score: float
    detected: bool
    bbox: BoundingBox
    cycle_index: int
    pool_scores: tuple = field(default=(), compare=False)

    def __post_init__(self):
        traj = np.ascontiguousarray(self.trajectory, dtype=np.int64)
        traj.setflags(write=False)
        object.__setattr__(self, "trajectory", traj)

    @property
    def terminal_window(self) -> int:
        return int(self.trajectory[-1])

    def to_record(self) -> dict:
        return {
            "cycle": self.cycle_index,
            "detected": self.detected,
            "score": self.score,
            "window": self.terminal_window,
            "bbox": [self.bbox.cx, self.bbox.cy, self.bbox.w, self.bbox.h],
        }
