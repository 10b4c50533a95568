"""Binary PGM/PPM frame sequences on disk.

A sequence directory holds one ``frame_%06d.pgm`` (gray, P5) or ``.ppm``
(RGB, P6) file per frame plus ``manifest.json`` with
``{fps, width, height, channels, frame_count}``. Synthetic scenes also drop a
``truth.json`` next to the frames.

:func:`iter_sequence` reads and checks one file per frame as the consumer asks
for it, so a pipeline that reduces each frame as it arrives (``track``) holds
one frame at a time; :func:`read_sequence` is the same reader collected into a
list.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .core import Frame, ValidationError, quantize, read_json, write_json


class CorruptFrameError(OSError):
    """A frame file exists but cannot be parsed."""


_HEADER = re.compile(rb"^(P[56])\s+(?:#.*\s+)*(\d+)\s+(?:#.*\s+)*(\d+)\s+(?:#.*\s+)*(\d+)\s")


def write_pnm(path: str | Path, pixels: np.ndarray) -> None:
    """Write a gray (h, w) or RGB (h, w, 3) array as binary PGM/PPM."""
    arr = np.asarray(pixels)
    if arr.dtype != np.uint8:
        arr = quantize(arr)
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValidationError(f"cannot write array of shape {arr.shape}")
    h, w = arr.shape[0], arr.shape[1]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(arr.tobytes())


def read_pnm(path: str | Path) -> np.ndarray:
    """Read a binary PGM/PPM file into a read-only uint8 (h, w) or (h, w, 3) array.

    The pixel data must end the file. The array is a view of the file's bytes,
    with no copy; :class:`Frame` keeps an RGB array as it is and widens a gray
    one to float64 once.
    """
    data = Path(path).read_bytes()
    m = _HEADER.match(data)
    if not m:
        raise CorruptFrameError(f"{path}: not a binary PGM/PPM file")
    magic, w, h, maxval = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
    if maxval != 255:
        raise CorruptFrameError(f"{path}: unsupported maxval {maxval}")
    channels = 1 if magic == b"P5" else 3
    expected = w * h * channels
    payload = len(data) - m.end()
    if payload < expected:
        raise CorruptFrameError(f"{path}: truncated pixel data")
    if payload > expected:
        raise CorruptFrameError(f"{path}: {payload - expected} bytes after the pixel data")
    arr = np.frombuffer(data, dtype=np.uint8, count=expected, offset=m.end())
    if channels == 1:
        return arr.reshape(h, w)
    return arr.reshape(h, w, 3)


def frame_filename(index: int, channels: int) -> str:
    ext = "pgm" if channels == 1 else "ppm"
    return f"frame_{index:06d}.{ext}"


def write_sequence(directory: str | Path, frames: list[Frame]) -> None:
    """Write frames plus manifest.json into ``directory``."""
    if not frames:
        raise ValidationError("cannot write an empty sequence")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    first = frames[0]
    for idx, frame in enumerate(frames):
        if (frame.width, frame.height, frame.channels) != (
            first.width,
            first.height,
            first.channels,
        ):
            raise ValidationError("all frames in a sequence must share shape")
        write_pnm(directory / frame_filename(idx, frame.channels), frame.pixels)
    manifest = {
        "fps": first.fps,
        "width": first.width,
        "height": first.height,
        "channels": first.channels,
        "frame_count": len(frames),
    }
    write_json(directory / "manifest.json", manifest)


def _read_json_object(path: Path, what: str) -> dict:
    """:func:`read_json`, with malformed JSON reported as a corrupt file (an I/O error)."""
    try:
        return read_json(path, what)
    except ValidationError as exc:
        raise CorruptFrameError(str(exc)) from None


def read_manifest(directory: str | Path) -> dict:
    path = Path(directory) / "manifest.json"
    if not path.parent.exists():
        raise FileNotFoundError(f"{directory}: no such sequence directory")
    if not path.exists():
        raise ValidationError(f"{directory}: missing manifest.json")
    manifest = _read_json_object(path, "manifest")
    for key in ("fps", "width", "height", "channels", "frame_count"):
        if key not in manifest:
            raise ValidationError(f"{path}: manifest missing key {key!r}")
    for key in ("width", "height", "channels", "frame_count"):
        if type(manifest[key]) is not int:
            raise ValidationError(f"{path}: manifest {key!r} must be an integer")
    for key in ("width", "height", "frame_count"):
        if manifest[key] < 1:
            raise ValidationError(f"{path}: manifest {key!r} must be at least 1")
    if manifest["channels"] not in (1, 3):
        raise ValidationError(f"{path}: manifest 'channels' must be 1 or 3")
    fps = manifest["fps"]
    if not (type(fps) is int or (type(fps) is float and math.isfinite(fps))):
        raise ValidationError(f"{path}: manifest 'fps' must be a finite number")
    if fps <= 0:
        raise ValidationError(f"{path}: manifest 'fps' must be positive")
    return manifest


def iter_sequence(directory: str | Path) -> Iterator[Frame]:
    """Yield the frames of a sequence written by :func:`write_sequence` in order.

    Lazy: the manifest is read at the first request and each frame file only
    when its frame is requested, so a missing, corrupt or misshapen file
    raises after the frames before it have been yielded.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    for idx in range(manifest["frame_count"]):
        path = directory / frame_filename(idx, manifest["channels"])
        if not path.exists():
            raise ValidationError(f"{directory}: missing frame file {path.name}")
        pixels = read_pnm(path)
        if pixels.shape[0] != manifest["height"] or pixels.shape[1] != manifest["width"]:
            raise CorruptFrameError(f"{path}: frame shape disagrees with manifest")
        yield Frame(pixels, index=idx, fps=manifest["fps"])


def read_sequence(directory: str | Path) -> list[Frame]:
    """Read a whole frame sequence written by :func:`write_sequence` into a list."""
    return list(iter_sequence(directory))


def write_truth(directory: str | Path, truth: dict) -> None:
    write_json(Path(directory) / "truth.json", truth, indent=None)


def read_truth(directory: str | Path) -> dict | None:
    path = Path(directory) / "truth.json"
    if not path.exists():
        return None
    return _read_json_object(path, "truth")
