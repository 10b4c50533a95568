import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diverkit.core import Frame, ValidationError
from diverkit.raster import (
    CorruptFrameError,
    iter_sequence,
    read_pnm,
    read_sequence,
    read_truth,
    write_pnm,
    write_sequence,
    write_truth,
)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (12, 17)).astype(np.float64)
    path = tmp_path / "a.pgm"
    write_pnm(path, img)
    assert (read_pnm(path) == img).all()


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (9, 7, 3)).astype(np.float64)
    path = tmp_path / "a.ppm"
    write_pnm(path, img)
    assert (read_pnm(path) == img).all()


def test_reader_returns_uint8(tmp_path):
    path = tmp_path / "a.pgm"
    write_pnm(path, np.arange(12, dtype=np.uint8).reshape(3, 4))
    pixels = read_pnm(path)
    assert pixels.dtype == np.uint8 and pixels.shape == (3, 4)
    assert (pixels == np.arange(12).reshape(3, 4)).all()


def test_reader_tolerates_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
    assert (read_pnm(path) == [[0, 1], [2, 3]]).all()


def test_corrupt_header_raises(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"JUNK")
    with pytest.raises(CorruptFrameError):
        read_pnm(path)


def test_header_fields_take_any_whitespace_and_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\t2\r\n#\n\n# two\r\n  2 # w h\n#\n255\n\x00\x01\x02\x03")
    assert (read_pnm(path) == [[0, 1], [2, 3]]).all()


def test_adversarial_headers_are_refused_in_linear_time(tmp_path):
    # run in a child, so that a backtracking pattern fails on the timeout instead of
    # hanging: it would take days on 40 "# " pairs, and 8.5 s on 16,000 spaces
    headers = [b"P5 " + b"# " * 40 + b"x", b"P5 " + b"# " * 100_000 + b"x", b"P5 # " + b" " * 10**6]
    paths = [tmp_path / f"slow{i}.pgm" for i in range(len(headers))]
    for path, header in zip(paths, headers):
        path.write_bytes(header)
    code = (
        "import sys, time\n"
        "from diverkit.raster import CorruptFrameError, read_pnm\n"
        "for path in sys.argv[1:]:\n"
        "    start = time.perf_counter()\n"
        "    try:\n"
        "        read_pnm(path)\n"
        "    except CorruptFrameError:\n"
        "        print(time.perf_counter() - start < 0.5)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, *map(str, paths)], capture_output=True, text=True, timeout=5
    )
    assert child.stdout == "True\n" * len(paths), child.stderr


# header pieces, so that generated files come near the grammar from both sides
HEADER_PARTS = st.sampled_from(
    [b" ", b"\n", b"\r", b"\t", b"#", b"# c\n", b"0", b"2", b"3", b"255", b"9" * 10, b"x", b"\xff"]
)


@settings(max_examples=200, deadline=None)
@given(magic=st.sampled_from([b"P5", b"P6"]), parts=st.lists(HEADER_PARTS, max_size=16),
       tail=st.binary(max_size=16))
def test_any_bytes_read_as_a_frame_or_a_corrupt_file(tmp_path_factory, magic, parts, tail):
    path = tmp_path_factory.mktemp("pnm") / "a.pnm"
    path.write_bytes(magic + b"".join(parts) + tail)
    try:
        pixels = read_pnm(path)
    except CorruptFrameError:
        return
    assert pixels.dtype == np.uint8 and pixels.ndim == (2 if magic == b"P5" else 3)


def test_truncated_body_raises(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(CorruptFrameError):
        read_pnm(path)


def test_sequence_roundtrip_with_manifest(tmp_path):
    frames = [Frame(np.full((6, 8), float(10 * i)), index=i, fps=5.0) for i in range(4)]
    write_sequence(tmp_path / "seq", frames)
    manifest_names = sorted(p.name for p in (tmp_path / "seq").iterdir())
    assert "manifest.json" in manifest_names
    assert "frame_000003.pgm" in manifest_names
    back = read_sequence(tmp_path / "seq")
    assert len(back) == 4
    assert back[2].fps == 5.0 and back[2].index == 2
    assert (back[1].pixels == 10.0).all()


def test_iter_sequence_is_lazy(tmp_path):
    frames = [Frame(np.full((6, 8), float(10 * i)), index=i) for i in range(5)]
    write_sequence(tmp_path / "seq", frames)
    victim = tmp_path / "seq" / "frame_000003.pgm"
    victim.write_bytes(victim.read_bytes()[:-1])
    stream = iter_sequence(tmp_path / "seq")
    for idx in range(3):
        frame = next(stream)
        assert frame.index == idx and (frame.pixels == 10.0 * idx).all()
    with pytest.raises(CorruptFrameError, match="frame_000003.pgm"):
        next(stream)


def test_rgb_sequence_uses_ppm(tmp_path):
    frames = [Frame(np.zeros((6, 8, 3)), index=0)]
    write_sequence(tmp_path / "seq", frames)
    assert (tmp_path / "seq" / "frame_000000.ppm").exists()


def test_missing_manifest_rejected(tmp_path):
    (tmp_path / "seq").mkdir()
    with pytest.raises(ValidationError):
        read_sequence(tmp_path / "seq")


@pytest.mark.parametrize("text", ["{not json", "[]", "\"frames\""])
def test_corrupt_manifest_raises(tmp_path, text):
    write_sequence(tmp_path / "seq", [Frame(np.zeros((6, 8)))])
    (tmp_path / "seq" / "manifest.json").write_text(text)
    with pytest.raises(CorruptFrameError, match="manifest.json"):
        read_sequence(tmp_path / "seq")


@pytest.mark.parametrize(
    "key, value",
    [
        ("width", "8"),
        ("frame_count", 1.0),
        ("channels", True),
        ("frame_count", -3),
        ("frame_count", 0),
        ("width", -320),
        ("height", 0),
        ("channels", 2),
        ("channels", 0),
        ("fps", "10"),
        ("fps", True),
        ("fps", float("inf")),
        ("fps", 0),
        ("fps", -10.0),
    ],
)
def test_manifest_integer_keys_checked(tmp_path, key, value):
    write_sequence(tmp_path / "seq", [Frame(np.zeros((6, 8)))])
    path = tmp_path / "seq" / "manifest.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps(dict(manifest, **{key: value})))
    with pytest.raises(ValidationError, match=rf"manifest\.json: manifest '{key}'"):
        read_sequence(tmp_path / "seq")


def test_corrupt_truth_raises(tmp_path):
    (tmp_path / "truth.json").write_bytes(b"\xff\xfe{")
    with pytest.raises(CorruptFrameError, match="truth.json"):
        read_truth(tmp_path)


def test_empty_sequence_rejected(tmp_path):
    with pytest.raises(ValidationError):
        write_sequence(tmp_path / "seq", [])


def test_truth_roundtrip(tmp_path):
    write_truth(tmp_path, {"centers": [[1.0, 2.0]], "windows": [3]})
    assert read_truth(tmp_path) == {"centers": [[1.0, 2.0]], "windows": [3]}
    assert read_truth(tmp_path / "nowhere") is None



@st.composite
def pnm_arrays(draw):
    """Gray or RGB arrays of 1 to 40 px per side: uint8, or floats partly out of range."""
    side = st.integers(1, 40)
    shape = draw(st.tuples(side, side) | st.tuples(side, side, st.just(3)))
    halves = st.integers(-100, 600).map(lambda k: k / 2)  # where rounding rules differ
    floats = arrays(np.float64, shape, elements=st.floats(-50.0, 300.0) | halves)
    return draw(arrays(np.uint8, shape) | floats)


@settings(max_examples=50, deadline=None)
@given(pixels=pnm_arrays())
def test_pnm_round_trip(tmp_path_factory, pixels):
    path = tmp_path_factory.mktemp("pnm") / ("a.pgm" if pixels.ndim == 2 else "a.ppm")
    write_pnm(path, pixels)
    got = read_pnm(path)
    expected = pixels if pixels.dtype == np.uint8 else np.clip(np.floor(pixels + 0.5), 0, 255)
    assert got.dtype == np.uint8 and got.shape == pixels.shape
    assert (got == expected).all()
