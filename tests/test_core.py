import math

import numpy as np
import pytest

from diverkit.core import (
    BoundingBox,
    Frame,
    GridConfig,
    TrackerConfig,
    ValidationError,
    grid_for,
    load_tracker_config,
    luminance,
    window_center,
    window_intensity,
    window_rect,
)


def oracle_blur(img, sigma, truncate=3.0):
    """Brute-force separable Gaussian convolution with symmetric boundary."""
    radius = int(truncate * sigma + 0.5)
    taps = [math.exp(-0.5 * (i / sigma) ** 2) for i in range(-radius, radius + 1)]
    total = sum(taps)
    taps = [t / total for t in taps]

    def reflect(i, n):
        if i < 0:
            return -i - 1
        if i >= n:
            return 2 * n - i - 1
        return i

    h, w = img.shape
    tmp = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            tmp[y, x] = sum(
                img[reflect(y + t, h), x] * taps[t + radius]
                for t in range(-radius, radius + 1)
            )
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            out[y, x] = sum(
                tmp[y, reflect(x + t, w)] * taps[t + radius]
                for t in range(-radius, radius + 1)
            )
    return out


class TestFrame:
    def test_pixel_count_matches_shape(self):
        f = Frame(np.zeros((4, 6)))
        assert (f.height, f.width, f.channels) == (4, 6, 1)
        rgb = Frame(np.zeros((4, 6, 3)))
        assert rgb.channels == 3

    def test_rejects_out_of_range_intensities(self):
        with pytest.raises(ValidationError):
            Frame(np.full((2, 2), 300.0))
        with pytest.raises(ValidationError):
            Frame(np.full((2, 2), -1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_intensities(self, bad):
        pixels = np.full((3, 3), 100.0)
        pixels[1, 2] = bad
        with pytest.raises(ValidationError):
            Frame(pixels)

    def test_timestamp_is_index_over_fps(self):
        f = Frame(np.zeros((2, 2)), index=25, fps=10.0)
        assert f.timestamp_s == pytest.approx(2.5)

    def test_pixels_are_read_only(self):
        f = Frame(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            f.pixels[0, 0] = 1.0


class TestGrid:
    def test_first_cell(self):
        grid = GridConfig(90, 90, 30, 30)
        assert window_rect(grid, 0) == (0, 0, 30, 30)

    def test_center_cell_of_3x3(self):
        grid = GridConfig(90, 90, 30, 30)
        assert window_rect(grid, 4) == (30, 30, 30, 30)

    def test_floor_division_margins_excluded(self):
        grid = GridConfig(100, 70, 30, 30)
        assert grid.num_windows == 6
        # rightmost rect ends at 90, leaving a 10 px margin uncovered
        assert window_rect(grid, 2) == (60, 0, 30, 30)

    def test_default_frame_gives_80_windows(self):
        assert GridConfig(320, 240).num_windows == 80

    def test_rects_disjoint_and_cover_grid_area(self):
        grid = GridConfig(100, 70, 30, 30)
        owner = np.full((70, 100), -1)
        for i in range(grid.num_windows):
            x, y, w, h = window_rect(grid, i)
            assert (owner[y : y + h, x : x + w] == -1).all()
            owner[y : y + h, x : x + w] = i
        assert (owner[: grid.rows * 30, : grid.cols * 30] >= 0).all()

    def test_bijective_lookup(self):
        grid = GridConfig(100, 70, 30, 30)
        for i in range(grid.num_windows):
            x, y, w, h = window_rect(grid, i)
            assert grid.window_index_at(x + w / 2, y + h / 2) == i

    def test_index_out_of_range(self):
        grid = GridConfig(90, 90, 30, 30)
        with pytest.raises(ValidationError):
            window_rect(grid, 9)
        with pytest.raises(ValidationError):
            window_rect(grid, -1)

    def test_window_larger_than_frame_rejected(self):
        with pytest.raises(ValidationError):
            GridConfig(20, 90, 30, 30)


class TestLuminance:
    def test_white_is_255(self):
        f = Frame(np.full((2, 2, 3), 255.0))
        assert (luminance(f).pixels == 255.0).all()

    def test_pure_red_rounds_to_76(self):
        rgb = np.zeros((2, 2, 3))
        rgb[:, :, 0] = 255.0
        assert (luminance(Frame(rgb)).pixels == 76.0).all()  # 0.299*255 = 76.245

    def test_black_is_0(self):
        assert (luminance(Frame(np.zeros((2, 2, 3)))).pixels == 0.0).all()

    def test_gray_passthrough(self):
        f = Frame(np.full((2, 2), 12.0))
        assert luminance(f) is f


class TestWindowIntensity:
    def test_uniform_frame_preserved(self):
        f = Frame(np.full((60, 60), 200.0))
        grid = GridConfig(60, 60, 30, 30)
        for i in range(4):
            assert window_intensity(f, grid, i, sigma=1.0) == pytest.approx(200.0, abs=1e-9)

    def test_checkerboard_against_convolution_oracle(self):
        ys, xs = np.mgrid[:60, :60]
        board = ((xs + ys) % 2) * 255.0
        f = Frame(board)
        grid = GridConfig(60, 60, 30, 30)
        got = window_intensity(f, grid, 0, sigma=1.0)
        # frozen from oracle_blur(board, 1.0)[:30, :30].mean()
        assert got == pytest.approx(127.46557664062654, abs=1e-9)
        assert got == pytest.approx(127.5, abs=1.0)
        expected = oracle_blur(board, 1.0)[:30, :30].mean()
        assert got == pytest.approx(expected, abs=1e-9)

    def test_all_zero_frame(self):
        f = Frame(np.zeros((60, 60)))
        grid = GridConfig(60, 60, 30, 30)
        assert window_intensity(f, grid, 3, sigma=1.0) == 0.0

    def test_rgb_frame_rejected(self):
        f = Frame(np.zeros((60, 60, 3)))
        grid = GridConfig(60, 60, 30, 30)
        with pytest.raises(TypeError):
            window_intensity(f, grid, 0)

    def test_linear_in_brightness(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 255, (60, 60))
        grid = GridConfig(60, 60, 30, 30)
        for c in (0.25, 0.5, 0.9):
            a = window_intensity(Frame(img), grid, 1, sigma=1.2)
            b = window_intensity(Frame(c * img), grid, 1, sigma=1.2)
            assert b == pytest.approx(c * a, rel=1e-12)


class TestBoundingBox:
    def test_positive_size_required(self):
        with pytest.raises(ValidationError):
            BoundingBox(0, 0, 0, 10)

    def test_clamped_stays_in_frame(self):
        box = BoundingBox(5, 5, 30, 30).clamped(320, 240)
        assert box.cx == 15 and box.cy == 15


class TestTrackerConfig:
    def test_defaults(self):
        cfg = TrackerConfig()
        assert cfg.slide == 15 and cfg.pool == 5 and cfg.delta == 75.0
        assert cfg.stride == cfg.slide
        assert cfg.band_bins() == [2, 3]

    def test_epsilon_bounds(self):
        with pytest.raises(ValidationError):
            TrackerConfig(epsilon=0.0)
        with pytest.raises(ValidationError):
            TrackerConfig(epsilon=0.5)

    def test_stride_bounds(self):
        with pytest.raises(ValidationError):
            TrackerConfig(stride=16)
        assert TrackerConfig(stride=1).stride == 1

    def test_band_without_integer_bin_rejected(self):
        with pytest.raises(ValidationError):
            TrackerConfig(slide=3, band=(1.0, 2.0))  # bins at 3.33, 6.67 Hz only

    def test_pool_must_fit_grid(self):
        with pytest.raises(ValidationError):
            grid_for(TrackerConfig(pool=5), 60, 60)  # 4-window grid

    def test_json_roundtrip(self, tmp_path):
        cfg = TrackerConfig(slide=10, pool=3, delta=60.0, stride=5)
        path = tmp_path / "tracker.json"
        path.write_text(__import__("json").dumps(cfg.to_dict()))
        assert load_tracker_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "tracker.json"
        path.write_text('{"TT": 15}')
        with pytest.raises(ValidationError):
            load_tracker_config(path)

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"T": "abc"}', "'T'"),
            ('{"delta": [1, 2]}', "'delta'"),
            ('{"R": [180, 200, 255]}', "'R'"),
            ('{"window": 30}', "'window'"),
        ],
    )
    def test_wrongly_typed_value_names_key(self, tmp_path, text, key):
        path = tmp_path / "tracker.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match=key):
            load_tracker_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "tracker.json"
        path.write_text("15")
        with pytest.raises(ValidationError):
            load_tracker_config(path)


def test_window_center_spacing():
    grid = GridConfig(90, 90, 30, 30)
    assert window_center(grid, 0) == (15.0, 15.0)
    c0, c1 = window_center(grid, 0), window_center(grid, 1)
    assert math.hypot(c1[0] - c0[0], c1[1] - c0[1]) == pytest.approx(30.0)
