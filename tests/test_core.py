import math

import numpy as np
import pytest

from diverkit.core import (
    GAUSS_SIGMA_MAX,
    BoundingBox,
    Frame,
    GridConfig,
    TrackerConfig,
    ValidationError,
    band_bin_range,
    grid_for,
    load_tracker_config,
    luminance,
    quantize,
    window_center,
    window_rect,
)
from diverkit.tracker import frame_evidence


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

    @pytest.mark.parametrize(
        "dtype, bad",
        [
            (np.float32, np.nan),
            (np.float32, np.inf),
            (np.float32, -1),
            (np.float32, 256),
            (np.float64, 256),
            (np.int16, -1),
            (np.int16, 256),
        ],
    )
    def test_non_uint8_input_keeps_the_range_scan(self, dtype, bad):
        pixels = np.full((3, 3), 100, dtype=dtype)
        pixels[2, 0] = bad
        with pytest.raises(ValidationError):
            Frame(pixels)

    def test_uint8_input_equals_float_input(self):
        values = np.arange(256, dtype=np.uint8).reshape(16, 16)
        from_uint8 = Frame(values)
        from_float = Frame(values.astype(np.float64))
        assert from_uint8.pixels.dtype == np.float64
        assert (from_uint8.pixels == from_float.pixels).all()
        assert not from_uint8.pixels.flags.writeable
        rgb = np.stack([values, values[::-1], values.T], axis=2)
        assert (Frame(rgb).pixels == Frame(rgb.astype(np.float64)).pixels).all()

    def test_rgb_uint8_input_stays_uint8(self):
        rng = np.random.default_rng(8)
        rgb = rng.integers(0, 256, (7, 9, 3), dtype=np.uint8)
        frame = Frame(rgb[:, ::-1])  # a strided view comes out contiguous
        twin = Frame(rgb[:, ::-1].astype(np.float64))
        assert frame.pixels.dtype == np.uint8 and twin.pixels.dtype == np.float64
        assert frame.pixels.flags.c_contiguous and not frame.pixels.flags.writeable
        assert np.array_equal(frame.pixels, twin.pixels)
        assert frame.channels == 3

    @pytest.mark.parametrize(
        "pixels", [np.zeros((4, 4)), np.zeros((4, 4, 3), dtype=np.uint8)], ids=["gray", "rgb"]
    )
    def test_caller_array_stays_writeable(self, pixels):
        frame = Frame(pixels)
        assert pixels.flags.writeable and not frame.pixels.flags.writeable
        pixels[1, 2] = 200
        assert (frame.pixels == 0).all()

    @pytest.mark.parametrize(
        "pixels", [np.zeros((4, 4)), np.zeros((4, 4, 3), dtype=np.uint8)], ids=["gray", "rgb"]
    )
    def test_read_only_view_of_a_writeable_array_is_copied(self, pixels):
        view = pixels.view()
        view.setflags(write=False)
        frame = Frame(view)
        pixels[0, 0] = 9
        assert (frame.pixels == 0).all()

    def test_quantized_rgb_input_is_stored_without_a_copy(self):
        pixels = quantize(np.full((4, 4, 3), 7.4))
        assert Frame(pixels).pixels is pixels

    def test_read_only_input_is_stored_without_a_copy(self):
        pixels = np.frombuffer(bytes(range(48)), dtype=np.uint8).reshape(4, 4, 3)  # as read_pnm
        assert np.shares_memory(Frame(pixels).pixels, pixels)

    @pytest.mark.parametrize("fps",[0.0, -10.0, math.nan, math.inf, -math.inf])
    def test_rejects_non_positive_or_non_finite_fps(self, fps):
        with pytest.raises(ValidationError, match="fps"):
            Frame(np.zeros((2, 2)), fps=fps)

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

    def test_rgb_uint8_equals_float_twin(self):
        rng = np.random.default_rng(9)
        rgb = rng.integers(0, 256, (11, 13, 3), dtype=np.uint8)
        rgb[0, :3] = [[255, 255, 255], [0, 0, 0], [255, 0, 0]]
        gray = luminance(Frame(rgb)).pixels
        assert gray.dtype == np.float64
        assert np.array_equal(gray, luminance(Frame(rgb.astype(np.float64))).pixels)


class TestWindowIntensity:
    """A window's evidence is the mean of the blurred frame inside it."""

    def test_uniform_frame_preserved(self):
        f = Frame(np.full((60, 60), 200.0))
        grid = GridConfig(60, 60, 30, 30)
        assert frame_evidence(f, grid, 1.0) == pytest.approx([200.0] * 4, abs=1e-9)

    def test_checkerboard_against_convolution_oracle(self):
        ys, xs = np.mgrid[:60, :60]
        board = ((xs + ys) % 2) * 255.0
        f = Frame(board)
        grid = GridConfig(60, 60, 30, 30)
        got = frame_evidence(f, grid, 1.0)[0]
        # frozen from oracle_blur(board, 1.0)[:30, :30].mean()
        assert got == pytest.approx(127.46557664062654, abs=1e-9)
        assert got == pytest.approx(127.5, abs=1.0)
        expected = oracle_blur(board, 1.0)[:30, :30].mean()
        assert got == pytest.approx(expected, abs=1e-9)

    def test_all_zero_frame(self):
        f = Frame(np.zeros((60, 60)))
        grid = GridConfig(60, 60, 30, 30)
        assert frame_evidence(f, grid, 1.0)[3] == 0.0

    def test_rgb_frame_rejected(self):
        f = Frame(np.zeros((60, 60, 3)))
        grid = GridConfig(60, 60, 30, 30)
        with pytest.raises(ValidationError):
            frame_evidence(f, grid, 1.0)

    def test_linear_in_brightness(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 255, (60, 60))
        grid = GridConfig(60, 60, 30, 30)
        for c in (0.25, 0.5, 0.9):
            a = frame_evidence(Frame(img), grid, 1.2)[1]
            b = frame_evidence(Frame(c * img), grid, 1.2)[1]
            assert b == pytest.approx(c * a, rel=1e-12)


class TestBoundingBox:
    def test_positive_size_required(self):
        with pytest.raises(ValidationError):
            BoundingBox(0, 0, 0, 10)


class TestTrackerConfig:
    def test_defaults(self):
        cfg = TrackerConfig()
        assert cfg.slide == 15 and cfg.pool == 5 and cfg.delta == 75.0
        assert cfg.stride == cfg.slide
        assert list(cfg.band_range) == [2, 3]

    @pytest.mark.parametrize("fps", [1.0, 7.5, 10.0, 29.97, 30.0])
    def test_band_bins_closed_form_matches_the_per_bin_test(self, fps):
        # band edges on bin frequencies are where rounding could move a bin in or out
        for slide in range(1, 501):
            for a, b in ((1, 2), (0, slide), (slide // 3, slide // 2), (slide - 1, slide + 1)):
                lo, hi = a * fps / slide, b * fps / slide
                loop = [k for k in range(1, slide) if lo - 1e-9 <= k * fps / slide <= hi + 1e-9]
                assert list(band_bin_range(slide, fps, (lo, hi))) == loop, (slide, a, b)

    def test_long_slide_validates_without_listing_bins(self):
        cfg = TrackerConfig.from_dict({"T": 10**8})  # 10**7 bins in the default band
        assert band_bin_range(cfg.slide, cfg.fps, cfg.band) == range(10**7, 2 * 10**7 + 1)

    def test_epsilon_bounds(self):
        with pytest.raises(ValidationError):
            TrackerConfig(epsilon=0.0)
        with pytest.raises(ValidationError):
            TrackerConfig(epsilon=0.5)

    def test_stride_bounds(self):
        with pytest.raises(ValidationError):
            TrackerConfig(stride=16)
        assert TrackerConfig(stride=1).stride == 1

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"delta": math.nan}, "delta"),
            ({"delta": math.inf}, "delta"),
            ({"gauss_sigma": math.nan}, "gauss_sigma"),
            ({"gauss_sigma": math.inf}, "gauss_sigma"),
            ({"band": (math.nan, 2.0)}, "band"),
            ({"band": (1.0, math.inf)}, "band"),
        ],
    )
    def test_non_finite_values_rejected(self, kwargs, field):
        with pytest.raises(ValidationError, match=field):
            TrackerConfig(**kwargs)

    def test_gauss_sigma_capped(self):
        assert TrackerConfig(gauss_sigma=GAUSS_SIGMA_MAX).gauss_sigma == GAUSS_SIGMA_MAX
        for sigma in (-1.0, math.nextafter(GAUSS_SIGMA_MAX, math.inf), 1e7):
            with pytest.raises(ValidationError, match="gauss_sigma"):
                TrackerConfig(gauss_sigma=sigma)

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

    def test_dict_roundtrip_with_odd_window(self):
        cfg = TrackerConfig(
            slide=20, pool=4, delta=50.5, epsilon=0.2, intensity_range=(150.0, 250.0),
            fps=12.0, band=(0.5, 2.5), stride=7, window_w=25, window_h=15, gauss_sigma=0.0,
        )
        raw = cfg.to_dict()
        assert raw["window"] == [25, 15] and raw["T"] == 20 and raw["R"] == [150.0, 250.0]
        assert TrackerConfig.from_dict(raw) == cfg

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

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"T": 15.7, "stride": 15.9}, "'T'"),
            ({"stride": 14.5}, "'stride'"),
            ({"window": [30.9, 20.2]}, "'window'"),
            ({"p": True}, "'p'"),
            ({"T": float("inf")}, "'T'"),
            ({"T": 10**400}, "'T'"),
        ],
    )
    def test_integer_keys_refuse_non_integers(self, raw, key):
        with pytest.raises(ValidationError, match=key):
            TrackerConfig.from_dict(raw)

    def test_integer_keys_accept_integral_numbers(self):
        cfg = TrackerConfig.from_dict({"T": 10.0, "p": 3, "stride": 5.0, "window": [30.0, 20]})
        assert (cfg.slide, cfg.pool, cfg.stride) == (10, 3, 5)
        assert (cfg.window_w, cfg.window_h) == (30, 20)
        assert all(type(v) is int for v in (cfg.slide, cfg.stride, cfg.window_w))

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
