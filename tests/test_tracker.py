import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverkit import kernels, synth, tracker
from diverkit.core import Frame, GridConfig, TrackerConfig, ValidationError, window_center
from diverkit.tracker import (
    HmmTables,
    OpCounters,
    StateError,
    band_score,
    dtft,
    evidence_loglik_vec,
    evidence_prior_vec,
    top_p_trajectories,
    track_sequence,
    transition_log_matrix,
    viterbi_update,
)

CFG = TrackerConfig()


from viterbi_oracle import check_pool_against_enumeration


def random_instance(rng, m, slide):
    side = int(math.isqrt(m))
    grid = GridConfig(side * 30, side * 30, 30, 30)
    assert grid.num_windows == m
    evidence = rng.uniform(0.0, 255.0, (slide, m))
    return grid, evidence


# ---------------------------------------------------------------------------
# evidence and transition models
# ---------------------------------------------------------------------------

# Scalar oracles: one window or one window pair at a time, written from the
# model's definition, for the vectorised functions of the tracker.


def range_distance(value, lo, hi):
    """Distance from ``value`` to the closed interval [lo, hi] (0 inside)."""
    if lo <= value <= hi:
        return 0.0
    return min(abs(value - lo), abs(value - hi))


def evidence_loglik(intensity, cfg):
    """Log emission probability: log(1-eps) inside the range, log(eps) outside."""
    lo, hi = cfg.intensity_range
    if lo <= intensity <= hi:
        return math.log(1.0 - cfg.epsilon)
    return math.log(cfg.epsilon)


def evidence_prior(intensity, cfg):
    """Unnormalized presence weight 1 / (1 + distance-to-range)."""
    lo, hi = cfg.intensity_range
    return 1.0 / (1.0 + range_distance(intensity, lo, hi))


def transition_raw_weight(i, j, grid):
    """Smoothed reciprocal of the window-center distance, before row normalization."""
    xi, yi = window_center(grid, i)
    xj, yj = window_center(grid, j)
    return 1.0 / (1.0 + math.hypot(xj - xi, yj - yi))


def transition_logweight(i, j, grid):
    """Log probability of moving from window i to window j."""
    total = sum(transition_raw_weight(i, k, grid) for k in range(grid.num_windows))
    return math.log(transition_raw_weight(i, j, grid) / total)


class TestEvidenceModels:
    def test_loglik_in_range(self):
        assert evidence_loglik(200.0, CFG) == pytest.approx(math.log(0.9))

    def test_loglik_out_of_range(self):
        assert evidence_loglik(100.0, CFG) == pytest.approx(math.log(0.1))

    def test_loglik_closed_boundary(self):
        assert evidence_loglik(180.0, CFG) == pytest.approx(math.log(0.9))
        assert evidence_loglik(255.0, CFG) == pytest.approx(math.log(0.9))

    def test_loglik_vec_matches_scalar(self):
        e = np.array([0.0, 100.0, 179.9, 180.0, 255.0])
        vec = evidence_loglik_vec(e, CFG)
        assert vec == pytest.approx([evidence_loglik(v, CFG) for v in e])

    def test_prior_inside_range(self):
        assert evidence_prior(200.0, CFG) == 1.0

    def test_prior_at_170(self):
        assert evidence_prior(170.0, CFG) == pytest.approx(1.0 / 11.0)

    def test_prior_at_0(self):
        assert evidence_prior(0.0, CFG) == pytest.approx(1.0 / 181.0)

    def test_prior_vec_matches_scalar(self):
        e = np.array([0.0, 170.0, 180.0, 240.0, 255.0])
        vec = evidence_prior_vec(e, CFG)
        assert vec == pytest.approx([evidence_prior(v, CFG) for v in e])


def scipy_evidence(pixels, grid, sigma):
    """Independent reference: scipy blur, then row-major window means."""
    from scipy.ndimage import gaussian_filter

    blurred = gaussian_filter(pixels, sigma, truncate=3.0, mode="reflect")
    crop = blurred[: grid.rows * grid.window_h, : grid.cols * grid.window_w]
    windows = crop.reshape(grid.rows, grid.window_h, grid.cols, grid.window_w)
    return windows.mean(axis=(1, 3)).ravel()


class TestFrameEvidence:
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 3.3])
    def test_matches_scipy_on_grids_with_margins(self, sigma):
        rng = np.random.default_rng(int(sigma * 10))
        for _ in range(6):
            h, w = (int(v) for v in rng.integers(25, 130, 2))
            win_h, win_w = (int(v) for v in rng.integers(4, 25, 2))
            grid = GridConfig(w, h, win_w, win_h)
            pixels = rng.uniform(0.0, 255.0, (h, w))
            got = tracker.Tracker(
                TrackerConfig(window_w=win_w, window_h=win_h, gauss_sigma=sigma, pool=1),
                w,
                h,
            ).evidence(Frame(pixels))
            assert got.shape == (grid.num_windows,)
            np.testing.assert_allclose(
                got, scipy_evidence(pixels, grid, sigma), rtol=0, atol=1e-9
            )

    def test_radius_larger_than_frame_reflects_like_scipy(self):
        rng = np.random.default_rng(11)
        grid = GridConfig(17, 13, 5, 4)  # sigma 7 reaches 21 px past each edge
        pixels = rng.uniform(0.0, 255.0, (13, 17))
        got = tracker.frame_evidence(Frame(pixels), grid, 7.0)
        np.testing.assert_allclose(got, scipy_evidence(pixels, grid, 7.0), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 3.3])
    def test_saturated_windows_count_inside_range(self, sigma):
        # unclipped, sigma 2 sums a constant 255 frame to 255 + 6e-14
        grid = GridConfig(97, 71, 30, 30)
        evidence = tracker.frame_evidence(Frame(np.full((71, 97), 255.0)), grid, sigma)
        assert (evidence_loglik_vec(evidence, CFG) == math.log(1.0 - CFG.epsilon)).all()

    def test_frame_must_match_the_grid(self):
        with pytest.raises(ValidationError):
            tracker.frame_evidence(Frame(np.zeros((61, 60))), GridConfig(60, 60), 1.0)

    def test_projections_cached_and_read_only(self):
        grid = GridConfig(90, 60, 30, 20)
        rows_proj, cols_proj = tracker.evidence_projections(grid, 1.0)
        assert tracker.evidence_projections(GridConfig(90, 60, 30, 20), 1.0)[0] is rows_proj
        assert rows_proj.shape == (3, 60) and cols_proj.shape == (3, 90)
        with pytest.raises(ValueError):
            rows_proj[0, 0] = 1.0

    def test_track_sequence_never_blurs(self, monkeypatch):
        def no_blur(*args, **kwargs):
            raise AssertionError("the tracker path must not call gaussian_blur")

        monkeypatch.setattr(kernels, "gaussian_blur", no_blur)
        frames, _ = synth.render_diver_sequence(
            synth.DiverSceneSpec(frames=30, width=90, height=90, start=(45.0, 45.0))
        )
        assert len(track_sequence(frames, CFG)) == 2


class TestTransitions:
    def test_self_raw_weight_is_one(self):
        grid = GridConfig(90, 90)
        assert transition_raw_weight(4, 4, grid) == 1.0

    def test_adjacent_raw_weight(self):
        grid = GridConfig(90, 90)
        assert transition_raw_weight(0, 1, grid) == pytest.approx(1.0 / 31.0)

    def test_center_self_transition_3x3(self):
        grid = GridConfig(90, 90)
        # brute-force normalization over all 9 destinations from the center
        raw = [transition_raw_weight(4, j, grid) for j in range(9)]
        expected = raw[4] / sum(raw)
        assert expected == pytest.approx(0.8189055066213283, abs=1e-12)
        got = transition_logweight(4, 4, grid)
        assert math.exp(got) == pytest.approx(expected, abs=1e-12)

    def test_rows_sum_to_one(self):
        grid = GridConfig(100, 70)
        probs = np.exp(transition_log_matrix(grid))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_matrix_is_fortran_ordered_and_read_only(self):
        mat = transition_log_matrix(GridConfig(90, 60))
        assert mat.flags.f_contiguous and not mat.flags.c_contiguous
        with pytest.raises(ValueError):
            mat[0, 1] = 0.0

    def test_matrix_matches_pairwise(self):
        grid = GridConfig(60, 60)
        mat = transition_log_matrix(grid)
        for i in range(4):
            for j in range(4):
                assert mat[i, j] == pytest.approx(transition_logweight(i, j, grid))


# ---------------------------------------------------------------------------
# Viterbi table
# ---------------------------------------------------------------------------


class TestViterbi:
    def test_degenerate_single_window_accumulates_liks(self):
        grid = GridConfig(30, 30)
        cfg = TrackerConfig(slide=6, pool=1, band=(3.0, 7.0))
        log_trans = transition_log_matrix(grid)
        evidence = np.array([[200.0], [100.0], [200.0], [90.0], [181.0], [10.0]])
        tables = HmmTables.fresh(1, 6)
        for t in range(6):
            viterbi_update(tables, evidence[t], cfg, log_trans)
        expected = sum(evidence_loglik(v, cfg) for v in evidence[:, 0])
        assert tables.log_mu[0] == pytest.approx(expected, abs=1e-12)

    def test_counter_counts_m_squared_per_update(self):
        grid = GridConfig(90, 90)
        cfg = TrackerConfig(slide=3, pool=1, band=(3.0, 7.0))
        counters = OpCounters()
        tables = HmmTables.fresh(9, 3)
        viterbi_update(tables, np.full(9, 200.0), cfg, transition_log_matrix(grid), counters)
        assert counters.transition_evals == 81

    def test_update_beyond_slide_raises(self):
        grid = GridConfig(30, 30)
        cfg = TrackerConfig(slide=2, pool=1, band=(4.0, 6.0))
        log_trans = transition_log_matrix(grid)
        tables = HmmTables.fresh(1, 2)
        e = np.array([200.0])
        viterbi_update(tables, e, cfg, log_trans)
        viterbi_update(tables, e, cfg, log_trans)
        with pytest.raises(StateError):
            viterbi_update(tables, e, cfg, log_trans)

    def test_matches_enumeration_m4_t3(self):
        rng = np.random.default_rng(42)
        cfg = TrackerConfig(slide=3, pool=4, band=(3.0, 7.0))
        grid, evidence = random_instance(rng, 4, 3)
        log_trans = transition_log_matrix(grid)
        tables = HmmTables.fresh(4, 3)
        for t in range(3):
            viterbi_update(tables, evidence[t], cfg, log_trans)
        got = top_p_trajectories(tables, 4)  # checked against all 64 paths
        assert len(got) == 4
        check_pool_against_enumeration(got, evidence, cfg, log_trans, tables)

    def test_matches_enumeration_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            m = int(rng.choice([4, 9]))
            slide = int(rng.integers(3, 6))
            pool = int(rng.integers(1, m + 1))
            cfg = TrackerConfig(slide=slide, pool=pool, band=(3.0, 7.0))
            grid, evidence = random_instance(rng, m, slide)
            log_trans = transition_log_matrix(grid)
            tables = HmmTables.fresh(m, slide)
            for t in range(slide):
                viterbi_update(tables, evidence[t], cfg, log_trans)
            got = top_p_trajectories(tables, pool)
            assert len(got) == min(pool, m)
            check_pool_against_enumeration(got, evidence, cfg, log_trans, tables)

    def test_extraction_before_slide_frames_raises(self):
        tables = HmmTables.fresh(4, 3)
        with pytest.raises(StateError):
            top_p_trajectories(tables, 2)

    def test_full_pool_sorted(self):
        rng = np.random.default_rng(3)
        cfg = TrackerConfig(slide=4, pool=9, band=(3.0, 7.0))
        grid, evidence = random_instance(rng, 9, 4)
        log_trans = transition_log_matrix(grid)
        tables = HmmTables.fresh(9, 4)
        for t in range(4):
            viterbi_update(tables, evidence[t], cfg, log_trans)
        got = top_p_trajectories(tables, 9)
        assert len(got) == 9
        scores = [s for _, s in got]
        assert scores == sorted(scores, reverse=True)

    def test_constant_evidence_orders_by_window_index(self):
        # all-equal intensities: every stay-put path ties, order falls back to
        # the terminal window index
        cfg = TrackerConfig(slide=3, pool=4, band=(3.0, 7.0))
        grid = GridConfig(60, 60)
        log_trans = transition_log_matrix(grid)
        evidence = np.full((3, 4), 200.0)
        tables = HmmTables.fresh(4, 3)
        for t in range(3):
            viterbi_update(tables, evidence[t], cfg, log_trans)
        got = top_p_trajectories(tables, 4)
        # 2x2 grid is symmetric: scores tie pairwise, ordering is by index
        terminals = [int(t[-1]) for t, _ in got]
        assert terminals == sorted(terminals)


# ---------------------------------------------------------------------------
# frequency side
# ---------------------------------------------------------------------------


def brute_force_dft(x):
    n = len(x)
    return np.array(
        [
            sum(x[t] * np.exp(-2j * np.pi * t * k / n) for t in range(n))
            for k in range(n)
        ]
    )


class TestDtft:
    def test_constant_series_is_dc_only(self):
        x = np.full(15, 7.0)
        spec = dtft(x)
        assert abs(spec[0]) == pytest.approx(15 * 7.0, abs=1e-9)
        assert np.abs(spec[1:]).max() < 1e-9

    def test_integer_bin_cosine_amplitude(self):
        t = np.arange(15)
        x = 20.0 * np.cos(2 * np.pi * 2.0 * t / 10.0)  # 2 Hz at 10 fps = bin 3
        spec = dtft(x)
        assert abs(spec[3]) == pytest.approx(150.0, abs=1e-6)  # A*T/2
        assert np.allclose(spec, brute_force_dft(x), atol=1e-9)

    def test_x0_equals_series_sum(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 255, 15)
        spec = dtft(x)
        assert spec[0].real == pytest.approx(x.sum(), rel=1e-9)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 255, 15)
        spec = dtft(x)
        for k in range(1, 15):
            assert abs(spec[k]) == pytest.approx(abs(spec[15 - k]), rel=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(0, 255, 15)
            spec = dtft(x)
            lhs = (x**2).sum()
            rhs = (np.abs(spec) ** 2).sum() / 15.0
            assert rhs == pytest.approx(lhs, rel=1e-6)

    def test_counter_counts_t_squared(self):
        counters = OpCounters()
        dtft(np.zeros(15), counters)
        assert counters.dft_mults == 225


class TestBandScore:
    def test_cosine_scores_full_amplitude(self):
        t = np.arange(15)
        x = 20.0 * np.cos(2 * np.pi * 2.0 * t / 10.0)
        assert band_score(dtft(x), CFG) == pytest.approx(150.0, abs=1e-6)

    def test_constant_scores_zero(self):
        assert band_score(dtft(np.full(15, 200.0)), CFG) == pytest.approx(0.0, abs=1e-9)

    def test_slow_drift_scores_below_threshold(self):
        t = np.arange(15)
        x = 200.0 + 40.0 * np.sin(2 * np.pi * 0.3 * t / 10.0)
        spec = brute_force_dft(x)
        oracle = max(abs(spec[2]), abs(spec[3]))  # in-band bins for T=15 @ 10 fps
        assert oracle < CFG.delta
        assert band_score(dtft(x), CFG) == pytest.approx(oracle, abs=1e-9)


# ---------------------------------------------------------------------------
# detection cycles
# ---------------------------------------------------------------------------


def render(spec):
    return synth.render_diver_sequence(spec)


class TestDetectionCycle:
    def test_oscillating_blob_fixed_window(self):
        # blob parked in the center window of a 3x3 grid; cycle 1 of this
        # scene locks onto it for all fifteen frames
        spec = synth.DiverSceneSpec(
            frames=60,
            fps=10.0,
            width=90,
            height=90,
            background=60.0,
            noise_sigma=2.0,
            flipper=synth.Flipper(radius=15, intensity=215.0, amplitude=40.0, frequency=1.5),
            path=synth.PathSpec("static"),
            start=(45.0, 45.0),
            seed=5,
        )
        frames, truth = render(spec)
        results = track_sequence(frames, CFG)
        assert all(r.detected and r.score >= CFG.delta for r in results)
        assert (results[1].trajectory == 4).all()
        assert results[1].bbox.cx == 45.0 and results[1].bbox.cy == 45.0

    def test_static_in_range_scene_not_detected(self):
        # bright enough to sit inside the intensity range but not oscillating
        spec = synth.DiverSceneSpec(
            frames=15,
            fps=10.0,
            width=90,
            height=90,
            background=200.0,
            noise_sigma=2.0,
            flipper=synth.Flipper(radius=15, intensity=220.0, amplitude=0.0, frequency=1.5),
            path=synth.PathSpec("static"),
            start=(45.0, 45.0),
            seed=5,
        )
        frames, _ = render(spec)
        result = track_sequence(frames, CFG)[0]
        assert not result.detected
        assert result.score < CFG.delta

    def test_drifting_blob_terminal_matches_truth(self):
        # one window right every five frames; terminal window equals truth
        spec = synth.DiverSceneSpec(
            frames=15,
            fps=10.0,
            width=320,
            height=240,
            background=171.0,
            noise_sigma=2.0,
            flipper=synth.Flipper(radius=16, intensity=215.0, amplitude=40.0, frequency=1.0),
            path=synth.PathSpec("sideways", vx=6.0),
            start=(51.0, 135.0),
            seed=9,
        )
        frames, truth = render(spec)
        result = track_sequence(frames, CFG)[0]
        assert result.detected
        assert result.terminal_window == truth.windows[-1]

    def test_wrong_frame_count_rejected(self):
        frames, _ = render(
            synth.DiverSceneSpec(frames=10, width=90, height=90, start=(45.0, 45.0))
        )
        trk = tracker.Tracker(CFG, 90, 90)
        with pytest.raises(ValidationError):
            trk.detect(np.stack([trk.evidence(f) for f in frames]))

    def test_band_score_tie_goes_to_lower_terminal_window(self):
        # a 90x30 frame holds three 30x30 windows in a row; windows 1 and 2
        # carry the same series, and the edge window 2 leads the pool
        cfg = TrackerConfig(slide=10, pool=2)
        t = np.arange(cfg.slide)
        wave = 215.0 + 30.0 * np.sin(2 * np.pi * 1.5 * t / cfg.fps)
        evidence = np.column_stack([np.full(cfg.slide, 50.0), wave, wave])
        result = tracker.Tracker(cfg, 90, 30).detect(evidence)
        (first, first_score), (second, second_score) = result.pool_scores
        assert (first, second) == (2, 1)
        assert first_score == second_score == result.score
        assert result.terminal_window == 1
        assert (result.trajectory == 1).all()

    def test_detected_iff_score_at_least_delta(self):
        rng = np.random.default_rng(0)
        cfg = TrackerConfig(slide=5, pool=4, band=(3.0, 7.0))
        evidence = rng.uniform(0, 255, (5, 4))
        result = tracker.Tracker(cfg, 60, 60).detect(evidence)
        assert result.detected == (result.score >= cfg.delta)

    def test_raising_delta_never_adds_detections(self):
        spec = synth.DiverSceneSpec(
            frames=60, width=90, height=90, noise_sigma=3.0, start=(45.0, 45.0), seed=2
        )
        frames, _ = render(spec)
        low = track_sequence(frames, TrackerConfig(delta=40.0))
        high = track_sequence(frames, TrackerConfig(delta=120.0))
        for lo, hi in zip(low, high):
            assert lo.score == pytest.approx(hi.score)
            if hi.detected:
                assert lo.detected


class TestTrackSequence:
    def _frames(self, count):
        spec = synth.DiverSceneSpec(
            frames=count, width=90, height=90, noise_sigma=0.0, start=(45.0, 45.0)
        )
        return render(spec)[0]

    def test_cycle_count_stride_equals_slide(self):
        results = track_sequence(self._frames(300), TrackerConfig())
        assert len(results) == 20
        assert [r.cycle_index for r in results] == list(range(20))

    def test_cycle_count_stride_5(self):
        results = track_sequence(self._frames(300), TrackerConfig(stride=5))
        assert len(results) == 58  # (300 - 15) / 5 + 1

    def test_short_sequence_rejected(self):
        with pytest.raises(ValidationError):
            track_sequence(self._frames(10), TrackerConfig())
        with pytest.raises(ValidationError, match="shorter than the slide size"):
            track_sequence(iter(self._frames(10)), TrackerConfig())

    def test_empty_iterable_rejected(self):
        with pytest.raises(ValidationError):
            track_sequence([], TrackerConfig())
        with pytest.raises(ValidationError):
            track_sequence(iter(()), TrackerConfig())

    @pytest.mark.parametrize("stride", [15, 1])
    def test_generator_gives_the_list_records(self, stride):
        spec = synth.DiverSceneSpec(
            frames=50, width=90, height=90, noise_sigma=4.0, start=(45.0, 45.0), seed=9
        )
        frames, _ = render(spec)
        cfg = TrackerConfig(stride=stride)
        consumed = []

        def stream():
            for frame in frames:
                consumed.append(frame.index)
                yield frame

        from_list = track_sequence(frames, cfg)
        from_stream = track_sequence(stream(), cfg)
        assert consumed == list(range(50))
        assert len(from_stream) == (50 - 15) // stride + 1
        assert [r.to_record() for r in from_stream] == [r.to_record() for r in from_list]
        for a, b in zip(from_stream, from_list):
            assert (a.trajectory == b.trajectory).all() and a.pool_scores == b.pool_scores

    def test_deterministic_across_runs(self):
        spec = synth.DiverSceneSpec(
            frames=45, width=90, height=90, noise_sigma=4.0, start=(45.0, 45.0), seed=3
        )
        frames, _ = render(spec)
        a = track_sequence(frames, CFG)
        b = track_sequence(frames, CFG)
        recs_a = [json.dumps(r.to_record(), sort_keys=True) for r in a]
        recs_b = [json.dumps(r.to_record(), sort_keys=True) for r in b]
        assert recs_a == recs_b

    def test_cycle_counter_totals(self):
        counters = OpCounters()
        frames = self._frames(45)
        results = track_sequence(frames, CFG, counters=counters)
        m = 9
        assert counters.transition_evals == len(results) * CFG.slide * m * m
        assert counters.dft_mults == len(results) * CFG.pool * CFG.slide**2


@st.composite
def viterbi_instances(draw):
    """A random grid of at most 9 windows, not necessarily square, with a model and evidence."""
    cols = draw(st.integers(1, 9))
    rows = draw(st.integers(1, 9 // cols))
    win_w, win_h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    grid = GridConfig(
        cols * win_w + draw(st.integers(0, win_w - 1)),
        rows * win_h + draw(st.integers(0, win_h - 1)),
        win_w,
        win_h,
    )
    m, slide = grid.num_windows, draw(st.integers(2, 5))
    lo = draw(st.floats(0.0, 255.0))
    cfg = TrackerConfig(
        slide=slide,
        pool=draw(st.integers(1, m)),
        epsilon=draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
        intensity_range=(lo, draw(st.floats(lo, 255.0))),
        band=(1.0, 9.0),
    )
    # whole intensities and the range ends make ties likely
    whole = st.integers(0, 255).map(float)
    value = st.floats(0.0, 255.0) | whole | st.sampled_from(cfg.intensity_range)
    evidence = draw(st.lists(value, min_size=slide * m, max_size=slide * m))
    return grid, cfg, np.array(evidence).reshape(slide, m)


@settings(max_examples=100, deadline=None)
@given(viterbi_instances())
def test_pool_matches_enumeration_on_random_grids(instance):
    grid, cfg, evidence = instance
    log_trans = transition_log_matrix(grid)
    tables = HmmTables.fresh(grid.num_windows, cfg.slide)
    for row in evidence:
        viterbi_update(tables, row, cfg, log_trans)
    got = top_p_trajectories(tables, cfg.pool)
    assert len(got) == cfg.pool
    check_pool_against_enumeration(got, evidence, cfg, log_trans, tables)
