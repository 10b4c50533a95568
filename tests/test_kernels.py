"""The numpy kernels against independent references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diverkit import kernels


def test_active_backend_is_valid():
    assert kernels.active_backend() == "numpy"


def test_blur_preserves_constants():
    img = np.full((20, 20), 123.0)
    out = kernels.gaussian_blur(img, 1.5)
    assert np.allclose(out, 123.0, atol=1e-9)


def test_blur_sigma_zero_is_identity():
    rng = np.random.default_rng(4)
    img = rng.uniform(0, 255, (10, 10))
    assert (kernels.gaussian_blur(img, 0.0) == img).all()


def test_blur_matches_scipy():
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(5)
    img = rng.uniform(0, 255, (31, 44))
    mine = kernels.gaussian_blur(img, 1.0)
    ref = gaussian_filter(img, 1.0, truncate=3.0, mode="reflect")
    assert np.allclose(mine, ref, atol=1e-9)


def test_blur_matrices_reproduce_the_blur():
    rng = np.random.default_rng(6)
    img = rng.uniform(0, 255, (23, 41))
    for sigma in (0.0, 1.0, 9.0):
        rows = kernels.blur_matrix(23, sigma)
        cols = kernels.blur_matrix(41, sigma)
        mine = kernels.gaussian_blur(img, sigma)
        assert np.allclose(rows @ img @ cols.T, mine, atol=1e-9)


@pytest.mark.parametrize(
    "sigma", [0.0, 1e-300, 1e-16, 1e-15, 0.3, 0.5, 1.0, 1.5, 2.5, 7.0, 9.0]
)
def test_blur_matrix_is_scipys_filter_of_the_identity_bit_for_bit(sigma):
    # scipy stays the oracle; the radii of 7 and 9 reach past small n
    from scipy.ndimage import gaussian_filter

    for n in [*range(1, 65), 240, 320, 480]:
        want = gaussian_filter(np.eye(n), (sigma, 0.0), mode="reflect", truncate=3.0)
        assert np.array_equal(kernels.blur_matrix(n, sigma), want), n


def scipy_blur(img, sigma):
    """Oracle: the filter ``gaussian_blur`` must equal bit for bit."""
    from scipy.ndimage import gaussian_filter

    return gaussian_filter(img, sigma, output=np.float64, mode="reflect", truncate=3.0)


ORACLE_SIGMAS = [0.0, 0.5, 1.0, 2.5, 7.0]


@pytest.fixture(scope="module")
def study_frames():
    from test_gesture import noisy_study_frames

    return noisy_study_frames(seed=5)[::26]


@pytest.mark.parametrize("sigma", ORACLE_SIGMAS)
def test_blur_is_scipys_filter_bit_for_bit_on_the_noisy_study_scene(sigma, study_frames):
    # every 26th frame's uint8 channel planes: strided views of the RGB array, their
    # contiguous copies, and a strided crop like the ones segment_skin blurs
    for frame in study_frames:
        for c in range(3):
            plane = frame.pixels[:, :, c]
            for img in (plane, np.ascontiguousarray(plane), plane[37:151, 61:250]):
                assert np.array_equal(kernels.gaussian_blur(img, sigma), scipy_blur(img, sigma))


@pytest.mark.parametrize("sigma", ORACLE_SIGMAS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int16, np.uint8])
def test_blur_is_scipys_filter_bit_for_bit_on_any_real_dtype(sigma, dtype):
    rng = np.random.default_rng(8)
    img = rng.uniform(0.0, 255.0, (37, 53)).astype(dtype)
    for view in (img, img[::2, ::-3], img.T):
        assert np.array_equal(kernels.gaussian_blur(view, sigma), scipy_blur(view, sigma))


@pytest.mark.parametrize("sigma", ORACLE_SIGMAS)
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 5), (7, 2), (2, 21)])
def test_blur_of_frames_smaller_than_the_tap_radius_is_scipys(sigma, shape):
    # a radius of 21 taps (sigma 7) reflects repeatedly across a 1- or 2-pixel axis
    rng = np.random.default_rng(9)
    for img in (rng.integers(0, 256, shape, dtype=np.uint8), rng.normal(size=shape)):
        assert np.array_equal(kernels.gaussian_blur(img, sigma), scipy_blur(img, sigma))


def test_blur_rejects_an_empty_or_non_2d_array():
    for img in (np.zeros((0, 4)), np.zeros(5), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError, match="2-D"):
            kernels.gaussian_blur(img, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24), st.just(3))),
    st.integers(0, 2),
    st.sampled_from([0.0, 0.5, 1.0, 2.5]),
)
def test_blur_of_uint8_equals_blur_of_float_copy(rgb, channel, sigma):
    # an RGB frame's channel planes are uint8 and strided
    for plane in (rgb[:, :, channel], np.ascontiguousarray(rgb[:, :, channel])):
        got = kernels.gaussian_blur(plane, sigma)
        assert got.dtype == np.float64
        assert np.array_equal(got, kernels.gaussian_blur(plane.astype(np.float64), sigma))


@pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf, -np.inf])
def test_blur_rejects_negative_or_non_finite_sigma(sigma):
    # scipy alone would read -1 and NaN as "no blur" and overflow on inf
    with pytest.raises(ValueError, match="sigma"):
        kernels.gaussian_blur(np.zeros((4, 4)), sigma)
    with pytest.raises(ValueError, match="sigma"):
        kernels.blur_matrix(4, sigma)


def test_viterbi_tie_breaks_to_lowest_index():
    mu = np.zeros(3)
    trans = np.zeros((3, 3))
    lik = np.zeros(3)
    _, bp, _ = kernels.viterbi_step(mu, trans, lik)
    assert (bp == 0).all()


# values on a 0.5 grid, so equal sums and argmax ties are common
halves = st.integers(-8, 8).map(lambda k: k / 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda m: st.tuples(*(hnp.arrays(np.float64, shape, elements=halves)
                          for shape in ((m,), (m, m), (m,))))
))
def test_viterbi_step_same_on_c_and_fortran_order(tables):
    mu, trans, lik = tables
    c_mu, c_bp, c_pairs = kernels.viterbi_step(mu, np.ascontiguousarray(trans), lik)
    f_mu, f_bp, f_pairs = kernels.viterbi_step(mu, np.asfortranarray(trans), lik)
    assert np.array_equal(c_mu, f_mu) and np.array_equal(c_bp, f_bp)
    assert c_pairs == f_pairs == mu.size**2


def test_twiddle_cached_and_read_only():
    twiddle = kernels.dft_twiddle(15)
    assert kernels.dft_twiddle(15) is twiddle
    with pytest.raises(ValueError):
        twiddle[1, 1] = 0.0


def test_dft_matches_numpy_fft():
    # the cached twiddle gives the freshly built product bit for bit, for every
    # length in one process; 21 comes twice, the second time from the cache
    rng = np.random.default_rng(6)
    for size in (21, 1, 2, 5, 15, 16, 21):
        x = rng.normal(size=size)
        t = np.arange(size)
        fresh = np.exp(-2j * np.pi * np.outer(t, t) / size)
        spec, mults = kernels.dft_direct(x)
        assert np.array_equal(spec, fresh @ x.astype(np.complex128))
        assert np.allclose(spec, np.fft.fft(x), atol=1e-9)
        assert mults == size * size


def test_dft_rejects_empty():
    with pytest.raises(ValueError):
        kernels.dft_direct(np.array([]))
