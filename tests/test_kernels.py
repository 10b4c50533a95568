"""The numpy kernels against independent references."""

import numpy as np
import pytest

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


def test_dft_matches_numpy_fft():
    rng = np.random.default_rng(6)
    x = rng.normal(size=21)
    spec, _ = kernels.dft_direct(x)
    assert np.allclose(spec, np.fft.fft(x), atol=1e-9)


def test_dft_rejects_empty():
    with pytest.raises(ValueError):
        kernels.dft_direct(np.array([]))
