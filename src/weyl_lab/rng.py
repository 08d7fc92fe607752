"""Counter-based Gaussian generator.

Each variate is a pure function of (seed, sample_index, mode_index) via
SplitMix64-style mixing and Box-Muller, so the draw is independent of
evaluation order and any parallel schedule; a wave still depends on which
mode holds which index (the spectral window's order on a torus).
"""

from __future__ import annotations

import numpy as np

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SAMPLE_STRIDE = np.uint64(0xD1342543DE82EF95)
_MODE_STRIDE = np.uint64(0xAF251AF3B0F025B5)
_SALT = np.uint64(0x94D049BB133111EB)

_INV53 = float(2.0**-53)


def _finalize(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of z + golden; a uint64 array is updated in place
    (one temporary of its size), a scalar is rebound."""
    z += _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _keys(seed: int, sample_indices, n_modes: int):
    samples = np.asarray(sample_indices, dtype=np.uint64).reshape(-1, 1)
    modes = np.arange(n_modes, dtype=np.uint64).reshape(1, -1)
    with np.errstate(over="ignore"):
        base = _finalize(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
        key = _finalize(base ^ (samples * _SAMPLE_STRIDE))
        key = _finalize(key ^ (modes * _MODE_STRIDE))
        salted = _finalize(key ^ _SALT)   # before key is finalized in place
        return _finalize(key), salted


# draws made at once: Box-Muller's temporaries then hold about three blocks
# of this many values rather than three results
BLOCK_VALUES = 2**17


def gaussian_matrix(seed: int, sample_indices, n_modes: int) -> np.ndarray:
    """Standard-normal draws of shape (len(sample_indices), n_modes).

    Box-Muller sqrt(-2 log u1) cos(2 pi u2), evaluated in place on blocks
    of rows, so the peak holds the result plus about three blocks of
    BLOCK_VALUES values.  Every draw is a pure function of its (seed,
    sample, mode), so the blocking changes no bit."""
    samples = np.asarray(sample_indices).reshape(-1)
    out = np.empty((samples.size, n_modes))
    rows = max(1, BLOCK_VALUES // max(n_modes, 1))
    for start in range(0, samples.size, rows):
        out[start:start + rows] = _box_muller(seed, samples[start:start + rows], n_modes)
    return out


def _box_muller(seed: int, sample_indices, n_modes: int) -> np.ndarray:
    h1, h2 = _keys(seed, sample_indices, n_modes)
    h1 >>= np.uint64(11)
    h1 += np.uint64(1)
    radius = h1.astype(float)     # u1 in (0, 1]
    del h1
    radius *= _INV53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    h2 >>= np.uint64(11)
    angle = h2.astype(float)      # u2 in [0, 1)
    del h2
    angle *= _INV53
    angle *= 2.0 * np.pi
    np.cos(angle, out=angle)
    radius *= angle
    return radius


def uniform_matrix(seed: int, sample_indices, n_modes: int) -> np.ndarray:
    """Uniform [0, 1) draws with the same counter-based keying."""
    h1, _ = _keys(seed, sample_indices, n_modes)
    return (h1 >> np.uint64(11)).astype(float) * _INV53
