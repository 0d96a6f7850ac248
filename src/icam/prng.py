"""Deterministic pseudo-random number generation.

SplitMix64 core with Box-Muller Gaussians. The exact bit-level recipe is
frozen so that fixture weights and perturbation streams are reproducible
across platforms and implementations.

SplitMix64 is counter-based: draw k (k = 1, 2, ...) of a stream seeded
with s is mix(s + k * GAMMA mod 2**64). The block methods
`uniform_array` and `gaussian_array` use that identity to compute many
draws with a few numpy uint64 operations, and return exactly the values
(bit for bit) that the recipe below gives when drawn one at a time,
leaving the stream in the same state. The logarithm in Box-Muller stays
scalar (`math.log` per value): numpy's vectorized log may differ from the
C library's by one ulp, while numpy's float64 sqrt, cos, sin, subtraction
and multiplication match the scalar path. The one-at-a-time reference the
block methods are tested against is `ScalarSplitMix64` in
`tests/oracles.py`.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO_PI = 2.0 * math.pi


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 output function on a uint64 array (wraps mod 2**64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """SplitMix64 stream with uniform and Gaussian draws.

    uniform: (next_u64() >> 11) * 2**-53, in [0, 1).
    Gaussian: Box-Muller on pairs u1 in (0, 1], u2 in [0, 1); the pair
    yields z0 = sqrt(-2 ln u1) cos(2 pi u2) then z1 = the sin twin,
    consumed in that order (z1 is cached for the next draw).
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return int(_mix(np.array([self._state], dtype=np.uint64))[0])

    def uniform_array(self, k: int) -> np.ndarray:
        """The next k uniform draws as a float64 array."""
        steps = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z = _mix(steps + np.uint64(self._state))
        self._state = (self._state + k * _GAMMA) & _MASK64
        return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def gaussian_array(self, k: int) -> np.ndarray:
        """The next k Gaussian draws as a float64 array.

        A cached sin twin is returned first; when an odd number of values
        remains after it, the last pair's sin twin is cached in turn.
        """
        out = np.empty(k)
        start = 0
        if k and self._spare is not None:
            out[0] = self._spare
            self._spare = None
            start = 1
        pairs = (k - start + 1) // 2
        if pairs:
            u = self.uniform_array(2 * pairs)
            u1 = 1.0 - u[0::2]
            logs = np.fromiter(map(math.log, u1.tolist()), np.float64, pairs)
            r = np.sqrt(-2.0 * logs)
            theta = _TWO_PI * u[1::2]
            z = np.empty(2 * pairs)
            z[0::2] = r * np.cos(theta)
            z[1::2] = r * np.sin(theta)
            out[start:] = z[:k - start]
            if (k - start) % 2:
                self._spare = float(z[-1])
        return out
