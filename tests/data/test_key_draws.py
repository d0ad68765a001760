"""The key draw: the C guide-table walk against ``np.searchsorted``.

:meth:`KeySampler.sample` maps its uniforms to ranks with a guide-table
walk in C (``guide_build``/``guide_draw`` in :mod:`repro.engine.ckernels`)
when the kernels are built, and with ``np.searchsorted`` otherwise.  On a
nondecreasing CDF the walk must return exactly ``searchsorted(cdf, u,
side="right")`` whatever the guide holds, so these tests feed the draw its
uniforms directly — every CDF value and both of its float neighbours,
plus random ones — and hold the result to byte equality.

The CDF the sampler builds must itself be nondecreasing, including for
pmfs whose cumsum overshoots 1.0 before its last entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.distributions import DriftingSampler, KeySampler, zipf_probabilities
from repro.engine import ckernels

needs_c = pytest.mark.skipif(
    not ckernels.available(), reason="C kernels unavailable (no cffi/cc)"
)


class _FixedUniforms:
    """A generator stand-in whose ``random(n)`` returns given uniforms."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u

    def random(self, n: int) -> np.ndarray:
        assert n == self.u.shape[0]
        return self.u.copy()


def _edges(cdf: np.ndarray) -> np.ndarray:
    """Every CDF value and both of its float neighbours."""
    return np.concatenate([
        cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf),
    ])


def _c_ranks(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The C walk in rank mode, on a fresh guide."""
    ffi, lib = ckernels.ffi, ckernels.lib
    n = cdf.shape[0]
    guide = np.empty(n, dtype=np.int32)
    out = np.empty(u.shape[0], dtype=np.int64)
    c_cdf = ffi.from_buffer("double[]", cdf)
    c_guide = ffi.from_buffer("int32_t[]", guide)
    lib.guide_build(c_cdf, n, c_guide)
    lib.guide_draw(c_cdf, n, c_guide, ffi.from_buffer("double[]", u),
                   u.shape[0], ffi.NULL, ffi.from_buffer("int64_t[]", out))
    return out


def _pmf_with_zeros(draw) -> np.ndarray:
    weights = draw(st.lists(
        st.one_of(st.just(0.0), st.just(1e-300),
                  st.floats(min_value=1e-12, max_value=1.0)),
        min_size=1, max_size=60,
    ))
    if not any(w > 0 for w in weights):
        weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    return np.asarray(weights)


@st.composite
def pmfs(draw) -> np.ndarray:
    kind = draw(st.sampled_from(["zeros", "hot", "zipf", "one", "tiny-tail"]))
    if kind == "zeros":
        return _pmf_with_zeros(draw)
    if kind == "hot":
        n = draw(st.integers(1, 200))
        p = np.zeros(n)
        p[draw(st.integers(0, n - 1))] = 1.0
        return p
    if kind == "zipf":
        n = draw(st.integers(1, 5_000))
        return zipf_probabilities(n, draw(st.floats(0.0, 4.0)))
    if kind == "one":
        return np.ones(1)
    # a Zipf head with a zero or denormal tail: cumsums that reach 1.0
    # (or overshoot it) long before the last key
    head = zipf_probabilities(draw(st.integers(1, 50)), 3.0)
    tail = np.full(draw(st.integers(1, 50)), draw(st.sampled_from([0.0, 5e-324])))
    return np.concatenate([head, tail])


def _draw(sampler: KeySampler, u: np.ndarray) -> np.ndarray:
    return sampler.sample(u.shape[0], _FixedUniforms(u))


def _reference(sampler: KeySampler, u: np.ndarray) -> np.ndarray:
    return sampler._ids[np.searchsorted(sampler._cdf, u, side="right")]


class TestCdf:
    def test_overshooting_zipf_cdf_is_nondecreasing(self):
        p = zipf_probabilities(100_000, 3.0)
        assert np.cumsum(p / p.sum()).max() > 1.0  # the raw cumsum overshoots
        cdf = KeySampler(p)._cdf
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == 1.0

    @given(p=pmfs())
    @settings(max_examples=150)
    def test_cdf_nondecreasing_and_pinned(self, p):
        cdf = KeySampler(p)._cdf
        assert np.all(np.diff(cdf) >= 0)
        assert cdf.max() == cdf[-1] == 1.0

    @pytest.mark.parametrize("use_c", [True, False])
    def test_largest_uniform_draws_last_positive_key(self, use_c, monkeypatch):
        """u just below 1 lands on the last key with positive mass and never
        past the universe (no clamp needed: cdf[-1] == 1.0 > u)."""
        if use_c and not ckernels.available():
            pytest.skip("C kernels unavailable")
        if not use_c:
            monkeypatch.setattr(ckernels, "lib", None)
        p = np.array([0.25, 0.5, 0.25, 0.0, 0.0])
        sampler = KeySampler(p)
        u = np.array([np.nextafter(1.0, 0.0), 0.0, 0.25, 0.75])
        assert _draw(sampler, u).tolist() == [2, 0, 1, 2]


@needs_c
class TestGuideDraw:
    @given(p=pmfs(), seed=st.integers(0, 2**32 - 1),
           permute=st.booleans())
    @settings(max_examples=200)
    def test_sampler_equals_searchsorted(self, p, seed, permute):
        rng = np.random.Generator(np.random.PCG64(seed))
        sampler = KeySampler(p, permute_with=rng if permute else None)
        u = np.concatenate([_edges(sampler._cdf), rng.random(200)])
        u = u[(u >= 0.0) & (u < 1.0)]
        got = _draw(sampler, u)
        want = _reference(sampler, u)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_hundred_thousand_keys(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for exponent in (0.0, 0.8, 3.0):
            sampler = KeySampler(zipf_probabilities(100_000, exponent),
                                 permute_with=rng)
            u = np.concatenate([_edges(sampler._cdf), rng.random(10_000)])
            u = u[(u >= 0.0) & (u < 1.0)]
            assert _draw(sampler, u).tobytes() == _reference(sampler, u).tobytes()

    @given(steps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
                          min_size=1, max_size=80),
           extra=st.lists(st.floats(-1.0, 2.0), max_size=30))
    @settings(max_examples=200)
    def test_rank_mode_on_any_nondecreasing_cdf(self, steps, extra):
        """The raw walk on a CDF that need not end at 1.0, with uniforms
        outside [0, 1) too: ranks 0..n exactly as searchsorted gives."""
        cdf = np.cumsum(np.asarray(steps))
        u = np.concatenate([_edges(cdf), np.asarray(extra), [0.0, 1.0]])
        want = np.searchsorted(cdf, u, side="right")
        assert _c_ranks(cdf, u).tobytes() == want.astype(np.int64).tobytes()

    def test_draw_returns_a_fresh_array(self):
        sampler = KeySampler(zipf_probabilities(100, 1.0))
        rng = np.random.Generator(np.random.PCG64(1))
        a = sampler.sample(50, rng)
        b = sampler.sample(50, rng)
        assert not np.shares_memory(a, b)
        assert a.flags.owndata and a.flags.c_contiguous

    def test_generator_stream_unchanged(self, monkeypatch):
        """The C and numpy draws consume the same uniforms: equal seeds give
        equal keys and leave the generators in the same state."""
        p = zipf_probabilities(1_000, 1.2)
        outs = []
        for lib in (ckernels.lib, None):
            monkeypatch.setattr(ckernels, "lib", lib)
            rng = np.random.Generator(np.random.PCG64(9))
            sampler = KeySampler(p, permute_with=np.random.Generator(
                np.random.PCG64(2)))
            keys = [sampler.sample(n, rng) for n in (1, 7, 2_400, 24_000)]
            outs.append((np.concatenate(keys).tobytes(), rng.random()))
        assert outs[0] == outs[1]

    def test_guide_built_lazily(self):
        """Only a drawn phase pays for its guide."""
        rng = np.random.Generator(np.random.PCG64(3))
        phases = [KeySampler(zipf_probabilities(10_000, 1.0), permute_with=rng)
                  for _ in range(4)]
        assert all(s._guide is None for s in phases)
        drifting = DriftingSampler(phases, [100, 200, 300])
        drifting.sample(150, rng)
        assert [s._guide is not None for s in phases] == [True, True, False, False]
        assert phases[0]._guide.dtype == np.int32
        assert phases[0]._guide.shape == (10_000,)
