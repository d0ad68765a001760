"""Key-popularity distributions.

Real-world join attributes are skewed (paper Fig. 1: ~20% of locations
carry ~80% of passenger orders).  This module provides:

- :func:`zipf_probabilities` — truncated Zipf over a finite key universe;
- :class:`KeySampler` — inverse-CDF sampling from any probability vector
  (a guide-table walk in C, ``searchsorted`` in numpy, the same ranks),
  with an optional identity permutation so hot keys are not the
  numerically smallest ids (which would otherwise correlate key
  popularity with hash placement in artificial ways);
- :func:`fit_zipf_exponent` — solve for the Zipf coefficient that puts a
  target probability share on a target fraction of keys (used to calibrate
  the ride-hailing generator to the paper's published 20%/80% statistic);
- :func:`top_share` — the share of mass held by the most popular fraction
  of keys (used to *verify* generated streams, Fig. 1a/1b).
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError

__all__ = [
    "zipf_probabilities",
    "uniform_probabilities",
    "tiered_probabilities",
    "KeySampler",
    "DriftingSampler",
    "fit_zipf_exponent",
    "top_share",
]

#: the guide table holds int32 ranks, one bucket per key
_GUIDE_MAX_KEYS = 1 << 31


def zipf_probabilities(n_keys: int, exponent: float) -> np.ndarray:
    """Truncated Zipf pmf: ``p_k ∝ 1 / rank^exponent`` for ranks 1..n.

    ``exponent=0`` degenerates to the uniform distribution (the paper's
    "zipf coefficient 0" convention in the Gxy dataset groups).
    """
    if n_keys < 1:
        raise WorkloadError(f"n_keys must be >= 1, got {n_keys}")
    if exponent < 0:
        raise WorkloadError(f"exponent must be >= 0, got {exponent}")
    ranks = np.arange(1, n_keys + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def uniform_probabilities(n_keys: int) -> np.ndarray:
    """Uniform pmf over the key universe."""
    return zipf_probabilities(n_keys, 0.0)


def tiered_probabilities(
    n_keys: int,
    top_fraction: float,
    top_share: float,
    within_exponent: float = 0.5,
) -> np.ndarray:
    """A two-tier pmf: the most popular ``top_fraction`` of keys carries
    ``top_share`` of the mass, with mild Zipf shape *within* each tier.

    This is the right model for geographic keys like the paper's DiDi
    locations: the 20%/80% concentration of Fig. 1a holds, but no single
    GPS cell dominates the city — the hot tier is broad and fairly flat.
    A pure Zipf fit to the same 20%/80% statistic would put ~6% of all
    traffic on the single hottest key, which no fixed-capacity instance
    could serve in a saturated 48-instance deployment (and which the
    paper's own working system therefore cannot have contained).

    Parameters
    ----------
    n_keys:
        Key-universe size.
    top_fraction:
        Fraction of keys in the hot tier, e.g. 0.20.
    top_share:
        Probability mass of the hot tier, e.g. 0.80.
    within_exponent:
        Zipf exponent applied inside each tier (0 = flat tiers).  The
        default 0.5 keeps the hot tier gently sloped so GreedyFit has
        heterogeneous keys to choose between.
    """
    if not (0.0 < top_fraction < 1.0):
        raise WorkloadError(f"top_fraction must be in (0,1), got {top_fraction}")
    if not (0.0 < top_share < 1.0):
        raise WorkloadError(f"top_share must be in (0,1), got {top_share}")
    if n_keys < 2:
        raise WorkloadError("tiered distribution needs at least 2 keys")
    n_hot = max(1, int(round(top_fraction * n_keys)))
    n_cold = n_keys - n_hot
    if n_cold == 0:
        raise WorkloadError("top_fraction leaves no cold keys")
    hot = zipf_probabilities(n_hot, within_exponent) * top_share
    cold = zipf_probabilities(n_cold, within_exponent) * (1.0 - top_share)
    return np.concatenate([hot, cold])


def top_share(probabilities: np.ndarray, top_fraction: float) -> float:
    """Probability mass carried by the most popular ``top_fraction`` keys."""
    if not (0.0 < top_fraction <= 1.0):
        raise WorkloadError(f"top_fraction must be in (0,1], got {top_fraction}")
    p = np.sort(np.asarray(probabilities, dtype=np.float64))[::-1]
    k = max(1, int(round(top_fraction * p.shape[0])))
    return float(p[:k].sum())


def fit_zipf_exponent(
    n_keys: int,
    top_fraction: float,
    target_share: float,
    tol: float = 1e-4,
    max_iter: int = 100,
) -> float:
    """Find the Zipf exponent whose top ``top_fraction`` of keys carries
    ``target_share`` of the mass (bisection; share is monotone in the
    exponent).

    Example: ``fit_zipf_exponent(10_000, 0.20, 0.80)`` calibrates the
    ride-hailing order stream to the paper's "20 percent of the locations
    occupies 80 percent of all the passenger orders".
    """
    if not (0.0 < target_share < 1.0):
        raise WorkloadError(f"target_share must be in (0,1), got {target_share}")
    uniform_share = top_fraction  # share at exponent 0
    if target_share <= uniform_share:
        raise WorkloadError(
            f"target_share {target_share} not above the uniform share "
            f"{uniform_share}; no positive exponent achieves it"
        )
    lo, hi = 0.0, 1.0
    # Grow hi until it overshoots the target.
    while top_share(zipf_probabilities(n_keys, hi), top_fraction) < target_share:
        hi *= 2.0
        if hi > 64.0:
            raise WorkloadError("target share unreachable even at extreme skew")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        share = top_share(zipf_probabilities(n_keys, mid), top_fraction)
        if abs(share - target_share) < tol:
            return mid
        if share < target_share:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class KeySampler:
    """Inverse-CDF sampler over a finite key universe.

    Parameters
    ----------
    probabilities:
        pmf over ranks (rank 0 is the most popular key).
    permutation:
        Optional mapping rank -> key id.  When a generator is provided,
        ranks are shuffled into key ids so popularity is independent of the
        numeric id (and therefore of the hash placement pattern).
    """

    def __init__(
        self,
        probabilities: np.ndarray,
        permute_with: np.random.Generator | None = None,
        key_ids: np.ndarray | None = None,
    ) -> None:
        p = np.asarray(probabilities, dtype=np.float64)
        if p.ndim != 1 or p.shape[0] < 1:
            raise WorkloadError("probabilities must be a non-empty 1-D array")
        if np.any(p < 0):
            raise WorkloadError("probabilities must be non-negative")
        total = p.sum()
        if not np.isfinite(total) or total <= 0:
            raise WorkloadError("probabilities must sum to a positive finite value")
        self._p = p / total
        self._cdf = np.cumsum(self._p)
        # A cumsum can overshoot 1.0 before its last entry; clipping keeps
        # the CDF nondecreasing once the last entry is pinned to 1.0, and
        # changes no draw (every u < 1 compares the same against both).
        np.minimum(self._cdf, 1.0, out=self._cdf)
        self._cdf[-1] = 1.0  # guard float drift
        # The C draw's guide table, built on the first C draw (a drifting
        # source's later phases never pay for it in set-up).
        self._guide = None
        if key_ids is not None:
            if permute_with is not None:
                raise WorkloadError("pass either key_ids or permute_with, not both")
            ids = np.ascontiguousarray(key_ids, dtype=np.int64)
            if ids.shape != p.shape:
                raise WorkloadError("key_ids must align with probabilities")
            self._ids = ids
        elif permute_with is not None:
            self._ids = permute_with.permutation(p.shape[0]).astype(np.int64)
        else:
            self._ids = np.arange(p.shape[0], dtype=np.int64)

    @property
    def n_keys(self) -> int:
        return int(self._p.shape[0])

    @property
    def probabilities(self) -> np.ndarray:
        """pmf indexed by *key id* (after permutation)."""
        out = np.empty_like(self._p)
        out[self._ids] = self._p
        return out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` key ids i.i.d. from the distribution."""
        if n < 0:
            raise WorkloadError(f"n must be >= 0, got {n}")
        if n == 0:
            return np.empty(0, dtype=np.int64)
        u = rng.random(n)
        # Imported here: the engine package imports the runtime, which
        # imports this module.
        from ..engine import ckernels as ck

        # cdf[-1] == 1.0 > u, so every rank is < n_keys.
        if ck.lib is None or self.n_keys >= _GUIDE_MAX_KEYS:
            return self._ids[np.searchsorted(self._cdf, u, side="right")]
        cdf = ck.ffi.from_buffer("double[]", self._cdf)
        if self._guide is None:
            self._guide = np.empty(self.n_keys, dtype=np.int32)
            ck.lib.guide_build(cdf, self.n_keys,
                               ck.ffi.from_buffer("int32_t[]", self._guide))
        out = np.empty(n, dtype=np.int64)
        ck.lib.guide_draw(
            cdf, self.n_keys, ck.ffi.from_buffer("int32_t[]", self._guide),
            ck.ffi.from_buffer("double[]", u), n,
            ck.ffi.from_buffer("int64_t[]", self._ids),
            ck.ffi.from_buffer("int64_t[]", out),
        )
        return out


class DriftingSampler:
    """Piecewise sampler whose key distribution shifts at count boundaries.

    Real skew is not stationary: the paper's ride-hailing hot locations
    move with the time of day, so load balanced for the morning peak is
    imbalanced by the evening one.  This sampler models that *skew drift*
    as a sequence of phases, each its own :class:`KeySampler`, switching
    after fixed cumulative tuple counts.  Boundaries are counted in drawn
    tuples — not wall time — so the drift point is a pure function of the
    stream prefix and survives any tick length or rate.

    A draw that spans a boundary is split: the leading tuples come from
    the outgoing phase, the rest from the incoming one, all consuming the
    same generator stream, so the emitted key sequence is bit-identical no
    matter how the draws are batched into ticks.

    Parameters
    ----------
    samplers:
        One :class:`KeySampler` per phase, in order; all must share one
        key-universe size.
    boundaries:
        Strictly increasing cumulative tuple counts at which the next
        phase takes over; exactly ``len(samplers) - 1`` entries.
    """

    def __init__(self, samplers, boundaries) -> None:
        self._samplers = list(samplers)
        self._boundaries = [int(b) for b in boundaries]
        if not self._samplers:
            raise WorkloadError("DriftingSampler needs at least one phase")
        if len(self._boundaries) != len(self._samplers) - 1:
            raise WorkloadError(
                f"{len(self._samplers)} phases need "
                f"{len(self._samplers) - 1} boundaries, got "
                f"{len(self._boundaries)}"
            )
        if any(b <= 0 for b in self._boundaries) or any(
            b2 <= b1 for b1, b2 in zip(self._boundaries, self._boundaries[1:])
        ):
            raise WorkloadError(
                f"boundaries must be positive and strictly increasing, "
                f"got {self._boundaries}"
            )
        sizes = {s.n_keys for s in self._samplers}
        if len(sizes) != 1:
            raise WorkloadError(
                f"all phases must share one key universe, got sizes {sorted(sizes)}"
            )
        self._drawn = 0

    @property
    def n_keys(self) -> int:
        return self._samplers[0].n_keys

    @property
    def drawn(self) -> int:
        """Cumulative tuples drawn (decides the active phase)."""
        return self._drawn

    def _phase(self) -> int:
        for i, b in enumerate(self._boundaries):
            if self._drawn < b:
                return i
        return len(self._samplers) - 1

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` key ids, splitting the draw across phase boundaries."""
        if n < 0:
            raise WorkloadError(f"n must be >= 0, got {n}")
        if n == 0:
            return np.empty(0, dtype=np.int64)
        chunks = []
        remaining = n
        while remaining > 0:
            phase = self._phase()
            if phase < len(self._boundaries):
                take = min(remaining, self._boundaries[phase] - self._drawn)
            else:
                take = remaining
            chunks.append(self._samplers[phase].sample(take, rng))
            self._drawn += take
            remaining -= take
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks)
