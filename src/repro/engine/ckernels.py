"""Optional fused C kernels for the steady-state tick loop (DESIGN §9).

The hot path's cost is dominated by *dispatch*: a mixed service chunk runs
tens of numpy kernels over arrays of ~100 elements, so the per-call fixed
cost of each kernel rivals the work it does.  This module collapses the
worst offender — the intra-chunk prior-same-key-store correction, a
sort-based 17-kernel pipeline — into one O(n) C pass over dense per-key
counters.

The kernels are built lazily with cffi against the system C compiler and
cached under the user's temp directory, keyed by a hash of the source; a
build is attempted at most once per process.  Everything degrades
gracefully: if cffi or a compiler is missing (or ``REPRO_NO_CKERNELS`` is
set), ``lib`` stays ``None`` and callers keep their pure-numpy paths.  The
C code is deliberately scalar and integer-only, so its results are
bit-identical to the numpy implementation by construction — the
differential test battery asserts exactly that.

Ownership contract for ``psk_correct``'s counter buffer: all-zero on
entry, restored to all-zero before returning (the second loop), so one
grow-only zeroed arena buffer serves every call.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
import tempfile

__all__ = ["lib", "ffi", "available"]

_SOURCE = r"""
#include <stdint.h>

/* For each position i: add to match[i] the number of store ops with the
 * same key among positions < i, using cnt[] as dense per-key running
 * counters.  cnt must be all-zero on entry and indexable up to the
 * largest key; it is restored to all-zero before returning.  Integer
 * adds only — bit-identical to any correct implementation. */
void psk_correct(const int64_t *keys, const unsigned char *store,
                 int64_t *match, int64_t n, int64_t *cnt)
{
    int64_t i;
    for (i = 0; i < n; i++) {
        int64_t c = cnt[keys[i]];
        if (c) match[i] += c;
        if (store[i]) cnt[keys[i]] = c + 1;
    }
    for (i = 0; i < n; i++) {
        if (store[i]) cnt[keys[i]] = 0;
    }
}

/* The whole per-chunk service computation of JoinInstance.step in one
 * pass: per-tuple costs (ScanCost model=0 / IndexedCost model=1),
 * sequential cost cumsum, credit cutoff, taken-store count, integer
 * result sum over taken probes, then in-place latency and (optional)
 * service-attribution vectors.  Every float operation replicates the
 * numpy implementation's elementwise op order exactly (each step rounds
 * once, like the corresponding ufunc), and the cumsum is sequential in
 * both, so results are bit-identical; compiled with -ffp-contract=off so
 * no FMA contraction merges the roundings.
 *
 * match may be NULL for a pure-store chunk (pure_store != 0).  On
 * return: out_i = {n_take, n_stored, result_sum}, out_d = {spent};
 * costs[0:n_take] holds comp_service when attribution != 0 (garbage
 * otherwise), cum[0:n_take] holds the final latencies. */
void step_service(const int64_t *match, const unsigned char *store,
                  const double *times, double *costs, double *cum,
                  int64_t n, int64_t store_total, int model,
                  int pure_store, int attribution,
                  double store_cost, double probe_base, double scan_coeff,
                  double emit_cost, double credit, double capacity,
                  double now, double lat_offset,
                  int64_t *out_i, double *out_d)
{
    int64_t i, n_take, n_stored = 0, results = 0;
    double acc = 0.0;
    if (pure_store) {
        for (i = 0; i < n; i++) costs[i] = store_cost;
    } else if (model == 0) {
        /* cost = (match*emit) + ((size*coeff) + base), size = |R_i| at
         * the tuple's position (store inserts earlier in the chunk have
         * landed).  Store positions are overwritten with store_cost in
         * the numpy code; writing them directly is the same values. */
        int64_t run = 0;
        for (i = 0; i < n; i++) {
            if (store[i]) {
                costs[i] = store_cost;
                run++;
            } else {
                double o = (double)match[i] * emit_cost;
                double t = (double)(store_total + run) * scan_coeff;
                t += probe_base;
                o += t;
                costs[i] = o;
            }
        }
    } else {
        for (i = 0; i < n; i++) {
            if (store[i]) {
                costs[i] = store_cost;
            } else {
                double o = (double)match[i] * emit_cost;
                o += probe_base;
                costs[i] = o;
            }
        }
    }
    /* Serve while the exclusive prefix is < credit: the first inclusive
     * prefix >= credit is the (overdraft) boundary tuple.  Identical to
     * cum.searchsorted(credit, "left") + 1 on the full cumsum — partial
     * sums past the cutoff are never read, so stopping early is safe. */
    n_take = n;
    for (i = 0; i < n; i++) {
        acc += costs[i];
        cum[i] = acc;
        if (acc >= credit) { n_take = i + 1; break; }
    }
    out_d[0] = cum[n_take - 1];
    for (i = 0; i < n_take; i++) {
        if (store[i]) n_stored++;
        else if (match) results += match[i];
    }
    /* latency = max(cum/capacity + now - arrival, 0) + offset, with the
     * service component clipped against the pre-offset latency first —
     * same per-element op order as the numpy chain. */
    for (i = 0; i < n_take; i++) {
        double l = cum[i] / capacity;
        l += now;
        l -= times[i];
        if (!(l > 0.0)) l = 0.0;
        if (attribution) {
            double s = costs[i] / capacity;
            if (s > l) s = l;
            costs[i] = s;
        }
        l += lat_offset;
        cum[i] = l;
    }
    out_i[0] = n_take;
    out_i[1] = n_stored;
    out_i[2] = results;
}
"""

_CDEF = """
void psk_correct(const int64_t *keys, const unsigned char *store,
                 int64_t *match, int64_t n, int64_t *cnt);
void step_service(const int64_t *match, const unsigned char *store,
                  const double *times, double *costs, double *cum,
                  int64_t n, int64_t store_total, int model,
                  int pure_store, int attribution,
                  double store_cost, double probe_base, double scan_coeff,
                  double emit_cost, double credit, double capacity,
                  double now, double lat_offset,
                  int64_t *out_i, double *out_d);
"""

_MODULE = "_repro_ckernels"

ffi = None
lib = None


def _build_dir(key: str) -> str:
    return os.path.join(tempfile.gettempdir(), f"repro-ckernels-{key}")


def _load() -> None:
    global ffi, lib
    if os.environ.get("REPRO_NO_CKERNELS"):
        return
    import cffi

    f = cffi.FFI()
    f.cdef(_CDEF)
    key = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = _build_dir(key)
    sofile = os.path.join(cache, _MODULE + ".so")
    if not os.path.exists(sofile):
        # Build in a per-process scratch dir and publish atomically so
        # concurrent workers (bench --jobs) never load a half-written .so.
        os.makedirs(cache, exist_ok=True)
        scratch = os.path.join(cache, f"build-{os.getpid()}")
        f.set_source(
            _MODULE,
            _SOURCE,
            # -ffp-contract=off matters the day a float kernel lands here:
            # contraction to FMA would change roundings vs numpy.
            extra_compile_args=["-O2", "-ffp-contract=off"],
        )
        built = f.compile(tmpdir=scratch)
        os.replace(built, sofile)
    spec = importlib.util.spec_from_file_location(_MODULE, sofile)
    if spec is None or spec.loader is None:  # pragma: no cover
        return
    mod = importlib.util.module_from_spec(spec)
    sys.modules.pop(_MODULE, None)
    spec.loader.exec_module(mod)
    ffi = mod.ffi
    lib = mod.lib


try:
    _load()
except Exception:  # pragma: no cover - any toolchain failure => fallback
    ffi = None
    lib = None


def available() -> bool:
    """Whether the compiled kernels are usable in this process."""
    return lib is not None


def describe() -> dict:
    """The kernel path of this process, for run and bench metadata:
    whether the C kernels are in use, and whether ``REPRO_NO_CKERNELS``
    switched them off (``False``/``False`` means the build failed)."""
    return {
        "ckernels": available(),
        "ckernels_disabled": bool(os.environ.get("REPRO_NO_CKERNELS")),
    }
