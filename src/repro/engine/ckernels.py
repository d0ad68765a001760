"""Optional C kernels for the per-tick service pass, the key draws and
the dispatch (DESIGN §9).

The hot path's cost is dominated by *dispatch*: a service chunk is a few
dozen tuples, so the fixed cost of every numpy call and every Python
statement around it rivals the work it does.  This module moves the whole
per-instance service computation of a tick into C loops over every
instance of a runtime, on the service table's struct of arrays
(:mod:`repro.engine.columns`):

- ``service_plan``: backlog EWMA, crash/pause and credit decisions, the
  visibility cut on each queue's ring, the cost-bounded cut (the chunk
  ends at the first tuple where a lower bound of its price prefix reaches
  the credit, so only about what the credit buys is staged and gathered;
  the numpy reference stages the floor-bounded chunk), and the staging of
  every chunk into one concatenated key/time/store-mask block;
- ``service_tick``, after Python has gathered each chunk's stored counts:
  the intra-chunk same-key correction (dense per-key counters), pricing,
  the credit cutoff, latencies, service components and pause overlaps
  (from each instance's pause log), the queue's consume bookkeeping, the
  store add into the dense table and the window's current row, and the
  per-instance report with numpy-order sums;
- ``service_fold``: the report's sums folded into the metrics collector's
  running per-second values, in column order.

:class:`repro.join.service.ServiceTable` wraps them and chooses between
them and its numpy reference once.  The path from source to queue has two
more (DESIGN §9, "From source to queue in C"):

- ``guide_build``/``guide_draw``: :class:`repro.data.distributions.KeySampler`'s
  inverse-CDF draw through a guide table, the ranks of
  ``np.searchsorted(cdf, u, side="right")``;
- ``dispatch_batch``: one dispatched batch routed and appended at the
  tails of its destination rings, through the ring addresses and queue
  cursors of the service table
  (:meth:`repro.join.dispatcher.Dispatcher.bind_table`).

The kernels are built lazily with cffi against the system C compiler and
cached under the user's temp directory, keyed by a hash of the source; a
build is attempted at most once per process.  Everything degrades
gracefully: if cffi or a compiler is missing (or ``REPRO_NO_CKERNELS`` is
set), ``lib`` stays ``None`` and the numpy references serve.  The C code
replicates the numpy references' operations in the same order, so its
results are bit-identical — ``tests/engine/test_ckernels.py``,
``tests/data/test_key_draws.py`` and ``tests/join/test_dispatch_kernel.py``
assert exactly that.

Ownership contract for the same-key counter table: all-zero on entry,
restored to all-zero before each chunk's correction returns, so one
grow-only zeroed buffer serves every call.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
import tempfile

from . import columns

__all__ = ["lib", "ffi", "available"]

_SOURCE = columns.c_defines() + r"""
#include <math.h>
#include <stdint.h>

/* Block accessors: row r of instance column i in a block w columns wide. */
#define IX(r, i) I[(r) * w + (i)]
#define FX(r, i) F[(r) * w + (i)]
#define RX(r, i) RI[(r) * w + (i)]
#define RFX(r, i) RF[(r) * w + (i)]
#define QI(r, i) IX(I_QUEUE + (r), i)
#define OP_STORE 0

/* numpy's pairwise summation of a contiguous float64 array, operation for
 * operation (np.add.reduce adds its result to the 0.0 identity). */
static double pairwise(const double *a, int64_t n)
{
    int64_t i;
    if (n < 8) {
        double res = 0.;
        for (i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        for (i = 0; i < 8; i++) r[i] = a[i];
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i + 0]; r[1] += a[i + 1];
            r[2] += a[i + 2]; r[3] += a[i + 3];
            r[4] += a[i + 4]; r[5] += a[i + 5];
            r[6] += a[i + 6]; r[7] += a[i + 7];
        }
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise(a, n2) + pairwise(a + n2, n - n2);
    }
}

static double np_sum(const double *a, int64_t n)
{
    double s = 0.0;
    s += pairwise(a, n);
    return s;
}

/* The cost-bounded cut of a visible n-tuple chunk: the chunk up to and
 * including the first tuple at which a lower bound of the price prefix
 * reaches the credit.  The bound prices each probe at the dense table's
 * count at chunk start (0 outside the table) instead of its gathered and
 * same-key-corrected match count, with the exact store run; the count
 * only grows from there and costs are non-negative, so every true price
 * prefix is >= its bound (IEEE multiply by a non-negative and add are
 * monotone) and the true credit cutoff never lies past the cut. */
static int64_t cost_cut(const double *F, const int64_t *I, int64_t w,
                        int64_t i, int64_t n, double credit)
{
    const int64_t *qk = (const int64_t *)(intptr_t)IX(I_P_KEYS, i);
    const signed char *qo = (const signed char *)(intptr_t)IX(I_P_OPS, i);
    const int64_t *dense = (const int64_t *)(intptr_t)IX(I_P_DENSE, i);
    int64_t head = QI(Q_HEAD, i), cap = QI(Q_CAP, i);
    int64_t dlen = IX(I_DENSE_LEN, i), total = IX(I_STORE + S_TOTAL, i);
    int64_t run = 0, j;
    double sc = FX(F_STORE_COST, i), base = FX(F_PROBE_BASE, i);
    double coeff = FX(F_SCAN_COEFF, i), emit = FX(F_EMIT_COST, i);
    double acc = 0.0;
    int scan = IX(I_MODEL, i) == MODEL_SCAN;
    for (j = 0; j < n; j++) {
        int64_t p = (head + j) % cap;
        double c;
        if (qo[p] == OP_STORE) {
            c = sc;
            run++;
        } else {
            int64_t k = qk[p];
            c = (double)(k >= 0 && k < dlen ? dense[k] : 0) * emit;
            if (scan) {
                double s = (double)(total + run) * coeff;
                s += base;
                c += s;
            } else {
                c += base;
            }
        }
        acc += c;
        if (acc >= credit) return j + 1;
    }
    return n;
}

/* The chunk an instance serves this tick, without changing anything: 0
 * when it idles.  *credit receives this tick's budget (the carried credit
 * plus capacity * dt) when the instance is not crashed or paused; *state
 * is 0 (crashed/paused), 1 (idle, credit settles) or 2 (serves).  Python's
 * min(a, b) is "b if b < a else a"; the float operations follow
 * JoinInstance's former per-instance step exactly. */
static int64_t plan_one(const double *F, const int64_t *I, int64_t w,
                        int64_t i, double now, double dt, double *credit,
                        int *state)
{
    int64_t size, limit, n, head, cap, cut, j;
    double a, end;
    const double *times;
    *state = 0;
    if (IX(I_CRASHED, i) || now < FX(F_PAUSED, i)) return 0;
    *state = 1;
    *credit = FX(F_CREDIT, i) + FX(F_CAPACITY, i) * dt;
    size = QI(Q_SIZE, i);
    if (size == 0 || *credit <= 0) return 0;
    /* The peek is bounded by what the credit can possibly afford: every
     * operation costs at least the floor cost. */
    a = *credit / FX(F_FLOOR, i);
    limit = IX(I_MAX_CHUNK, i);
    if (a < (double)limit) limit = (int64_t)a + 1;
    n = size < limit ? size : limit;
    head = QI(Q_HEAD, i);
    cap = QI(Q_CAP, i);
    times = (const double *)(intptr_t)IX(I_P_TIMES, i);
    end = now + dt;
    /* A not-yet-visible tuple blocks everything behind it: the cut is the
     * first position whose time is past the tick's end. */
    cut = n;
    if (QI(Q_ORDERED, i)) {
        if (times[(head + n - 1) % cap] > end) {
            int64_t lo = 0, hi = n - 1;   /* times[hi] > end */
            while (lo < hi) {
                int64_t mid = lo + (hi - lo) / 2;
                if (times[(head + mid) % cap] > end) hi = mid; else lo = mid + 1;
            }
            cut = lo;
        }
    } else {
        for (j = 0; j < n; j++) {
            if (times[(head + j) % cap] > end) { cut = j; break; }
        }
    }
    if (cut && IX(I_COST_CUT, i)) cut = cost_cut(F, I, w, i, cut, *credit);
    if (cut) *state = 2;
    return cut;
}

/* First half of the pass over instances [lo, hi): returns -1 when a queue
 * or store moved since its pointers were taken (refresh them and call
 * again), the total staged length when it exceeds `room` (grow the
 * staging blocks and call again), and the total staged length after
 * committing otherwise.  The first loop plans every chunk once, into the
 * R_N row (and the state into R_TAKE); nothing else changes until the
 * second loop commits. */
int64_t service_plan(int64_t lo, int64_t hi, int64_t w, double *F,
                     int64_t *I, int64_t *RI, int64_t *keys, double *times,
                     unsigned char *mask, int64_t room, int64_t cnt_len,
                     double now, double dt)
{
    int64_t i, j, total = 0, off = 0;
    double credit = 0.0;
    int state;
    for (i = lo; i < hi; i++) {
        if (QI(Q_GEN, i) != IX(I_QGEN_SEEN, i)
            || IX(I_STORE + S_GEN, i) != IX(I_SGEN_SEEN, i)) return -1;
        RX(R_N, i) = plan_one(F, I, w, i, now, dt, &credit, &state);
        RX(R_TAKE, i) = state;
        total += RX(R_N, i);
    }
    if (total > room) return total;
    for (i = lo; i < hi; i++) {
        int64_t n = RX(R_N, i), head, cap, n_stores = 0, flags = 0, klo, khi;
        const int64_t *qk;
        const double *qt;
        const signed char *qo;
        double tau = FX(F_TAU, i);
        state = (int)RX(R_TAKE, i);
        /* EWMA of the probe backlog, sampled before serving. */
        if (tau > 0) {
            double alpha = dt / tau;
            if (1.0 < alpha) alpha = 1.0;
            FX(F_EWMA, i) += alpha * ((double)QI(Q_PROBES, i) - FX(F_EWMA, i));
        } else {
            FX(F_EWMA, i) = (double)QI(Q_PROBES, i);
        }
        RX(R_TAKE, i) = 0;
        RX(R_FLAGS, i) = 0;
        if (state == 0) continue;
        FX(F_PAUSED, i) = 0.0;
        credit = FX(F_CREDIT, i) + FX(F_CAPACITY, i) * dt;
        if (state == 1) {
            /* Idle capacity is never banked. */
            FX(F_CREDIT, i) = 0.0 < credit ? 0.0 : credit;
            continue;
        }
        FX(F_CREDIT, i) = credit;   /* this tick's budget, for service_tick */
        head = QI(Q_HEAD, i);
        cap = QI(Q_CAP, i);
        qk = (const int64_t *)(intptr_t)IX(I_P_KEYS, i);
        qt = (const double *)(intptr_t)IX(I_P_TIMES, i);
        qo = (const signed char *)(intptr_t)IX(I_P_OPS, i);
        for (j = 0; j < n; j++) {
            int64_t p = (head + j) % cap;
            unsigned char s = qo[p] == OP_STORE;
            keys[off + j] = qk[p];
            times[off + j] = qt[p];
            mask[off + j] = s;
            n_stores += s;
        }
        RX(R_NSTORES, i) = n_stores;
        RX(R_OFF, i) = off;
        off += n;
        klo = QI(Q_KEY_LO, i);
        khi = QI(Q_KEY_HI, i);
        if (n_stores < n) {
            flags |= FL_GATHER;
            if (n_stores) {
                if (klo < 0 || khi >= PSK_CAP) flags |= FL_PSK;
                else if (khi >= cnt_len) flags |= FL_COUNTER;
            }
        }
        if (n_stores) {
            if (klo < 0 || khi >= DENSE_KEY_CAP) flags |= FL_STORE;
            else if (khi >= IX(I_DENSE_LEN, i)
                     || (IX(I_P_ROW, i) && khi >= IX(I_ROW_LEN, i)))
                flags |= FL_GROW;
        }
        RX(R_FLAGS, i) = flags;
    }
    return off;
}

/* Each served tuple's overlap with the logged pauses of one cause: for a
 * tuple that arrived at t and an interval (s, e), max(e - max(t, s), 0),
 * summed over the cause's intervals in log order (numpy's maximum,
 * subtract and add, operation for operation).  Returns 0 when the log has
 * no interval of that cause (nothing written). */
static int pause_overlaps(const double *log, int64_t len, double cause,
                          const double *t, int64_t n, double *out)
{
    int64_t e, j;
    int fresh = 1;
    for (e = 0; e < len; e++) {
        double s = log[3 * e], end = log[3 * e + 1];
        if (log[3 * e + 2] != cause) continue;
        for (j = 0; j < n; j++) {
            double o = t[j] >= s ? t[j] : s;
            o = end - o;
            if (o < 0.0) o = 0.0;
            if (fresh) out[j] = o; else out[j] += o;
        }
        fresh = 0;
    }
    return !fresh;
}

/* Second half of the pass: serve every staged chunk.  `match` holds each
 * chunk's stored counts at chunk start (gathered by Python; untouched for
 * pure-store chunks); chunk i's costs and latencies are computed at the
 * running report offset in `comp`/`lat`, which keep the served prefix, as
 * do its pause overlaps in `mig`/`rec` when the report carries them.
 * out = {queued tuples after service, longest queue, tuples served, OR of
 * the flags}.  Returns 0, or -1 on a probe-counter underflow. */
int64_t service_tick(int64_t lo, int64_t hi, int64_t w, double *F,
                     int64_t *I, int64_t *RI, double *RF, const int64_t *keys,
                     const double *times, const unsigned char *mask,
                     int64_t *match, double *lat, double *comp, double *mig,
                     double *rec, int64_t *cnt, double now, int64_t *out)
{
    int64_t i, j, seg = 0, qsum = 0, qmax = 0, all_flags = 0;
    for (i = lo; i < hi; i++) {
        int64_t n = RX(R_N, i), o, ns, take, stored = 0, results = 0, probed;
        int64_t flags, size;
        const int64_t *k;
        const double *t;
        const unsigned char *m;
        int64_t *mc;
        double *cost, *cum, credit, capacity, acc = 0.0, spent, left;
        if (n) {
            o = RX(R_OFF, i);
            ns = RX(R_NSTORES, i);
            flags = RX(R_FLAGS, i);
            k = keys + o; t = times + o; m = mask + o; mc = match + o;
            cost = comp + seg; cum = lat + seg;
            credit = FX(F_CREDIT, i);
            capacity = FX(F_CAPACITY, i);
            /* Same-key correction: a probe also sees every store served
             * before it in this chunk.  Integer adds only; the counters
             * are un-written afterwards. */
            if (ns && ns < n && !(flags & FL_PSK)) {
                for (j = 0; j < n; j++) {
                    int64_t c = cnt[k[j]];
                    if (c) mc[j] += c;
                    if (m[j]) cnt[k[j]] = c + 1;
                }
                for (j = 0; j < n; j++) if (m[j]) cnt[k[j]] = 0;
            }
            /* Prices: ScanCost (o = m*emit; o += (size*coeff) + base, with
             * |R_i| at the tuple's position) or IndexedCost (o = m*emit;
             * o += base); stores cost store_cost. */
            {
                double sc = FX(F_STORE_COST, i), base = FX(F_PROBE_BASE, i);
                double coeff = FX(F_SCAN_COEFF, i), emit = FX(F_EMIT_COST, i);
                int64_t total = IX(I_STORE + S_TOTAL, i), run = 0;
                int scan = IX(I_MODEL, i) == MODEL_SCAN;
                for (j = 0; j < n; j++) {
                    if (m[j]) {
                        cost[j] = sc;
                        run++;
                    } else {
                        double c = (double)mc[j] * emit;
                        if (scan) {
                            double s = (double)(total + run) * coeff;
                            s += base;
                            c += s;
                        } else {
                            c += base;
                        }
                        cost[j] = c;
                    }
                }
            }
            /* Serve while the exclusive prefix is < credit: the first
             * inclusive prefix >= credit is the (overdraft) boundary. */
            take = n;
            for (j = 0; j < n; j++) {
                acc += cost[j];
                cum[j] = acc;
                if (acc >= credit) { take = j + 1; break; }
            }
            spent = cum[take - 1];
            for (j = 0; j < take; j++) {
                if (m[j]) stored++;
                else results += mc[j];
            }
            probed = take - stored;
            /* latency = max(cum/capacity + now - arrival, 0) + offset, the
             * service component clipped against it before the offset. */
            {
                double off = FX(F_LAT_OFFSET, i);
                for (j = 0; j < take; j++) {
                    double l = cum[j] / capacity;
                    double s = cost[j] / capacity;
                    l += now;
                    l -= t[j];
                    if (!(l > 0.0)) l = 0.0;
                    if (s > l) s = l;
                    cost[j] = s;
                    if (off) l += off;
                    cum[j] = l;
                }
            }
            left = credit - spent;
            if (take == n && 0.0 < left) left = 0.0;   /* drained: no banking */
            FX(F_CREDIT, i) = left;
            RFX(RF_MIGRATION, i) = 0.0;
            RFX(RF_RECOVERY, i) = 0.0;
            /* Pause overlaps are zero when the log's last interval ended
             * before the first served arrival and arrivals are ordered
             * (read before the consume below may restore the order). */
            if (FX(F_PAUSE_END, i) != -INFINITY
                && !(QI(Q_ORDERED, i) && FX(F_PAUSE_END, i) <= t[0])) {
                const double *log = (const double *)(intptr_t)IX(I_P_PAUSE, i);
                int64_t len = IX(I_PAUSE_LEN, i);
                if (pause_overlaps(log, len, PAUSE_MIGRATION, t, take,
                                   mig + seg)) {
                    flags |= FL_MIG;
                    RFX(RF_MIGRATION, i) = np_sum(mig + seg, take);
                }
                if (pause_overlaps(log, len, PAUSE_RECOVERY, t, take,
                                   rec + seg)) {
                    flags |= FL_REC;
                    RFX(RF_RECOVERY, i) = np_sum(rec + seg, take);
                }
            }
            /* consume */
            {
                int64_t probes = QI(Q_PROBES, i) - probed;
                int64_t consumed = QI(Q_CONSUMED, i) + take;
                if (probes < 0) return -1;
                QI(Q_PROBES, i) = probes;
                QI(Q_HEAD, i) = (QI(Q_HEAD, i) + take) % QI(Q_CAP, i);
                size = QI(Q_SIZE, i) - take;
                QI(Q_SIZE, i) = size;
                QI(Q_CONSUMED, i) = consumed;
                if (!QI(Q_ORDERED, i)) {
                    if (size == 0) {
                        QI(Q_ORDERED, i) = 1;
                        FX(F_QUEUE + QF_TAIL, i) = -INFINITY;
                    } else if (consumed >= QI(Q_MARK, i)) {
                        QI(Q_ORDERED, i) = 1;
                    }
                }
            }
            /* store add: the dense table and the window's current row */
            if (stored && !(flags & FL_STORE)) {
                int64_t *dense = (int64_t *)(intptr_t)IX(I_P_DENSE, i);
                int64_t *row = (int64_t *)(intptr_t)IX(I_P_ROW, i);
                for (j = 0; j < take; j++) {
                    if (m[j]) {
                        dense[k[j]] += 1;
                        if (row) row[k[j]] += 1;
                    }
                }
                IX(I_STORE + S_TOTAL, i) += stored;
            }
            IX(I_STORED, i) += stored;
            IX(I_PROBED, i) += probed;
            FX(F_RESULTS, i) += (double)results;
            if ((IX(I_HOOKS, i) & HOOK_FT) && stored) flags |= FL_WAL;
            if ((IX(I_HOOKS, i) & HOOK_TRACK) && probed) flags |= FL_TRACK;
            if (IX(I_HOOKS, i) & HOOK_OBS) flags |= FL_OBS;
            RX(R_TAKE, i) = take;
            RX(R_STORED, i) = stored;
            RX(R_SEG, i) = seg;
            RX(R_FLAGS, i) = flags;
            RFX(RF_RESULTS, i) = (double)results;
            RFX(RF_SPENT, i) = spent;
            RFX(RF_LATENCY, i) = np_sum(cum, take);
            RFX(RF_SERVICE, i) = np_sum(cost, take);
            seg += take;
            all_flags |= flags;
        }
        size = QI(Q_SIZE, i);
        qsum += size;
        if (size > qmax) qmax = size;
    }
    out[0] = qsum;
    out[1] = qmax;
    out[2] = seg;
    out[3] = all_flags;
    return 0;
}

/* Fold the report of the served columns of [lo, hi) into one second's
 * running sums, in column order, with MetricsCollector's additions:
 * v = {results, latency, latency after warm-up, service, migration,
 * recovery} in and out; has[c] (in and out) says whether v[c] holds a sum:
 * a missing sum starts from 0.0 and only a nonzero addition creates it;
 * tick = this tick's {results, latency, service, migration, recovery}
 * from 0.0; n = {tuples served, rounded results}. */
void service_fold(int64_t lo, int64_t hi, int64_t w, const int64_t *RI,
                  const double *RF, int in_window, double *v, int64_t *has,
                  double *tick, int64_t *n)
{
    static const int row[3] = {RF_SERVICE, RF_MIGRATION, RF_RECOVERY};
    int64_t i, c, served = 0, rounded = 0;
    double t_res = 0.0, t_lat = 0.0;
    for (i = lo; i < hi; i++) {
        double r, s;
        if (RX(R_TAKE, i) <= 0) continue;
        served += RX(R_TAKE, i);
        r = RFX(RF_RESULTS, i);
        s = RFX(RF_LATENCY, i);
        t_res += r;
        if (r != 0.0) {
            v[0] = (has[0] ? v[0] : 0.0) + r;
            has[0] = 1;
            rounded += (int64_t)nearbyint(r);
        }
        v[1] += s;
        if (in_window) v[2] += s;
        t_lat += s;
    }
    tick[0] = t_res;
    tick[1] = t_lat;
    for (c = 0; c < 3; c++) {
        double t = 0.0;
        for (i = lo; i < hi; i++) {
            double x;
            if (RX(R_TAKE, i) <= 0) continue;
            x = RFX(row[c], i);
            if (x != 0.0) {
                v[c + 3] = (has[c + 3] ? v[c + 3] : 0.0) + x;
                has[c + 3] = 1;
                t += x;
            }
        }
        tick[c + 2] = t;
    }
    n[0] = served;
    n[1] = rounded;
}

/* Inverse-CDF draws through a guide table (Chen & Asau), one bucket per
 * key: guide[j] is the first rank whose CDF value exceeds j/n, built in
 * one linear pass. */
void guide_build(const double *cdf, int64_t n, int32_t *guide)
{
    int64_t i = 0, j;
    for (j = 0; j < n; j++) {
        double x = (double)j / (double)n;
        while (i < n - 1 && cdf[i] <= x) i++;
        guide[j] = (int32_t)i;
    }
}

/* rank[t] = searchsorted(cdf, u[t], side="right") for a nondecreasing
 * cdf and finite u: from the bucket's start rank, walk back while
 * cdf[i-1] > u and forward while cdf[i] <= u.  The walk ends at that rank
 * whatever the guide holds; the guide only makes it short.  out[t] is
 * ids[rank] (the caller guarantees rank < n, i.e. u < cdf[n-1]) or, with
 * ids NULL, the rank itself. */
void guide_draw(const double *cdf, int64_t n, const int32_t *guide,
                const double *u, int64_t m, const int64_t *ids, int64_t *out)
{
    double scale = (double)n;
    int64_t t;
    for (t = 0; t < m; t++) {
        double x = u[t], y = x * scale;
        int64_t i = y < 1.0 ? 0 : y >= scale ? n - 1 : (int64_t)y;
        i = guide[i];
        while (i > 0 && cdf[i - 1] > x) i--;
        while (i < n && cdf[i] <= x) i++;
        out[t] = ids ? ids[i] : i;
    }
}

/* One dispatched batch into the instance rings.  Side 0 (the stream's
 * stores) routes key k to destination routes0[k], side 1 (its probes) to
 * routes1[k]; destination c (side 0: c = d, side 1: c = k0 + d) is table
 * column slots[c].  Each destination's tuples are appended at its ring's
 * tail in batch order with visible-time t0/t1 and op store/probe, and its
 * queue cursors move as TupleQueue.push_block moves them: size, probe
 * backlog, the in-order tail time or the disorder watermark, key bounds.
 * Nothing is written unless every destination's ring has room and its
 * pointers are current; otherwise each refused destination is flagged in
 * row DS_FLAG of `scratch` (with its tuple count in row DS_CNT) and the
 * number of refusals is returned (0: delivered; -1: a route outside its
 * group, nothing written).  `scratch` holds
 * DS_NROW rows of k0 + k1 columns. */
int64_t dispatch_batch(const int64_t *keys, int64_t n,
                       const int64_t *routes0, const int64_t *routes1,
                       const int64_t *slots, int64_t k0, int64_t k1,
                       double t0, double t1, int64_t w, int64_t *I,
                       double *F, int64_t *scratch)
{
    int64_t kt = k0 + k1, c, j, refused = 0;
    int64_t *cnt = scratch + DS_CNT * kt, *flag = scratch + DS_FLAG * kt;
    int64_t *klo = scratch + DS_LO * kt, *khi = scratch + DS_HI * kt;
    int64_t *pos = scratch + DS_POS * kt;
    int64_t *pk = scratch + DS_KEYS * kt, *pt = scratch + DS_TIMES * kt;
    int64_t *po = scratch + DS_OPS * kt;
    const int64_t *routes[2];
    int s;
    routes[0] = routes0;
    routes[1] = routes1;
    for (c = 0; c < kt; c++) {
        cnt[c] = flag[c] = 0;
        klo[c] = INT64_MAX;
        khi[c] = INT64_MIN;
    }
    for (s = 0; s < 2; s++) {
        const int64_t *r = routes[s];
        int64_t b = s ? k0 : 0, ks = s ? k1 : k0;
        for (j = 0; j < n; j++) {
            int64_t k = keys[j], d = r[k];
            if ((uint64_t)d >= (uint64_t)ks) return -1;
            d += b;
            cnt[d]++;
            if (k < klo[d]) klo[d] = k;
            if (k > khi[d]) khi[d] = k;
        }
    }
    for (c = 0; c < kt; c++) {
        int64_t i = slots[c];
        if (cnt[c] && (QI(Q_GEN, i) != IX(I_QGEN_SEEN, i)
                       || QI(Q_SIZE, i) + cnt[c] > QI(Q_CAP, i))) {
            flag[c] = 1;
            refused++;
        }
    }
    if (refused) return refused;
    for (c = 0; c < kt; c++) {
        int64_t i = slots[c];
        if (!cnt[c]) continue;
        pos[c] = (QI(Q_HEAD, i) + QI(Q_SIZE, i)) % QI(Q_CAP, i);
        pk[c] = IX(I_P_KEYS, i);
        pt[c] = IX(I_P_TIMES, i);
        po[c] = IX(I_P_OPS, i);
    }
    for (s = 0; s < 2; s++) {
        const int64_t *r = routes[s];
        int64_t b = s ? k0 : 0;
        double t = s ? t1 : t0;
        signed char op = (signed char)s;   /* OP_STORE 0, OP_PROBE 1 */
        for (j = 0; j < n; j++) {
            int64_t k = keys[j], d = b + r[k], p = pos[d], i = slots[d];
            ((int64_t *)(intptr_t)pk[d])[p] = k;
            ((double *)(intptr_t)pt[d])[p] = t;
            ((signed char *)(intptr_t)po[d])[p] = op;
            pos[d] = ++p == QI(Q_CAP, i) ? 0 : p;
        }
    }
    for (c = 0; c < kt; c++) {
        int64_t i = slots[c], size;
        double t = c < k0 ? t0 : t1;
        if (!cnt[c]) continue;
        size = QI(Q_SIZE, i) + cnt[c];
        QI(Q_SIZE, i) = size;
        if (c >= k0) QI(Q_PROBES, i) += cnt[c];
        if (t < FX(F_QUEUE + QF_TAIL, i)) {
            QI(Q_ORDERED, i) = 0;
            QI(Q_MARK, i) = QI(Q_CONSUMED, i) + size;
            FX(F_QUEUE + QF_TAIL, i) = -INFINITY;
        } else {
            FX(F_QUEUE + QF_TAIL, i) = t;
        }
        if (klo[c] < QI(Q_KEY_LO, i)) QI(Q_KEY_LO, i) = klo[c];
        if (khi[c] > QI(Q_KEY_HI, i)) QI(Q_KEY_HI, i) = khi[c];
    }
    return 0;
}
"""

_CDEF = """
int64_t service_plan(int64_t lo, int64_t hi, int64_t w, double *F,
                     int64_t *I, int64_t *RI, int64_t *keys, double *times,
                     unsigned char *mask, int64_t room, int64_t cnt_len,
                     double now, double dt);
int64_t service_tick(int64_t lo, int64_t hi, int64_t w, double *F,
                     int64_t *I, int64_t *RI, double *RF, const int64_t *keys,
                     const double *times, const unsigned char *mask,
                     int64_t *match, double *lat, double *comp, double *mig,
                     double *rec, int64_t *cnt, double now, int64_t *out);
void service_fold(int64_t lo, int64_t hi, int64_t w, const int64_t *RI,
                  const double *RF, int in_window, double *v, int64_t *has,
                  double *tick, int64_t *n);
void guide_build(const double *cdf, int64_t n, int32_t *guide);
void guide_draw(const double *cdf, int64_t n, const int32_t *guide,
                const double *u, int64_t m, const int64_t *ids, int64_t *out);
int64_t dispatch_batch(const int64_t *keys, int64_t n,
                       const int64_t *routes0, const int64_t *routes1,
                       const int64_t *slots, int64_t k0, int64_t k1,
                       double t0, double t1, int64_t w, int64_t *I,
                       double *F, int64_t *scratch);
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
