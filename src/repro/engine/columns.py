"""Row layout of the service table's struct of arrays (DESIGN §9).

A runtime serves all of its join instances in one pass per tick
(:class:`repro.join.service.ServiceTable`).  The pass reads and writes
every per-instance scalar it needs from two 2-D blocks, one int64 and one
float64, with one row per scalar and one column per instance.  The objects
whose state the pass touches keep that state *in* their column: a join
instance, its queue's cursors and its store's total read and write
memoryviews of the block, so neither Python nor the C kernel
(:mod:`repro.engine.ckernels`) ever copies state in or out.

This module is the single definition of the rows, shared by the Python
classes and (as ``#define`` lines) by the C source.  A second pair of
blocks holds the tick's report, one column per instance as well.
"""

from __future__ import annotations

# --------------------------------------------------------------------- #
# queue cursors (repro.engine.queues.TupleQueue)
# --------------------------------------------------------------------- #

Q_HEAD = 0       # ring index of the oldest element
Q_SIZE = 1       # live elements
Q_CAP = 2        # ring capacity
Q_PROBES = 3     # live probe operations (phi_si)
Q_CONSUMED = 4   # lifetime tuples removed through consume()
Q_ORDERED = 5    # 1 while the live visible-times are nondecreasing
Q_MARK = 6       # consumed-count at which order returns (disorder watermark)
Q_KEY_LO = 7     # push-time key bounds (grow-only)
Q_KEY_HI = 8
Q_GEN = 9        # bumped whenever the ring arrays are reallocated
Q_NINT = 10
QF_TAIL = 0      # visible-time of the last in-order push
Q_NFLOAT = 1

# --------------------------------------------------------------------- #
# store (repro.join.storage.KeyedStore)
# --------------------------------------------------------------------- #

S_TOTAL = 0      # |R_i|
S_GEN = 1        # bumped when the dense table or the window ring moves
S_NINT = 2

#: keys in [0, DENSE_KEY_CAP) live in a store's dense count table, others
#: in its overflow dict.  At the cap the dense table costs 32 MB — large,
#: but bounded; real workloads use key universes of a few thousand.
DENSE_KEY_CAP = 1 << 22

# --------------------------------------------------------------------- #
# the table: instance scalars, then the store and queue blocks
# --------------------------------------------------------------------- #

I_MAX_CHUNK = 0
I_MODEL = 1      # MODEL_SCAN / MODEL_INDEXED / MODEL_OTHER
I_CRASHED = 2
I_STORED = 3     # lifetime stores served
I_PROBED = 4     # lifetime probes served
I_HOOKS = 5      # HOOK_* bits: Python work after the kernel
I_COST_CUT = 6   # 1: the C plan cuts chunks at a lower-bound price of the credit
I_STORE = 7                  # S_NINT rows
I_QUEUE = I_STORE + S_NINT   # Q_NINT rows
I_QGEN_SEEN = I_QUEUE + Q_NINT   # generations the pointers below are from
I_SGEN_SEEN = I_QGEN_SEEN + 1
I_P_KEYS = I_SGEN_SEEN + 1       # addresses of the queue's ring arrays
I_P_TIMES = I_P_KEYS + 1
I_P_OPS = I_P_TIMES + 1
I_P_DENSE = I_P_OPS + 1          # the keyed store's dense count table
I_DENSE_LEN = I_P_DENSE + 1
I_P_ROW = I_DENSE_LEN + 1        # the window's current row (0: no window)
I_ROW_LEN = I_P_ROW + 1
I_P_PAUSE = I_ROW_LEN + 1        # the pause log as (start, end, cause) rows
I_PAUSE_LEN = I_P_PAUSE + 1      # ... and its number of intervals
N_INT = I_PAUSE_LEN + 1

F_CREDIT = 0     # work credit (overdraft carried across ticks)
F_CAPACITY = 1
F_PAUSED = 2     # paused until this simulated time (0: not paused)
F_EWMA = 3       # smoothed probe backlog
F_TAU = 4
F_FLOOR = 5      # cheapest operation's cost: bounds the peek
F_LAT_OFFSET = 6
F_RESULTS = 7    # lifetime join results
F_PAUSE_END = 8  # end of the last logged pause (-inf: empty log)
F_STORE_COST = 9
F_PROBE_BASE = 10
F_SCAN_COEFF = 11
F_EMIT_COST = 12
F_QUEUE = 13                 # Q_NFLOAT rows
N_FLOAT = F_QUEUE + Q_NFLOAT

MODEL_SCAN = 0
MODEL_INDEXED = 1
MODEL_OTHER = 2

HOOK_FT = 1      # a checkpointer is attached (WAL copy-out)
HOOK_TRACK = 2   # per-key result tracking (differential validation)
HOOK_OBS = 4     # an observability bundle is attached

PAUSE_MIGRATION = 0  # pause-log cause codes
PAUSE_RECOVERY = 1

# --------------------------------------------------------------------- #
# the tick's report
# --------------------------------------------------------------------- #

R_N = 0          # visible chunk length staged (0: idle)
R_NSTORES = 1    # stores in the chunk
R_OFF = 2        # chunk offset in the staging blocks
R_TAKE = 3       # tuples served
R_STORED = 4     # stores among them
R_SEG = 5        # offset of their latencies/components in the report
R_FLAGS = 6      # FL_* bits
NR_INT = 7

RF_RESULTS = 0   # join results of the served probes
RF_SPENT = 1     # work units spent
RF_LATENCY = 2   # sum of the served tuples' latencies
RF_SERVICE = 3   # ... of their service components
RF_MIGRATION = 4  # ... of their migration-pause overlaps
RF_RECOVERY = 5  # ... of their recovery-pause overlaps
NR_FLOAT = 6

# What Python must do for an instance around the kernel.
FL_GATHER = 1     # the chunk has probes: gather the stored counts
FL_PSK = 2        # mixed chunk with keys outside the C counter range
FL_GROW = 4       # the chunk has stores: grow the dense table / window row
FL_COUNTER = 8    # mixed chunk: grow the shared same-key counter table
FL_STORE = 16     # stores with keys outside the dense table's range
FL_MIG = 32       # the report carries migration-pause overlaps
FL_WAL = 64       # stores served under a checkpointer
FL_TRACK = 128    # probes served under result tracking
FL_OBS = 256      # observability hook
FL_REC = 512      # the report carries recovery-pause overlaps

#: the C same-key counter covers keys in [0, PSK_CAP): a wider key range
#: would ask for a >16 MB counter table, so such chunks (no shipped
#: workload comes close) take the numpy correction.
PSK_CAP = 1 << 21

# --------------------------------------------------------------------- #
# the dispatcher's scratch block (one column per destination)
# --------------------------------------------------------------------- #

DS_CNT = 0       # tuples routed to the destination
DS_FLAG = 1      # 1: refused (ring full or its pointers stale)
DS_LO = 2        # the batch's key bounds at the destination
DS_HI = 3
DS_POS = 4       # ring write position
DS_KEYS = 5      # ring array addresses
DS_TIMES = 6
DS_OPS = 7
DS_NROW = 8


def column_field(column: str, row: int, doc: str) -> property:
    """A property reading and writing ``self.<column>[row]``.

    For cold paths and readability; hot paths index the column directly
    (a property call costs more than the memoryview access).
    """

    def get(self):
        return getattr(self, column)[row]

    def set(self, value):
        getattr(self, column)[row] = value

    return property(get, set, doc=doc)


def c_defines() -> str:
    """Every row and flag of this module as C ``#define`` lines."""
    return "\n".join(
        f"#define {name} {value}"
        for name, value in sorted(globals().items())
        if name.isupper() and isinstance(value, int)
    )
