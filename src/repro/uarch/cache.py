"""Non-blocking cache hierarchy simulator.

The paper's out-of-order simulators model "non-blocking data caches"
whose simulator is called from the pipeline model but *not* memoized
(§6.2) — in our reproduction it is an extern, exactly mirroring that
split.  The model:

* two-level hierarchy (L1D, unified L2) with LRU set-associative arrays
  and write-allocate stores;
* **MSHRs** (miss status holding registers) make the L1 non-blocking: a
  miss to a line already in flight coalesces and waits only for the
  remaining fill time; when all MSHRs are busy the access stalls until
  the oldest entry retires;
* deterministic: latency is a pure function of the access sequence, so
  memoized replays that re-drive the cache see identical behaviour.

Module protocol (native externs): all mutable state lives in fixed-size
``array('q')`` buffers exposed via ``state_arrays()``, shared zero-copy
with the C replay kernel (:mod:`repro.facile.cbackend`); the kernel's
cache model and :meth:`CacheHierarchy.access` mutate identical memory,
so Python and native accesses interleave freely.  ``config_key()``
describes the geometry the native registry must match.  Tag arrays hold
line numbers MRU-first per set with ``-1`` for empty ways; MSHRs are a
compact (line, ready-cycle) pair of arrays with swap-removal — retire
order is irrelevant to the model, which only asks membership and min.
Natively-counted statistics accumulate in ``stats_delta`` and drain
into the per-level :class:`CacheStats` at kernel sync points.

The protocol is audited statically by ``repro check`` (FAC5xx, see
:mod:`repro.facile.ir_verify`): every reachable ``array('q')`` must
appear in ``state_arrays()`` by identity and ``config_key()`` must
cover every behavior-changing :class:`HierarchyConfig` field; a
nonconformant hierarchy is refused by the native registry at bind
time (the extern keeps the Python path) with the reason surfaced in
``cache_summary``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CacheConfig:
    name: str = "L1D"
    size_bytes: int = 16 * 1024
    line_bytes: int = 32
    assoc: int = 4
    hit_latency: int = 1


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    mshr_coalesced: int = 0
    mshr_stalls: int = 0
    prefetches: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


#: ``stats_delta`` layout shared with the C kernel: seven counters per
#: level, L1 at offset 0 and L2 at offset CS_NSTATS.
CS_ACCESSES = 0
CS_HITS = 1
CS_MISSES = 2
CS_EVICTIONS = 3
CS_COALESCED = 4
CS_STALLS = 5
CS_PREFETCHES = 6
CS_NSTATS = 7

_CS_FIELDS = (
    "accesses", "hits", "misses", "evictions",
    "mshr_coalesced", "mshr_stalls", "prefetches",
)


class CacheArray:
    """One level: LRU set-associative tag array (tags only, no data).

    Ways live in one flat ``array('q')``, ``assoc`` slots per set in
    MRU-first order, ``-1`` marking an empty way.
    """

    def __init__(self, config: CacheConfig):
        if config.size_bytes % (config.line_bytes * config.assoc):
            raise ValueError("cache size must be a multiple of line*assoc")
        self.config = config
        self.n_sets = config.size_bytes // (config.line_bytes * config.assoc)
        self.offset_bits = config.line_bytes.bit_length() - 1
        self.ways = array("q", [-1]) * (self.n_sets * config.assoc)
        self.stats = CacheStats()

    def line_of(self, addr: int) -> int:
        return addr >> self.offset_bits

    def contains_line(self, line: int) -> bool:
        """Membership probe with no LRU or statistics side effects."""
        base = (line % self.n_sets) * self.config.assoc
        ways = self.ways
        for j in range(self.config.assoc):
            if ways[base + j] == line:
                return True
        return False

    def lookup(self, addr: int) -> bool:
        """Probe and update LRU; returns hit."""
        line = self.line_of(addr)
        base = (line % self.n_sets) * self.config.assoc
        ways = self.ways
        self.stats.accesses += 1
        for j in range(self.config.assoc):
            if ways[base + j] == line:
                while j > 0:
                    ways[base + j] = ways[base + j - 1]
                    j -= 1
                ways[base] = line
                self.stats.hits += 1
                return True
        self.stats.misses += 1
        return False

    def fill(self, addr: int) -> int | None:
        """Install a line; returns the evicted line (or None)."""
        line = self.line_of(addr)
        base = (line % self.n_sets) * self.config.assoc
        ways = self.ways
        assoc = self.config.assoc
        for j in range(assoc):
            if ways[base + j] == line:
                return None
        evicted = ways[base + assoc - 1]
        for j in range(assoc - 1, 0, -1):
            ways[base + j] = ways[base + j - 1]
        ways[base] = line
        if evicted != -1:
            self.stats.evictions += 1
            return evicted
        return None


@dataclass
class HierarchyConfig:
    l1: CacheConfig = field(default_factory=lambda: CacheConfig("L1D", 16 * 1024, 32, 4, 1))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig("L2", 256 * 1024, 64, 8, 8))
    memory_latency: int = 40
    mshr_entries: int = 8
    store_latency: int = 1
    # Next-line prefetch on L1 misses: the sequential line is fetched
    # into L1 in the background (an MSHR entry, no extra latency charged
    # to the triggering access).
    prefetch_next_line: bool = False


class CacheHierarchy:
    """L1 + L2 + memory with MSHR-based non-blocking misses.

    ``access(addr, cycle, is_store)`` returns the load-use latency in
    cycles as seen by the pipeline.
    """

    LOAD = 0
    STORE = 1

    def __init__(self, config: HierarchyConfig | None = None):
        self.config = config or HierarchyConfig()
        self.l1 = CacheArray(self.config.l1)
        self.l2 = CacheArray(self.config.l2)
        # Compact MSHR file: slots [0, regs[0]) hold (line, ready-cycle)
        # pairs; retirement swap-removes.
        n = self.config.mshr_entries
        self.mshr_lines = array("q", [-1]) * n
        self.mshr_ready = array("q", [0]) * n
        self.regs = array("q", [0])  # [0] = MSHRs in use
        self.stats_delta = array("q", [0]) * (2 * CS_NSTATS)

    def config_key(self) -> tuple:
        c = self.config
        return (
            "hierarchy",
            c.l1.size_bytes, c.l1.line_bytes, c.l1.assoc, c.l1.hit_latency,
            c.l2.size_bytes, c.l2.line_bytes, c.l2.assoc, c.l2.hit_latency,
            c.memory_latency, c.mshr_entries, c.store_latency,
            bool(c.prefetch_next_line),
        )

    def state_arrays(self) -> dict[str, array]:
        return {
            "l1": self.l1.ways,
            "l2": self.l2.ways,
            "mshr_lines": self.mshr_lines,
            "mshr_ready": self.mshr_ready,
            "regs": self.regs,
            "stats_delta": self.stats_delta,
        }

    def drain_stats(self) -> None:
        delta = self.stats_delta
        for level, off in ((self.l1, 0), (self.l2, CS_NSTATS)):
            stats = level.stats
            for i, name in enumerate(_CS_FIELDS):
                if delta[off + i]:
                    setattr(stats, name, getattr(stats, name) + delta[off + i])
                    delta[off + i] = 0

    # -- MSHR file -----------------------------------------------------------

    def _mshr_get(self, line: int) -> int | None:
        lines = self.mshr_lines
        for i in range(self.regs[0]):
            if lines[i] == line:
                return self.mshr_ready[i]
        return None

    def _mshr_insert(self, line: int, ready: int) -> None:
        n = self.regs[0]
        self.mshr_lines[n] = line
        self.mshr_ready[n] = ready
        self.regs[0] = n + 1

    def _retire_mshrs(self, cycle: int) -> None:
        lines, ready = self.mshr_lines, self.mshr_ready
        n = self.regs[0]
        i = 0
        while i < n:
            if ready[i] <= cycle:
                n -= 1
                lines[i] = lines[n]
                ready[i] = ready[n]
                lines[n] = -1
                ready[n] = 0
            else:
                i += 1
        self.regs[0] = n

    # -- access --------------------------------------------------------------

    def access(self, addr: int, cycle: int, is_store: bool = False) -> int:
        """Simulate one data access; returns its latency in cycles."""
        addr &= 0xFFFFFFFF
        line = self.l1.line_of(addr)
        self._retire_mshrs(cycle)
        if self.l1.lookup(addr):
            # The line may still be in flight (installed by an earlier
            # miss whose fill has not completed): coalesce on its MSHR.
            pending = self._mshr_get(line)
            if pending is not None and pending > cycle:
                self.l1.stats.mshr_coalesced += 1
                latency = (pending - cycle) + self.config.l1.hit_latency
            else:
                latency = self.config.l1.hit_latency
            return self.config.store_latency if is_store else latency

        # L1 miss.  Coalesce with an outstanding fill when possible.
        pending = self._mshr_get(line)
        if pending is not None and pending > cycle:
            self.l1.stats.mshr_coalesced += 1
            fill_wait = pending - cycle
            self._fill_l1(addr)
            latency = fill_wait + self.config.l1.hit_latency
            return self.config.store_latency if is_store else latency

        # Allocate an MSHR; stall if all are busy.
        stall = 0
        if self.regs[0] >= self.config.mshr_entries:
            oldest_ready = min(self.mshr_ready[i] for i in range(self.regs[0]))
            stall = max(0, oldest_ready - cycle)
            self.l1.stats.mshr_stalls += 1
            self._retire_mshrs(oldest_ready)

        if self.l2.lookup(addr):
            fill_latency = self.config.l2.hit_latency
        else:
            fill_latency = self.config.l2.hit_latency + self.config.memory_latency
            self.l2.fill(addr)
        self._fill_l1(addr)
        self._mshr_insert(line, cycle + stall + fill_latency)
        latency = stall + fill_latency + self.config.l1.hit_latency
        if self.config.prefetch_next_line:
            self._prefetch(addr + self.config.l1.line_bytes, cycle + stall, fill_latency)
        return self.config.store_latency if is_store else latency

    def _prefetch(self, addr: int, cycle: int, base_latency: int) -> None:
        """Pull the sequential line into L1 if it is absent and an MSHR
        slot is free; never stalls the demand stream and never perturbs
        the demand hit/miss statistics."""
        line = self.l1.line_of(addr)
        if self.l1.contains_line(line) or self._mshr_get(line) is not None:
            return
        if self.regs[0] >= self.config.mshr_entries:
            return
        self.l1.stats.prefetches += 1
        if not self.l2.contains_line(self.l2.line_of(addr)):
            self.l2.fill(addr)
        self._fill_l1(addr)
        self._mshr_insert(line, cycle + base_latency)

    def _fill_l1(self, addr: int) -> None:
        evicted = self.l1.fill(addr)
        if evicted is not None:
            # Inclusive hierarchy: evicted L1 lines remain in L2.
            pass

    # -- reporting -----------------------------------------------------------

    @property
    def stats(self) -> dict[str, CacheStats]:
        return {"l1": self.l1.stats, "l2": self.l2.stats}
