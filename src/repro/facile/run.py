"""One run's settings in, one run's report out.

:class:`RunConfig` holds every knob of a memoizing run, each default
written once, and :meth:`RunConfig.drive` is the warm-start, run and
save sequence every runner shares.  :class:`RunReport` is what one run
did, built from counters alone by each run result's ``report``; the
CLI, ``inspect.cache_summary`` and the bench harness render it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, TypeVar

if TYPE_CHECKING:
    from .runtime import RunStats
    from .snapshot import SnapshotInfo

#: The packed-chain replay backends: the Python loop, or the C kernel
#: (which degrades to the Python loop, with a reason, where it can't).
REPLAY_BACKENDS = ("python", "c")

#: The step budget every runner defaults to (FastSim counts cycles):
#: far above any suite program, and the budget of ``repro minic``.  A
#: run still going when it ends stops short of ``halt`` and says so.
DEFAULT_MAX_STEPS = 50_000_000

T = TypeVar("T")


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run.

    ``memoized``: fast-forward through the action cache; off runs the
    conventional simulator.  ``cache_limit_bytes``: clear the whole
    cache once it outgrows this many bytes (paper §6.2; None is
    unlimited).  ``replay_backend``: one of :data:`REPLAY_BACKENDS`.
    ``index_links``: follow each step's recorded link to the next entry
    instead of looking its key up.
    ``cache_dir``: a content-addressed snapshot store to load from and
    save to; ``cache_load``/``cache_save``: explicit snapshot files,
    which win over the store.  FastSim reads ``memoized``,
    ``cache_limit_bytes``, ``replay_backend`` and the snapshot fields.
    """

    memoized: bool = True
    cache_limit_bytes: int | None = None
    replay_backend: str = "python"
    index_links: bool = True
    cache_dir: str | None = None
    cache_load: str | None = None
    cache_save: str | None = None

    def __post_init__(self) -> None:
        if self.replay_backend not in REPLAY_BACKENDS:
            raise ValueError(f"unknown replay backend {self.replay_backend!r}")

    @classmethod
    def of(cls, settings: RunConfig | None = None, **fields: Any) -> RunConfig:
        """``settings`` with ``fields`` replaced (``RunConfig(**fields)``
        when None): how every consumer takes a config, its fields by
        keyword, or both."""
        return cls(**fields) if settings is None else replace(settings, **fields)

    def engine(self, compiled, ctx):
        """The driver for one compiled simulator: the fast-forwarding
        engine, or the plain one when ``memoized`` is off."""
        from .runtime import FastForwardEngine, PlainEngine

        if self.memoized:
            return FastForwardEngine(compiled, ctx, self)
        return PlainEngine(compiled, ctx)

    def drive(self, target, fingerprint: Callable[[], str],
              run: Callable[[], T]) -> T:
        """``run()`` between a warm start of ``target`` (an engine or
        FastSim) and the save of its cache, when the run is memoized and
        names a snapshot; ``fingerprint()`` addresses the snapshot."""
        if not (self.memoized and (self.cache_dir or self.cache_load
                                   or self.cache_save)):
            return run()
        from .snapshot import warm_start

        warm = warm_start(target, fingerprint(), cache_dir=self.cache_dir,
                          cache_load=self.cache_load,
                          cache_save=self.cache_save)
        result = run()
        warm.finish()
        return result


@dataclass(frozen=True)
class RunReport:
    """What one run did, read off its counters.

    ``stats``: cycles with branch and memory counts (an ``OooStats``),
    where the simulator models time.  ``steps``: the fast/slow/recovered
    step split (a ``RunStats``; FastSim's steps are its cycles), None
    for the reference simulators.  ``backend``: the requested and active
    replay backend with the reason for any degrade; ``native``: the C
    backend's ``summary()`` when the kernel was stood up.
    ``memo_bytes``: bytes recorded over the run (Table 2);
    ``memo_bytes_current``: resident at its end, of which
    ``bytes_shared`` still mmap-shared.  ``pool``: the intern pool's
    live bytes, hits, misses and bytes saved.
    """

    retired: int
    halted: bool
    retired_fast: int = 0
    stats: Any = None
    steps: RunStats | None = None
    backend: dict | None = None
    native: dict | None = None
    clears: int = 0
    packs: int = 0
    unpacks: int = 0
    memo_bytes: int = 0
    memo_bytes_current: int = 0
    bytes_shared: int = 0
    pool: tuple[int, int, int, int] | None = None
    snapshot_load: SnapshotInfo | None = None
    snapshot_save: SnapshotInfo | None = None

    def lines(self, elapsed: float | None = None) -> list[str]:
        """The report as the CLI prints it; ``elapsed`` host seconds add
        the host-time line."""
        out = []
        st = self.stats
        if st is not None:
            out.append(f"cycles {st.cycles:,}  retired {st.retired:,}  "
                       f"IPC {st.retired / max(1, st.cycles):.2f}")
            out.append(f"branches {st.branches:,} ({st.mispredicts:,} "
                       f"mispredicted), loads {st.loads:,}, "
                       f"stores {st.stores:,}")
        else:
            out.append(f"retired {self.retired:,} instructions")
        if elapsed is not None:
            out.append(f"host time {elapsed:.2f}s "
                       f"({self.retired / max(elapsed, 1e-9) / 1000:.1f} kips)")
        s = self.steps
        if not self.halted:
            budget = f"{s.steps_total:,} steps" if s else "its step budget"
            out.append(f"did not halt within {budget}")
        if s is not None:
            out.append(f"steps: {s.steps_total:,} total, {s.steps_fast:,} "
                       f"fast, {s.steps_slow:,} slow, "
                       f"{s.steps_recovered:,} recovered")
        out += self.backend_lines()
        if self.clears:
            out.append(f"cache: {self.clears} clears")
        if self.packs:
            live, hits, misses, saved = self.pool
            out.append(f"flat pack: {self.packs:,} packs, "
                       f"{self.unpacks:,} unpacks; intern pool {live:,} "
                       f"bytes live, {100 * hits / max(1, hits + misses):.1f}% "
                       f"hit rate, {saved:,} bytes saved")
        return out + self._snapshot_lines()

    def backend_lines(self) -> list[str]:
        """The replay backend block, as the CLI and ``cache_summary``
        print it: nothing for a run that asked for Python and got it.
        A C run adds the bodies the kernel handed back to the spec, by
        reason, and each distinct reason a chain was not lowered (at
        most eight)."""
        b = self.backend
        if b is None or b["requested"] == b["active"] == "python":
            return []
        if b["active"] != "c":
            return [f"replay backend: python "
                    f"(requested {b['requested']}: {b['reason']})"]
        ns = self.native
        by_name = ns["externs"]
        detail = ", ".join(f"{name} {c['native']:,}/{c['python']:,}"
                           for name, c in sorted(by_name.items()))
        built = ("from the disk cache" if ns["library_cached"]
                 else f"cc {ns['library_ms']:.1f} ms")
        out = [
            f"replay backend: c (kernel ready in {b['compile_ms']:.1f} ms; "
            f"{ns['chains_lowered']:,} chains lowered "
            f"({ns['chains_unlowerable']:,} unlowerable, "
            f"{ns['chains_registered_at_load']:,} registered at load), "
            f"{ns['links_in_python']:,} links in python, "
            f"{ns['values_mirrored']:,} pool values mirrored, "
            f"{ns['runs']:,} kernel runs, {ns['python_fallbacks']:,} "
            f"python fallbacks)",
            f"body library: {ns['bodies_compiled']:,} bodies compiled to C "
            f"({built})",
            f"externs: {sum(c['native'] for c in by_name.values()):,} "
            f"native / {sum(c['python'] for c in by_name.values()):,} python"
            + (f" ({detail})" if detail else ""),
        ]
        if ns["handbacks"]:
            out.append("bodies handed back to the spec: " + ", ".join(
                f"{name} ×{n:,}" for name, n in sorted(ns["handbacks"].items())))
        out += [f"unlowerable ×{n}: {reason}" for reason, n
                in sorted(ns["unlowerable_reasons"].items())[:8]]
        return out + [f"why not native: {name}: {why}"
                      for name, why in sorted(ns["extern_whynot"].items())]

    def _snapshot_lines(self) -> list[str]:
        out = []
        load, save = self.snapshot_load, self.snapshot_save
        if load is not None and load.hit:
            ns = self.native
            warm = "" if ns is None else (
                f"; {ns['chains_registered_at_load']:,} chains registered "
                f"at load, {ns['links_in_python']:,} links in python, "
                f"{ns['bodies_compiled']:,} bodies compiled")
            out.append(f"snapshot: hit — {load.entries:,} entries, "
                       f"{load.pool_values:,} pool values, "
                       f"{load.file_bytes:,} file bytes "
                       f"({self.bytes_shared:,} bytes still mmap-shared)"
                       f"{warm}")
        elif load is not None:
            out.append(f"snapshot: miss ({load.reason}) — cold start")
        if save is not None and save.hit:
            out.append(f"snapshot: saved {save.entries:,} entries "
                       f"({save.file_bytes:,} bytes) to {save.path}")
        elif save is not None:
            out.append(f"snapshot: {save.reason}")
        return out
