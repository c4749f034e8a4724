"""Introspection helpers: explain what the compiler and the action
cache did.

These are the tools you reach for when a simulator is slower than
expected ("why is this variable dynamic?") or when validating that the
specialized action cache looks like the paper's Figure 2/3 — entries
keyed by run-time static state, linked actions, per-value successor
chains at dynamic result tests.
"""

from __future__ import annotations

from .analysis import CheckReport
from .analysis import why_dynamic as _why_dynamic
from .bta import DYNAMIC
from .compiler import CompilationResult
from .runtime import ENDMARK, PENDING, ActionCache, CacheEntry


def explain_division(result: CompilationResult) -> str:
    """Human-readable binding-time report for a compiled simulator."""
    division = result.division
    lines = [f"binding-time division for {result.simulator.name!r}"]
    lines.append(f"  step-function parameters (rt-static keys): {len(result.flat.params)}")
    lines.append(f"  dynamic result tests inserted: {result.n_dynamic_result_tests}")
    lines.append(f"  constant folds: {result.n_constant_folds}")

    globals_ = sorted(result.info.globals)
    dynamic_globals = [g for g in globals_ if division.var_bt(g) == DYNAMIC]
    constants = [g for g in globals_ if g not in division.assigned_globals]
    local_like = sorted(division.local_like_globals)
    lines.append(f"  dynamic globals:   {', '.join(dynamic_globals) or '(none)'}")
    lines.append(f"  program constants: {', '.join(constants) or '(none)'}")
    lines.append(f"  local-like (rt-static) globals: {', '.join(local_like) or '(none)'}")
    lines.append(f"  flushed at step end: {', '.join(division.flush_globals) or '(none)'}")

    dynamic_locals = sorted(
        name
        for name, bt in division.bt.items()
        if bt == DYNAMIC and name not in result.info.globals
    )
    lines.append(f"  dynamic locals (shared slots): {len(dynamic_locals)}")
    for name in dynamic_locals[:20]:
        lines.append(f"    {name}: {division.var_shape(name)}")
    if len(dynamic_locals) > 20:
        lines.append(f"    ... and {len(dynamic_locals) - 20} more")
    summary = result.simulator.division_summary
    lines.append(
        f"  generated actions: {summary['n_actions']} "
        f"({summary['n_verify_actions']} dynamic result tests)"
    )
    return "\n".join(lines)


def explain_check(report: CheckReport) -> str:
    """Human-readable static-analysis report (``repro check`` output
    plus which passes actually ran)."""
    counts = report.sink.counts()
    lines = [f"static analysis for {report.file!r}"]
    lines.append(f"  passes run: {', '.join(report.passes) or '(none)'}")
    lines.append(
        f"  verdict: {'clean' if report.clean else 'dirty'}"
        f" ({counts['error']} error(s), {counts['warning']} warning(s),"
        f" {counts['info']} info(s), {len(report.sink.suppressed)} suppressed)"
    )
    ir = report.ir
    if ir:
        lines.append(
            f"  ir tier: {ir.get('bodies_lowerable', 0)} replay bodies "
            f"lower to the C tier, {ir.get('bodies_python', 0)} stay "
            f"Python, {ir.get('bodies_rejected', 0)} rejected by the "
            "verifier"
        )
        externs = ir.get("externs") or []
        if externs:
            lines.append(f"  ir externs: {', '.join(externs)}")
        census = ir.get("wrap_census") or {}
        if census:
            ops = ", ".join(
                f"{op}×{n}" for op, n in sorted(census.items())
            )
            lines.append(f"  64-bit wrap/guard op census: {ops}")
    body = report.render_text()
    return "\n".join(lines) + ("\n" + body if body else "")


def why_dynamic(result: CompilationResult, name: str) -> list[str]:
    """Explain why ``name`` is dynamic in a compiled simulator.

    Returns provenance lines tracing the variable back to the dynamic
    roots (extern calls, non-pure built-ins, dynamic globals) that
    forced it dynamic; empty if the variable is run-time static.
    ``name`` may be a source-level name or a flattened unique name.
    """
    return _why_dynamic(result.flat, result.division, name)


def dump_entry(entry: CacheEntry, max_depth: int = 200) -> str:
    """Render one specialized-action-cache entry as a tree (Figure 3),
    read straight off its packed lanes (no accounting side effects)."""
    lines = [f"entry key={_short(entry.key)} complete={entry.complete}"]
    _dump_chain(entry.packed, 0, lines, indent=1, budget=[max_depth])
    return "\n".join(lines)


def _dump_chain(chain, i: int, lines: list[str], indent: int,
                budget: list[int]) -> None:
    pad = "  " * indent
    nums = chain.nums
    values = chain.pool.values
    while i < len(nums) and budget[0] > 0:
        budget[0] -= 1
        num = nums[i]
        if num == ENDMARK:
            lines.append(f"{pad}END")
            return
        data = _short(values[chain.data[i]])
        if num >= 0:
            lines.append(f"{pad}action {num} data={data}")
            i += 1
            continue
        lines.append(f"{pad}verify action {~num} data={data}")
        for value, j in _successors(chain, i):
            lines.append(f"{pad}  result {value!r} ->")
            _dump_chain(chain, j, lines, indent + 2, budget)
        return
    if budget[0] <= 0:
        lines.append(f"{pad}... (truncated)")


def _successors(chain, i: int) -> list[tuple]:
    """``(observed value, next slot)`` arms of the verify in slot ``i``:
    none while its result is pending, one for a single successor, a
    jump table's arms in recording order."""
    s = chain.succ[i]
    if s == PENDING:
        return []
    if s >= 0:
        return [(chain.pool.values[s], i + 1)]
    return list(chain.tables[~s].items())


def cache_summary(cache: ActionCache, engine=None) -> str:
    """Aggregate statistics plus a path-shape census of the cache.

    With ``engine`` (a :class:`FastForwardEngine`), also renders its
    report's replay backend block (:meth:`~repro.facile.run.RunReport.
    backend_lines`), as the CLI prints it."""
    stats = cache.stats
    n_forks = 0
    n_records = 0
    max_succ = 0
    for entry in cache.entries.values():
        chain = entry.packed
        for i, num in enumerate(chain.nums):
            if num == ENDMARK:
                continue
            n_records += 1
            if num < 0:
                n_forks += 1
                max_succ = max(max_succ, len(_successors(chain, i)))
    lines = [
        "specialized action cache",
        f"  entries:          {len(cache.entries)} live "
        f"({stats.entries_created} created, {stats.clears} clears)",
        f"  records walked:   {n_records} "
        f"({n_forks} dynamic result tests, widest fork {max_succ})",
        f"  bytes:            {stats.bytes_current:,} current, "
        f"{stats.bytes_cumulative:,} cumulative "
        f"({stats.bytes_shared:,} mmap-shared, "
        f"{stats.bytes_current - stats.bytes_shared:,} private)",
        f"  lookups:          {stats.lookups:,} "
        f"({stats.hits:,} hits, {stats.misses_new_key:,} new keys, "
        f"{stats.misses_verify:,} verify misses)",
    ]
    pool = cache.pool
    n_packed = sum(1 for e in cache.entries.values() if e.complete)
    pack_ratio = n_packed / max(1, len(cache.entries))
    hit_rate = 100 * pool.hits / max(1, pool.hits + pool.misses)
    lines += [
        f"  flat pack:        {n_packed}/{len(cache.entries)} entries packed "
        f"({100 * pack_ratio:.1f}%, {stats.packs} packs, "
        f"{stats.unpacks} unpacks)",
        f"  intern pool:      {pool.live_values():,} values, "
        f"{pool.bytes_live:,} bytes live, {hit_rate:.1f}% hit rate, "
        f"{pool.bytes_saved:,} bytes saved",
    ]
    if stats.snapshot_entries or stats.snapshot_rejected or stats.bytes_shared:
        n_shared = sum(
            1 for e in cache.entries.values()
            if e.packed.shared
        )
        lines.append(
            f"  snapshot:         {stats.snapshot_entries} entries loaded, "
            f"{n_shared} still mmap-backed, "
            f"{stats.snapshot_rejected} snapshots rejected"
        )
    if engine is not None:
        lines += [f"  {line}" for line in engine.report.backend_lines()]
    return "\n".join(lines)


def hot_actions(engine, result: CompilationResult, top: int = 10) -> str:
    """Rank actions by fast-engine execution count.

    Requires ``engine.profile()`` to have been enabled before the run.
    Each row shows the action's replay count and its generated code, so
    the costliest dynamic basic blocks are immediately visible.
    """
    profile = engine.action_profile
    if profile is None:
        return "profiling was not enabled (call engine.profile() before run)"
    bodies = _action_bodies(result.simulator.source_fast)
    total = sum(profile.values()) or 1
    lines = [f"hot actions ({total:,} replays total)"]
    ranked = sorted(profile.items(), key=lambda kv: -kv[1])[:top]
    for num, count in ranked:
        body = bodies.get(num, ["<unknown>"])
        head = body[0] if body else ""
        lines.append(
            f"  action {num:>4}: {count:>10,} ({100 * count / total:5.1f}%)  {head.strip()}"
        )
        for extra in body[1:3]:
            lines.append(" " * 34 + extra.strip())
    return "\n".join(lines)


def _action_bodies(fast_source: str) -> dict[int, list[str]]:
    """Map action number -> generated body lines, parsed from the fast
    engine's source text."""
    bodies: dict[int, list[str]] = {}
    current: int | None = None
    for line in fast_source.splitlines():
        if line.startswith("def _a"):
            current = int(line[len("def _a"): line.index("(")])
            bodies[current] = []
        elif current is not None and line.startswith("    ") and "= _data" not in line:
            bodies[current].append(line)
        elif not line.strip():
            current = None
    return bodies


def _short(value, limit: int = 60) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
