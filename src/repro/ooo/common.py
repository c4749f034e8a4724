"""The out-of-order micro-architecture model shared by all simulators.

Three implementations of **exactly this model** exist in the repo and are
co-simulated against each other in the tests:

* :mod:`repro.ooo.reference` — a conventional cycle-by-cycle Python
  simulator (the repo's *SimpleScalar-like* baseline, Figures 11/12);
* :mod:`repro.ooo.fastsim` — a hand-coded memoizing simulator (the
  repo's *FastSim* analogue, Figure 11);
* :mod:`repro.ooo.facile_ooo` — the same simulator written in Facile
  and compiled into a fast-forwarding simulator (Figure 12).

Model definition (functional-first, like SimpleScalar's sim-outorder and
the paper's own Facile simulator — footnote 2: "Instructions are first
interpreted for their functional behavior, then their pipeline timing is
simulated"):

State
  * a program-ordered instruction window of up to ``window_size``
    entries, each ``(cls, state, remaining, dep1, dep2)`` where deps are
    window-relative indices of the producing instructions (-1 = ready);
  * ``last_writer[33]``: window index of the most recent producer of
    each architectural register (index 32 is the condition-code
    register), -1 when the committed value is current;
  * functional fetch state ``(fpc, fnpc, annul)`` (SPARC delay slots);
  * ``stall`` (front-end bubble cycles left) and ``fetch_halted``.

Each cycle, **in this exact phase order**:

1. ``cycle += 1``.
2. **Retire** up to ``retire_width`` oldest entries in DONE state; then
   renormalize all dep and last-writer indices.
3. **Execute**: every EXEC entry's ``remaining`` decrements; on zero it
   becomes DONE.
4. **Issue**: scan the window oldest-first; a WAIT entry issues when its
   deps are DONE/retired, a function unit of its class group is free,
   and the global ``issue_width`` is not exhausted.  Issue sets
   ``remaining`` to the instruction latency.
5. **Fetch/dispatch**: if stalled, consume one stall cycle.  Otherwise
   fetch up to ``fetch_width`` instructions while the window has space:
   each is functionally executed (registers/memory/CC update
   immediately — values are always architecturally correct), then
   dispatched into the window.  Loads/stores access the data cache for
   their latency; conditional branches resolve against the direction
   predictor and indirect jumps against the BTB/RAS — a misprediction
   sets ``stall = mispredict_penalty``.  A fetch group ends at any taken
   control transfer, at a misprediction, or at ``halt`` (which stops
   fetch permanently).  Annulled delay slots are fetched but occupy no
   window entry.
6. Simulation halts when fetch has halted and the window is empty.

Dependences: each entry records at most the **two newest** producers
among its source registers (three-source stores drop the oldest).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import sparclite as S
from ..uarch.branch import FrontEndPredictor
from ..uarch.cache import CacheHierarchy, HierarchyConfig

# Window entry states.
ST_WAIT = 0
ST_EXEC = 1
ST_DONE = 2

CC_REG = 32  # pseudo-register index for the condition codes


@dataclass
class MachineConfig:
    """Configuration of the modeled R10000-like machine (paper §6.2:
    32-instruction window, branch prediction, non-blocking caches)."""

    window_size: int = 32
    fetch_width: int = 4
    issue_width: int = 4
    retire_width: int = 4
    mispredict_penalty: int = 3
    lat_ialu: int = 1
    lat_mul: int = 3
    lat_div: int = 12
    lat_branch: int = 1
    cache: HierarchyConfig = field(default_factory=HierarchyConfig)


# Function-unit groups: class -> (group name, per-cycle capacity).
FU_GROUP = {
    S.CLS_IALU: "alu",
    S.CLS_SETHI: "alu",
    S.CLS_HALT: "alu",
    S.CLS_MUL: "muldiv",
    S.CLS_DIV: "muldiv",
    S.CLS_LOAD: "mem",
    S.CLS_STORE: "mem",
    S.CLS_BRANCH: "br",
    S.CLS_CALL: "br",
    S.CLS_JMPL: "br",
}

FU_CAPACITY = {"alu": 4, "muldiv": 1, "mem": 2, "br": 1}


def fixed_latency(cls: int, config: MachineConfig) -> int:
    """Latency for non-memory classes (memory comes from the cache)."""
    if cls == S.CLS_MUL:
        return config.lat_mul
    if cls == S.CLS_DIV:
        return config.lat_div
    if cls in (S.CLS_BRANCH, S.CLS_CALL, S.CLS_JMPL):
        return config.lat_branch
    return config.lat_ialu


def source_regs(d: S.Decoded) -> list[int]:
    """Architectural source registers of a decoded instruction
    (CC_REG for the condition codes; %g0 is never a dependence)."""
    srcs: list[int] = []

    def add(reg: int) -> None:
        if reg != 0 and reg not in srcs:
            srcs.append(reg)

    if d.kind in ("arith", "mem", "halt"):
        if d.kind != "halt":
            add(d.rs1)
            if not d.use_imm:
                add(d.rs2)
        if d.kind == "mem" and S.MEM_BY_NAME[d.name].is_store:
            add(d.rd)
    elif d.kind == "branch":
        srcs.append(CC_REG)
    # call, sethi: no register sources.
    if d.name == "jmpl":
        pass  # rs1/rs2 already added via "arith"
    return srcs


def dest_reg(d: S.Decoded) -> int | None:
    """Architectural destination register, or None."""
    if d.kind == "arith" and d.name != "halt":
        return d.rd if d.rd != 0 else None
    if d.kind == "mem" and not S.MEM_BY_NAME[d.name].is_store:
        return d.rd if d.rd != 0 else None
    if d.kind == "sethi":
        return d.rd if d.rd != 0 else None
    if d.kind == "call":
        return 15
    return None


def sets_cc(d: S.Decoded) -> bool:
    return d.kind == "arith" and d.name in S.ARITH_BY_NAME and S.ARITH_BY_NAME[d.name].sets_cc


def is_return(d: S.Decoded) -> bool:
    """``ret`` == ``jmpl %o7 + 8, %g0``."""
    return d.name == "jmpl" and d.use_imm and d.rs1 == 15 and d.imm == 8 and d.rd == 0


@dataclass
class OooStats:
    cycles: int = 0
    retired: int = 0
    branches: int = 0
    mispredicts: int = 0
    loads: int = 0
    stores: int = 0

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0

    @classmethod
    def of_context(cls, ctx) -> OooStats:
        """The counts a compiled Facile pipeline model keeps in ``ctx``
        (its counters 0-3: loads, stores, branches, mispredicts)."""
        counts = ctx.counters
        return cls(cycles=ctx.cycles, retired=ctx.retired_total,
                   branches=counts.get("2", 0),
                   mispredicts=counts.get("3", 0),
                   loads=counts.get("0", 0), stores=counts.get("1", 0))


def default_uarch(config: MachineConfig):
    """Fresh (cache, predictor) pair for one simulation run."""
    return CacheHierarchy(config.cache), FrontEndPredictor()
