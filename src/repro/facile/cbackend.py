"""C replay backend: packed-chain replay as native code.

The Python packed loop (``FastForwardEngine._fast_step_packed``) spends
nearly all of its time in interpreter dispatch: one Python call per
action body, one frame per helper.  This backend hands complete
:class:`~repro.facile.runtime.PackedChain` entries to a small C kernel
compiled **once per process** (``cc -O2 -shared``, cached on disk by
source hash) and driven through :mod:`ctypes`.  The kernel replays
whole runs of steps per call: it walks chains, runs bodies on a raw
``int64`` stack machine, probes verify jump tables, follows likely-next
links by value tag, and only returns to Python on a verify miss, a link
it cannot resolve, an exhausted budget, or a halt.

Lowering is one kernel call per chain.  :func:`plan_chain` passes the
chain's ``nums``/``data``/``succ`` lanes (private ``array('q')`` or
mmap-backed snapshot ``memoryview`` alike, copied at C speed) and its
multi-successor jump tables; lane registration checks every index and
slot kind and builds the walker's per-chain arrays.  The per-value and
per-body work happens once per engine, in two kernel-side tables:

* the **pool mirror** holds each intern-pool value the kernel has seen,
  flattened into one ``int64`` arena (non-int members travel as object
  registry ids) with its kind and placeholder shape.  The pool's
  release hook makes the mirror forget an index whose last reference
  died, and the arena compacts once forgotten values outnumber live
  ones, so its size follows the live pool;
* the **body table** maps ``(action, shape)`` to a body program,
  compiled by :func:`~repro.facile.replay_ir.compile_body` and passed
  through the verifier gate (:func:`~repro.facile.ir_verify.assert_lowerable`)
  the first time a chain needs it.

When registration meets a value or body it does not have yet, it says
so; Python supplies it and calls again.

Contract with the Python backend (the behavior reference):

* **Same lanes.**  Registration reads the canonical lanes and the
  intern pool and never touches the billed replay view, so byte
  accounting (``recount_bytes``, ``recount_shared_bytes``) is unchanged
  by backend choice.
* **Same statistics.**  Link follows bill ``lookups``/``hits`` and
  refresh stamps exactly as the Python chain loop; verify misses bill
  ``misses_verify`` and recover through the slow engine with the same
  consumed-values list (the missed value included); every body run
  counts in ``actions_replayed``.
* **Fallback for what the kernel cannot take.**  A chain registration
  refuses — a body outside the IR's closed operation set or rejected by
  the verifier, data outside i64, a non-int verify value, a lane index
  out of range — is marked unlowerable (``entry.cnative = -1``, with
  the reason counted in ``unlowerable_reasons``) and that entry replays
  on the Python tiers.  Slot values the kernel cannot mirror (huge ints,
  aliased lists) fall back per call.  A missing C compiler (or
  ``FACILE_NO_CC=1``) degrades the whole engine to the Python backend
  with a reported, non-fatal status.  A guarded kernel error (division
  by zero, bad shift, address out of range) raises ``SimulationError``;
  it does not fall back.

State synchronization: scalar slots, register-file lists, statistics,
and counters are mirrored into a C-side ``St`` struct around each
kernel call (counters travel as deltas); target-memory pages are pinned
zero-copy via ``from_buffer`` into a two-level C page table, reset when
``SimContext.restore`` swaps the page dict (``Memory._epoch``).
Externs (cache model, branch predictor) call back into Python with the
live cycle counters synced first, exactly as the interpreted bodies
would observe them.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import time
from array import array
from dataclasses import dataclass

from .ir_verify import assert_lowerable
from .replay_ir import ExternTable, OP_NAMES, Unlowerable, compile_body
from .runtime import ENDMARK, SimulationError

# ---------------------------------------------------------------------------
# Kernel exit / error codes (shared with the C source below)
# ---------------------------------------------------------------------------

X_BUDGET = 0  # budget exhausted at a step boundary
X_HALTED = 1  # target halted at a step boundary
X_MISS = 2    # verify miss: recover through the slow engine
X_NEXT = 3    # step boundary, link unset/stale: Python resolves
X_ERR = 4     # kernel error (see E_*); wrapper raises

E_NONE = 0
E_DIV0 = 1     # division by zero (Python would raise ZeroDivisionError)
E_SHIFT = 2    # shift/width out of the kernel's i64 domain
E_COUNTER = 3  # stat_count id outside [0, 256)
E_EXTERN = 4   # extern callback raised (wrapper re-raises the original)
E_SLOT = 5     # object slot read into computation / bad element index
E_BADOP = 6    # malformed bytecode or chain (compiler bug)
E_ADDR = 7     # memory address outside the kernel's 32-bit page table
E_CONSUMED = 8  # more than MAX_CONSUMED verify values in one step

E_NAMES = [
    "E_NONE", "E_DIV0", "E_SHIFT", "E_COUNTER", "E_EXTERN", "E_SLOT",
    "E_BADOP", "E_ADDR", "E_CONSUMED",
]

#: Mirrored limits (keep in sync with the C source).
MAX_SLOTS = 64
NCOUNTERS = 256
MAX_CONSUMED = 8192

# Pool-mirror value kinds, lane-registration results and refusal
# reasons (keep in sync with the C source).
PK_INT, PK_TUPLE, PK_BAD = 1, 2, 3
R_NEED, R_REFUSED, R_NOMEM = -1, -2, -3
NEED_CAP = 256
F_END, F_POOL, F_SCALAR, F_DATA, F_KIND, F_EXPECT, F_TABLE, F_SUCC = range(1, 9)

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


# ---------------------------------------------------------------------------
# The C kernel source
# ---------------------------------------------------------------------------

def _opcode_defines() -> str:
    return "\n".join(
        f"#define OP_{name} {i}" for i, name in enumerate(OP_NAMES)
    )


_C_SOURCE_TEMPLATE = r"""
/* Facile packed-chain replay kernel.  Generated by repro.facile.cbackend;
 * the authoritative opcode semantics live in repro/facile/replay_ir.py
 * (interpret_body) and must match this file exactly. */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;

%(OPCODES)s

/* Chain slot kinds, decoded from the packed lanes at registration. */
#define K_ACTION 0
#define K_VERIFY_EQ 1
#define K_VERIFY_TAB 2
#define K_END 3

#define ENDMARK %(ENDMARK)sLL

/* Pool-mirror value kinds (PK_NONE: not mirrored yet). */
#define PK_NONE 0
#define PK_INT 1
#define PK_TUPLE 2
#define PK_BAD 3

/* ffc_add_chain results (>= 0 is the chain id) and refusal reasons. */
#define R_NEED -1
#define R_REFUSED -2
#define R_NOMEM -3
#define NEED_CAP 256

#define F_END 1
#define F_POOL 2
#define F_SCALAR 3
#define F_DATA 4
#define F_KIND 5
#define F_EXPECT 6
#define F_TABLE 7
#define F_SUCC 8

#define X_BUDGET 0
#define X_HALTED 1
#define X_MISS 2
#define X_NEXT 3
#define X_ERR 4

#define E_NONE 0
#define E_DIV0 1
#define E_SHIFT 2
#define E_COUNTER 3
#define E_EXTERN 4
#define E_SLOT 5
#define E_BADOP 6
#define E_ADDR 7
#define E_CONSUMED 8

#define MAX_SLOTS 64
#define NCOUNTERS 256
#define MAX_CONSUMED 8192
#define VM_STACK 128
#define VM_LOCALS 32
#define PAGE_SIZE 4096
#define PT1 1024
#define PT2 1024
#define M32 0xFFFFFFFFULL

/* Native extern registry: in-kernel implementations of the shipped
 * uarch timing models (repro/uarch/branch.py, repro/uarch/cache.py —
 * the executable specification these must match bit for bit).  Model
 * state lives in Python array('q') buffers bound zero-copy. */
#define MAX_NX 64
#define NX_ARRS 12
#define NX_PARAMS 16

#define NX_BIMODAL 0
#define NX_GSHARE 1
#define NX_TOURN 2
#define NX_TAKEN 3
#define NX_NOTTAKEN 4
#define NX_BIND 5
#define NX_BCALL 6
#define NX_CACHE 7

typedef unsigned char *(*page_fn)(i64 pageno);
typedef i64 (*extern_fn)(i64 xid, i64 nargs, i64 *args);

typedef struct {
    i64 kind;
    i64 params[NX_PARAMS];
    i64 *arr[NX_ARRS];
    i64 arrn[NX_ARRS];
} Nx;

typedef struct {
    i64 *code;
    i64 n;
    i64 is_verify;
} Prog;

typedef struct {
    i64 n;
    unsigned char *kinds;
    int *progids;
    i64 *doffs;    /* arena offset of the slot's placeholder data */
    i64 *aux;      /* VERIFY_EQ: expected value; VERIFY_TAB: table id;
                      END: end-record index */
    i64 *tabs;     /* jump tables: [len, key, target, key, target, ...] */
    i64 *toffs;    /* table id -> offset of its len word in tabs */
    i64 nends;
    unsigned char *lset;   /* per end-record: likely-next link present */
    i64 *lexpect;          /* expected init tag: (value << 1) | isobj */
    i64 *lnext;            /* successor chain id */
    unsigned char visited;
} Chain;

/* One mirrored intern-pool value: its kind (PK_*), shape id and words
 * in the arena.  Every mirrored value takes at least one word, so live
 * values have distinct offsets (compaction remaps by them). */
typedef struct {
    i64 kind, shape, off, len;
} PVal;

/* The leading fields up to and including nconsumed are mirrored by the
 * ctypes _StPrefix structure in cbackend.py; do not reorder them
 * (ffc_prefix_bytes lets the tests check the two layouts agree). */
typedef struct {
    i64 cycles, retired_total, retired_fast, halted, err, err_a;
    i64 slots[MAX_SLOTS];
    unsigned char isobj[MAX_SLOTS];
    i64 *arrp[MAX_SLOTS];
    i64 arrlen[MAX_SLOTS];
    i64 counters[NCOUNTERS];
    unsigned char cdirty[NCOUNTERS];
    i64 consumed[MAX_CONSUMED];
    i64 nconsumed;
    /* --- C-only state below (opaque to Python) --- */
    unsigned char **pt[PT1];
    Prog *progs;
    i64 nprogs, progcap;
    /* Body table: btab[shape * bcols + action] -> program id, or -1. */
    int *btab;
    i64 brows, bcols;
    /* Pool mirror, indexed by intern-pool index. */
    PVal *pool;
    i64 npool;
    i64 *arena;
    i64 arena_n, arena_cap;
    i64 nmirrored, ndead;   /* values holding arena words; forgotten ones */
    Chain **chains;
    i64 nchains, chaincap;
    i64 *visited;
    i64 nvisited, visitedcap;
    page_fn page_cb;
    extern_fn extern_cb;
    /* Native extern registry */
    Nx nx[MAX_NX];
    i64 nnx;
    i64 *nx_map;       /* xid -> nx index, or -1 for the callback path */
    i64 *nx_hits;      /* per-xid native dispatch count */
    i64 nxmap_n, nxmap_cap;
} St;

typedef struct {
    i64 code, err, cid, slot, end_ix, steps, actions, links;
} FfcExit;

St *ffc_new(void) {
    return (St *)calloc(1, sizeof(St));
}

i64 ffc_prefix_bytes(void) {
    return (i64)offsetof(St, pt);
}

void ffc_set_cbs(St *st, page_fn p, extern_fn x) {
    st->page_cb = p;
    st->extern_cb = x;
}

/* Grow an array of *cap elements of size bytes to hold at least need;
 * new elements are zeroed.  Returns the (possibly moved) array, or 0
 * with the old one untouched when memory runs out. */
static void *grow(void *p, i64 *cap, i64 need, i64 size) {
    if (need < 1) need = 1;
    if (p && need <= *cap) return p;
    i64 cap2 = *cap ? *cap : 64;
    while (cap2 < need) cap2 *= 2;
    char *np = (char *)realloc(p, cap2 * size);
    if (!np) return 0;
    memset(np + *cap * size, 0, (cap2 - *cap) * size);
    *cap = cap2;
    return np;
}

static i64 body_of(St *st, i64 action, i64 shape) {
    if (action < 0 || action >= st->bcols || shape < 0 || shape >= st->brows)
        return -1;
    return st->btab[shape * st->bcols + action];
}

/* Register one verified body program as the body of (action, shape). */
i64 ffc_add_body(St *st, i64 action, i64 shape, const i64 *code, i64 n,
                 i64 is_verify) {
    if (action < 0 || shape < 0) return -1;
    if (action >= st->bcols || shape >= st->brows) {
        i64 rows = shape >= st->brows ? shape + 8 : st->brows;
        i64 cols = action >= st->bcols ? action + 64 : st->bcols;
        int *t = (int *)malloc(rows * cols * sizeof(int));
        if (!t) return -1;
        memset(t, 0xff, rows * cols * sizeof(int));
        for (i64 r = 0; r < st->brows; r++)
            memcpy(t + r * cols, st->btab + r * st->bcols,
                   st->bcols * sizeof(int));
        free(st->btab);
        st->btab = t;
        st->brows = rows;
        st->bcols = cols;
    }
    Prog *np = (Prog *)grow(st->progs, &st->progcap, st->nprogs + 1,
                            sizeof(Prog));
    if (!np) return -1;
    st->progs = np;
    i64 *copy = (i64 *)malloc((n ? n : 1) * sizeof(i64));
    if (!copy) return -1;
    if (n) memcpy(copy, code, n * sizeof(i64));
    np[st->nprogs].code = copy;
    np[st->nprogs].n = n;
    np[st->nprogs].is_verify = is_verify;
    st->btab[shape * st->bcols + action] = (int)st->nprogs;
    return st->nprogs++;
}

/* Mirror pool values: meta holds (index, kind, shape, len) per value,
 * words their arena words back to back. */
i64 ffc_mirror(St *st, i64 n, const i64 *meta, const i64 *words) {
    i64 top = 0, total = n;
    for (i64 k = 0; k < n; k++) {
        if (meta[4 * k] >= top) top = meta[4 * k] + 1;
        total += meta[4 * k + 3];
    }
    PVal *pool = (PVal *)grow(st->pool, &st->npool, top, sizeof(PVal));
    if (!pool) return -1;
    st->pool = pool;
    i64 *arena = (i64 *)grow(st->arena, &st->arena_cap, st->arena_n + total,
                             sizeof(i64));
    if (!arena) return -1;
    st->arena = arena;
    for (i64 k = 0; k < n; k++, meta += 4) {
        PVal *v = &pool[meta[0]];
        if (v->kind != PK_NONE) st->ndead++;
        v->kind = meta[1];
        v->shape = meta[2];
        v->len = meta[3];
        v->off = st->arena_n;
        memcpy(arena + st->arena_n, words, v->len * sizeof(i64));
        words += v->len;
        st->arena_n += v->len ? v->len : 1;
        st->nmirrored++;
    }
    return 0;
}

/* Move the live values into a fresh arena and remap every registered
 * chain's data offsets with them (offsets are unique per value). */
static void compact(St *st) {
    i64 words = 0;
    for (i64 p = 0; p < st->npool; p++)
        if (st->pool[p].kind != PK_NONE)
            words += st->pool[p].len ? st->pool[p].len : 1;
    i64 *na = (i64 *)malloc((words ? words : 1) * sizeof(i64));
    i64 *remap = (i64 *)malloc((st->arena_n ? st->arena_n : 1) * sizeof(i64));
    if (!na || !remap) {
        free(na);
        free(remap);
        return;
    }
    i64 w = 0;
    for (i64 p = 0; p < st->npool; p++) {
        PVal *v = &st->pool[p];
        if (v->kind == PK_NONE) continue;
        memcpy(na + w, st->arena + v->off, v->len * sizeof(i64));
        remap[v->off] = w;
        v->off = w;
        w += v->len ? v->len : 1;
    }
    for (i64 c = 0; c < st->nchains; c++) {
        Chain *ch = st->chains[c];
        if (!ch) continue;
        for (i64 i = 0; i < ch->n; i++)
            if (ch->kinds[i] != K_END) ch->doffs[i] = remap[ch->doffs[i]];
    }
    free(remap);
    free(st->arena);
    st->arena = na;
    st->arena_n = w;
    st->arena_cap = words ? words : 1;
    st->nmirrored -= st->ndead;
    st->ndead = 0;
}

/* Forget released pool indices; compact once forgotten values hold
 * more of the arena than live ones. */
void ffc_forget(St *st, const i64 *idx, i64 n) {
    for (i64 k = 0; k < n; k++) {
        i64 p = idx[k];
        if (p >= 0 && p < st->npool && st->pool[p].kind != PK_NONE) {
            st->pool[p].kind = PK_NONE;
            st->ndead++;
        }
    }
    if (st->ndead > st->nmirrored - st->ndead) compact(st);
}

/* Values holding arena words: live ones plus forgotten ones awaiting
 * compaction. */
i64 ffc_mirrored(St *st) {
    return st->nmirrored;
}

static void chain_free(Chain *ch) {
    if (!ch) return;
    free(ch->kinds); free(ch->progids); free(ch->doffs); free(ch->aux);
    free(ch->tabs); free(ch->toffs);
    free(ch->lset); free(ch->lexpect); free(ch->lnext);
    free(ch);
}

static i64 pool_kind(St *st, i64 p) {
    return p < st->npool ? st->pool[p].kind : PK_NONE;
}

static i64 refuse(i64 *need, i64 why, i64 where, i64 what) {
    need[0] = why;
    need[1] = where;
    need[2] = what;
    return R_REFUSED;
}

#define NEED(a, b) do { \
        if (nneed < NEED_CAP) { \
            need[1 + 2 * nneed] = (a); \
            need[2 + 2 * nneed] = (b); \
        } \
        nneed++; \
    } while (0)

/* Register one packed chain from its nums/data/succ lanes (n slots,
 * nends end records, npool intern-pool values) and ntables jump
 * tables flattened as [len, key, target, ...] each.  Returns the chain
 * id; R_NEED with need[0] pairs after it, (pool index, -1) for a value
 * and (action, shape) for a body not mirrored yet; or R_REFUSED with
 * need = [F_* reason, slot (table for F_SUCC), detail]. */
i64 ffc_add_chain(St *st, const i64 *nums, const i64 *data, const i64 *succ,
                  i64 n, i64 nends, i64 npool, const i64 *tabs,
                  i64 ntables, i64 *need) {
    i64 nneed = 0, ntabw = 0;
    for (i64 t = 0; t < ntables; t++) {
        i64 len = tabs[ntabw++];
        for (i64 j = 0; j < len; j++, ntabw += 2)
            if (tabs[ntabw + 1] < 0 || tabs[ntabw + 1] > n)
                return refuse(need, F_SUCC, t, tabs[ntabw + 1]);
    }
    for (i64 i = 0; i < n; i++) {
        i64 num = nums[i], d = data[i], s = succ[i];
        if (num == ENDMARK) {
            if (s < 0 || s >= nends) return refuse(need, F_END, i, s);
            continue;
        }
        if (d < 0 || d >= npool) return refuse(need, F_POOL, i, d);
        i64 k = pool_kind(st, d);
        if (k == PK_NONE) {
            NEED(d, -1);
        } else if (k != PK_TUPLE) {
            return refuse(need, k == PK_INT ? F_SCALAR : F_DATA, i, d);
        } else {
            i64 a = num < 0 ? ~num : num, shape = st->pool[d].shape;
            i64 pid = body_of(st, a, shape);
            if (pid < 0) NEED(a, shape);
            else if (st->progs[pid].is_verify != (num < 0))
                return refuse(need, F_KIND, i, d);
        }
        if (num < 0 && s >= 0) {
            if (s >= npool) return refuse(need, F_POOL, i, s);
            k = pool_kind(st, s);
            if (k == PK_NONE) NEED(s, -1);
            else if (k != PK_INT) return refuse(need, F_EXPECT, i, s);
        } else if (num < 0 && ~s >= ntables) {
            return refuse(need, F_TABLE, i, ~s);
        }
    }
    if (nneed) {
        need[0] = nneed < NEED_CAP ? nneed : NEED_CAP;
        return R_NEED;
    }
    Chain **chains = (Chain **)grow(st->chains, &st->chaincap,
                                    st->nchains + 1, sizeof(Chain *));
    if (!chains) return R_NOMEM;
    st->chains = chains;
    Chain *ch = (Chain *)calloc(1, sizeof(Chain));
    if (!ch) return R_NOMEM;
    i64 m = n ? n : 1, e = nends ? nends : 1;
    ch->n = n;
    ch->nends = nends;
    ch->kinds = (unsigned char *)malloc(m);
    ch->progids = (int *)malloc(m * sizeof(int));
    ch->doffs = (i64 *)calloc(m, sizeof(i64));
    ch->aux = (i64 *)malloc(m * sizeof(i64));
    ch->tabs = (i64 *)malloc((ntabw ? ntabw : 1) * sizeof(i64));
    ch->toffs = (i64 *)malloc((ntables ? ntables : 1) * sizeof(i64));
    ch->lset = (unsigned char *)calloc(e, 1);
    ch->lexpect = (i64 *)calloc(e, sizeof(i64));
    ch->lnext = (i64 *)calloc(e, sizeof(i64));
    if (!ch->kinds || !ch->progids || !ch->doffs || !ch->aux || !ch->tabs
        || !ch->toffs || !ch->lset || !ch->lexpect || !ch->lnext) {
        chain_free(ch);
        return R_NOMEM;
    }
    if (ntabw) memcpy(ch->tabs, tabs, ntabw * sizeof(i64));
    for (i64 t = 0, w = 0; t < ntables; t++) {
        ch->toffs[t] = w;
        w += 1 + 2 * tabs[w];
    }
    for (i64 i = 0; i < n; i++) {
        i64 num = nums[i], s = succ[i];
        if (num == ENDMARK) {
            ch->kinds[i] = K_END;
            ch->progids[i] = -1;
            ch->aux[i] = s;
            continue;
        }
        PVal *v = &st->pool[data[i]];
        ch->doffs[i] = v->off;
        ch->progids[i] = (int)body_of(st, num < 0 ? ~num : num, v->shape);
        if (num >= 0) {
            ch->kinds[i] = K_ACTION;
            ch->aux[i] = 0;
        } else if (s >= 0) {
            ch->kinds[i] = K_VERIFY_EQ;
            ch->aux[i] = st->arena[st->pool[s].off];
        } else {
            ch->kinds[i] = K_VERIFY_TAB;
            ch->aux[i] = ~s;
        }
    }
    st->chains[st->nchains] = ch;
    return st->nchains++;
}

void ffc_drop_chain(St *st, i64 cid) {
    if (cid < 0 || cid >= st->nchains) return;
    chain_free(st->chains[cid]);
    st->chains[cid] = 0;
}

/* Drop every chain and reset the pool mirror (bodies stay). */
void ffc_drop_all_chains(St *st) {
    for (i64 i = 0; i < st->nchains; i++) {
        chain_free(st->chains[i]);
        st->chains[i] = 0;
    }
    st->nchains = 0;
    st->nvisited = 0;
    if (st->pool) memset(st->pool, 0, st->npool * sizeof(PVal));
    st->arena_n = 0;
    st->nmirrored = 0;
    st->ndead = 0;
}

/* Link tag of the live init value: (value << 1) | isobj. */
static i64 init_tag(St *st, i64 init_slot) {
    return (i64)(((u64)st->slots[init_slot] << 1) | st->isobj[init_slot]);
}

/* Link end record end_ix of chain cid to next_cid for the init value
 * the init slot holds now. */
void ffc_set_link(St *st, i64 cid, i64 end_ix, i64 init_slot,
                  i64 next_cid) {
    if (cid < 0 || cid >= st->nchains) return;
    Chain *ch = st->chains[cid];
    if (!ch || end_ix < 0 || end_ix >= ch->nends) return;
    ch->lset[end_ix] = 1;
    ch->lexpect[end_ix] = init_tag(st, init_slot);
    ch->lnext[end_ix] = next_cid;
}

void ffc_reset_pages(St *st) {
    for (i64 i = 0; i < PT1; i++) {
        free(st->pt[i]);
        st->pt[i] = 0;
    }
}

i64 ffc_pop_visited(St *st, i64 *out, i64 cap) {
    i64 n = st->nvisited < cap ? st->nvisited : cap;
    for (i64 k = 0; k < n; k++) {
        i64 cid = st->visited[st->nvisited - 1 - k];
        out[k] = cid;
        if (cid >= 0 && cid < st->nchains && st->chains[cid])
            st->chains[cid]->visited = 0;
    }
    st->nvisited -= n;
    return n;
}

/* -- native extern models ----------------------------------------------- */
/* Bit-for-bit ports of the Python reference models in repro/uarch/.
 * Array slot conventions (bound by _nx_lower on the Python side):
 *   direction kinds: arr[0]=table [arr[1]=regs]; TOURN arr[0]=chooser,
 *     arr[1]=bimodal table, arr[2]=gshare table, arr[3]=gshare regs,
 *     params[0]=entries, params[1]=gshare entries.
 *   NX_BIND/NX_BCALL: arr[0]=btb tags, arr[1]=btb targets,
 *     arr[2]=ras buf, arr[3]=ras regs; params[0]=btb entries,
 *     params[1]=ras depth.
 *   Front-end stat deltas [predictions, correct] always at arr[8].
 *   NX_CACHE: arr[0]=l1 ways, arr[1]=l2 ways, arr[2]=mshr lines,
 *     arr[3]=mshr ready, arr[4]=regs, arr[5]=stats_delta(14);
 *     params = [l1 nsets, l1 assoc, l1 offbits, l1 hitlat,
 *               l2 nsets, l2 assoc, l2 offbits, l2 hitlat,
 *               memlat, mshr entries, store lat, prefetch, l1 line]. */

static i64 nx_sat(i64 c, i64 taken) {
    if (taken) return c < 3 ? c + 1 : 3;
    return c > 0 ? c - 1 : 0;
}

static i64 nx_dir_predict(Nx *m, i64 pc) {
    switch (m->kind) {
    case NX_TAKEN: return 1;
    case NX_NOTTAKEN: return 0;
    case NX_GSHARE:
        return m->arr[0][((pc >> 2) ^ m->arr[1][0]) & (m->params[0] - 1)] >= 2;
    case NX_TOURN: {
        i64 pcx = pc >> 2;
        if (m->arr[0][pcx & (m->params[0] - 1)] >= 2)
            return m->arr[2][(pcx ^ m->arr[3][0]) & (m->params[1] - 1)] >= 2;
        return m->arr[1][pcx & (m->params[0] - 1)] >= 2;
    }
    default:  /* NX_BIMODAL */
        return m->arr[0][(pc >> 2) & (m->params[0] - 1)] >= 2;
    }
}

static void nx_dir_update(Nx *m, i64 pc, i64 taken) {
    switch (m->kind) {
    case NX_TAKEN:
    case NX_NOTTAKEN:
        return;
    case NX_GSHARE: {
        i64 n = m->params[0];
        i64 idx = ((pc >> 2) ^ m->arr[1][0]) & (n - 1);
        m->arr[0][idx] = nx_sat(m->arr[0][idx], taken);
        m->arr[1][0] = ((m->arr[1][0] << 1) | taken) & (n - 1);
        return;
    }
    case NX_TOURN: {
        i64 ents = m->params[0], gn = m->params[1];
        i64 pcx = pc >> 2;
        i64 cidx = pcx & (ents - 1);
        i64 gidx = (pcx ^ m->arr[3][0]) & (gn - 1);
        i64 bim_right = (m->arr[1][cidx] >= 2) == taken;
        i64 gsh_right = (m->arr[2][gidx] >= 2) == taken;
        if (gsh_right && !bim_right) {
            if (m->arr[0][cidx] < 3) m->arr[0][cidx]++;
        } else if (bim_right && !gsh_right) {
            if (m->arr[0][cidx] > 0) m->arr[0][cidx]--;
        }
        m->arr[1][cidx] = nx_sat(m->arr[1][cidx], taken);
        m->arr[2][gidx] = nx_sat(m->arr[2][gidx], taken);
        m->arr[3][0] = ((m->arr[3][0] << 1) | taken) & (gn - 1);
        return;
    }
    default: {  /* NX_BIMODAL */
        i64 idx = (pc >> 2) & (m->params[0] - 1);
        m->arr[0][idx] = nx_sat(m->arr[0][idx], taken);
        return;
    }
    }
}

/* FrontEndPredictor.resolve_branch */
static i64 nx_xbpred(Nx *m, i64 pc, i64 taken) {
    i64 t = taken != 0;
    i64 correct = nx_dir_predict(m, pc) == t;
    nx_dir_update(m, pc, t);
    m->arr[8][0] += 1;
    m->arr[8][1] += correct;
    return correct;
}

/* FrontEndPredictor.resolve_indirect */
static i64 nx_xbind(Nx *m, i64 pc, i64 target, i64 is_ret) {
    i64 correct = 0;
    if (is_ret) {
        i64 cnt = m->arr[3][0];
        if (cnt > 0) {
            m->arr[3][0] = cnt - 1;
            correct = m->arr[2][cnt - 1] == target;
        }
    } else {
        i64 idx = (pc >> 2) & (m->params[0] - 1);
        if (m->arr[0][idx] == pc) correct = m->arr[1][idx] == target;
    }
    i64 idx = (pc >> 2) & (m->params[0] - 1);
    m->arr[0][idx] = pc;
    m->arr[1][idx] = target;
    m->arr[8][0] += 1;
    m->arr[8][1] += correct;
    return correct;
}

/* FrontEndPredictor.note_call (RAS push) */
static i64 nx_xbcall(Nx *m, i64 ra) {
    i64 depth = m->params[1];
    i64 cnt = m->arr[3][0];
    if (cnt == depth) {
        for (i64 i = 0; i + 1 < depth; i++) m->arr[2][i] = m->arr[2][i + 1];
        m->arr[2][depth - 1] = ra;
        return 0;
    }
    m->arr[2][cnt] = ra;
    m->arr[3][0] = cnt + 1;
    return 0;
}

/* CacheArray.lookup — sd points at the level's 7-counter delta block. */
static i64 nxc_lookup(i64 *ways, i64 nsets, i64 assoc, i64 line, i64 *sd) {
    i64 base = (line %% nsets) * assoc;
    sd[0] += 1;  /* accesses */
    for (i64 j = 0; j < assoc; j++) {
        if (ways[base + j] == line) {
            while (j > 0) { ways[base + j] = ways[base + j - 1]; j--; }
            ways[base] = line;
            sd[1] += 1;  /* hits */
            return 1;
        }
    }
    sd[2] += 1;  /* misses */
    return 0;
}

static void nxc_fill(i64 *ways, i64 nsets, i64 assoc, i64 line, i64 *sd) {
    i64 base = (line %% nsets) * assoc;
    for (i64 j = 0; j < assoc; j++)
        if (ways[base + j] == line) return;
    i64 evicted = ways[base + assoc - 1];
    for (i64 j = assoc - 1; j > 0; j--) ways[base + j] = ways[base + j - 1];
    ways[base] = line;
    if (evicted != -1) sd[3] += 1;  /* evictions */
}

static i64 nxc_contains(i64 *ways, i64 nsets, i64 assoc, i64 line) {
    i64 base = (line %% nsets) * assoc;
    for (i64 j = 0; j < assoc; j++)
        if (ways[base + j] == line) return 1;
    return 0;
}

static i64 nxc_mshr_find(Nx *m, i64 line) {
    i64 *lines = m->arr[2];
    i64 n = m->arr[4][0];
    for (i64 i = 0; i < n; i++)
        if (lines[i] == line) return i;
    return -1;
}

static void nxc_retire(Nx *m, i64 cycle) {
    i64 *lines = m->arr[2], *ready = m->arr[3];
    i64 n = m->arr[4][0];
    i64 i = 0;
    while (i < n) {
        if (ready[i] <= cycle) {
            n--;
            lines[i] = lines[n];
            ready[i] = ready[n];
            lines[n] = -1;
            ready[n] = 0;
        } else {
            i++;
        }
    }
    m->arr[4][0] = n;
}

static void nxc_mshr_insert(Nx *m, i64 line, i64 ready) {
    i64 n = m->arr[4][0];
    m->arr[2][n] = line;
    m->arr[3][n] = ready;
    m->arr[4][0] = n + 1;
}

/* CacheHierarchy._prefetch */
static void nxc_prefetch(Nx *m, i64 addr, i64 cycle, i64 base_lat) {
    i64 *p = m->params;
    i64 line = addr >> p[2];
    if (nxc_contains(m->arr[0], p[0], p[1], line)) return;
    if (nxc_mshr_find(m, line) >= 0) return;
    if (m->arr[4][0] >= p[9]) return;
    m->arr[5][6] += 1;  /* l1 prefetches */
    i64 l2line = addr >> p[6];
    if (!nxc_contains(m->arr[1], p[4], p[5], l2line))
        nxc_fill(m->arr[1], p[4], p[5], l2line, m->arr[5] + 7);
    nxc_fill(m->arr[0], p[0], p[1], line, m->arr[5]);
    nxc_mshr_insert(m, line, cycle + base_lat);
}

/* CacheHierarchy.access */
static i64 nx_xcache(Nx *m, i64 addr, i64 is_store, i64 cycle) {
    i64 *p = m->params;
    i64 *sd = m->arr[5];
    addr &= (i64)M32;
    i64 line = addr >> p[2];
    nxc_retire(m, cycle);
    if (nxc_lookup(m->arr[0], p[0], p[1], line, sd)) {
        i64 mi = nxc_mshr_find(m, line);
        i64 lat = p[3];
        if (mi >= 0 && m->arr[3][mi] > cycle) {
            sd[4] += 1;  /* coalesced */
            lat = (m->arr[3][mi] - cycle) + p[3];
        }
        return is_store ? p[10] : lat;
    }
    i64 mi = nxc_mshr_find(m, line);
    if (mi >= 0 && m->arr[3][mi] > cycle) {
        sd[4] += 1;
        i64 lat = (m->arr[3][mi] - cycle) + p[3];
        nxc_fill(m->arr[0], p[0], p[1], line, sd);
        return is_store ? p[10] : lat;
    }
    i64 stall = 0;
    if (m->arr[4][0] >= p[9]) {
        i64 n = m->arr[4][0];
        i64 oldest = m->arr[3][0];
        for (i64 i = 1; i < n; i++)
            if (m->arr[3][i] < oldest) oldest = m->arr[3][i];
        stall = oldest - cycle;
        if (stall < 0) stall = 0;
        sd[5] += 1;  /* stalls */
        nxc_retire(m, oldest);
    }
    i64 fill;
    if (nxc_lookup(m->arr[1], p[4], p[5], addr >> p[6], sd + 7)) {
        fill = p[7];
    } else {
        fill = p[7] + p[8];
        nxc_fill(m->arr[1], p[4], p[5], addr >> p[6], sd + 7);
    }
    nxc_fill(m->arr[0], p[0], p[1], line, sd);
    nxc_mshr_insert(m, line, cycle + stall + fill);
    i64 lat = stall + fill + p[3];
    if (p[11]) nxc_prefetch(m, addr + p[12], cycle + stall, fill);
    return is_store ? p[10] : lat;
}

i64 ffc_nx_add(St *st, i64 kind, i64 *params, i64 nparams) {
    if (st->nnx >= MAX_NX) return -1;
    Nx *m = &st->nx[st->nnx];
    memset(m, 0, sizeof(Nx));
    m->kind = kind;
    for (i64 i = 0; i < nparams && i < NX_PARAMS; i++) m->params[i] = params[i];
    return st->nnx++;
}

void ffc_nx_set_arr(St *st, i64 nxid, i64 slot, i64 *ptr, i64 n) {
    if (nxid < 0 || nxid >= st->nnx || slot < 0 || slot >= NX_ARRS) return;
    st->nx[nxid].arr[slot] = ptr;
    st->nx[nxid].arrn[slot] = n;
}

i64 ffc_nx_bind(St *st, i64 xid, i64 nxid) {
    if (xid < 0 || nxid < 0 || nxid >= st->nnx) return -1;
    if (xid >= st->nxmap_cap) {
        i64 cap = st->nxmap_cap ? st->nxmap_cap : 16;
        while (cap <= xid) cap *= 2;
        i64 *nm = (i64 *)realloc(st->nx_map, cap * sizeof(i64));
        if (!nm) return -1;
        st->nx_map = nm;
        i64 *nh = (i64 *)realloc(st->nx_hits, cap * sizeof(i64));
        if (!nh) return -1;
        st->nx_hits = nh;
        for (i64 i = st->nxmap_cap; i < cap; i++) { nm[i] = -1; nh[i] = 0; }
        st->nxmap_cap = cap;
    }
    if (xid >= st->nxmap_n) st->nxmap_n = xid + 1;
    st->nx_map[xid] = nxid;
    return 0;
}

void ffc_nx_clear(St *st) {
    st->nnx = 0;
    for (i64 i = 0; i < st->nxmap_n; i++) {
        st->nx_map[i] = -1;
        st->nx_hits[i] = 0;
    }
    st->nxmap_n = 0;
}

i64 ffc_nx_hits(St *st, i64 xid) {
    if (xid < 0 || xid >= st->nxmap_n) return 0;
    return st->nx_hits[xid];
}

/* Exported for direct parity testing against the Python models. */
i64 ffc_nx_call(St *st, i64 nxid, i64 nargs, i64 *args) {
    Nx *m = &st->nx[nxid];
    switch (m->kind) {
    case NX_BIND:
        return nx_xbind(m, args[0], args[1], args[2] != 0);
    case NX_BCALL:
        return nx_xbcall(m, args[0]);
    case NX_CACHE: {
        i64 cycle = nargs >= 3 ? st->cycles + args[2] : st->cycles;
        return nx_xcache(m, args[0], args[1] != 0, cycle);
    }
    default:
        return nx_xbpred(m, args[0], args[1]);
    }
}

void ffc_free(St *st) {
    if (!st) return;
    ffc_drop_all_chains(st);
    for (i64 i = 0; i < st->nprogs; i++) free(st->progs[i].code);
    free(st->progs);
    free(st->btab);
    free(st->pool);
    free(st->arena);
    free(st->chains);
    free(st->visited);
    free(st->nx_map);
    free(st->nx_hits);
    ffc_reset_pages(st);
    free(st);
}

/* -- target memory ------------------------------------------------------ */

static unsigned char *get_page(St *st, u64 pn) {
    unsigned char **l2 = st->pt[pn >> 10];
    if (!l2) {
        l2 = (unsigned char **)calloc(PT2, sizeof(unsigned char *));
        if (!l2) return 0;
        st->pt[pn >> 10] = l2;
    }
    unsigned char *p = l2[pn & 1023];
    if (!p) {
        p = st->page_cb(pn);
        l2[pn & 1023] = p;
    }
    return p;
}

static int mem_read(St *st, i64 addr, int nbytes, i64 *out) {
    if (addr < 0 || (u64)addr + nbytes > 0x100000000ULL) {
        st->err = E_ADDR; st->err_a = addr; return -1;
    }
    u64 off = (u64)addr & (PAGE_SIZE - 1);
    if (off + nbytes <= PAGE_SIZE) {
        unsigned char *p = get_page(st, (u64)addr >> 12);
        if (!p) { st->err = E_ADDR; st->err_a = addr; return -1; }
        u64 v = 0;
        for (int i = nbytes - 1; i >= 0; i--) v = (v << 8) | p[off + i];
        *out = (i64)v;
        return 0;
    }
    u64 v = 0;
    for (int i = nbytes - 1; i >= 0; i--) {
        u64 a = (u64)addr + i;
        unsigned char *p = get_page(st, a >> 12);
        if (!p) { st->err = E_ADDR; st->err_a = addr; return -1; }
        v = (v << 8) | p[a & (PAGE_SIZE - 1)];
    }
    *out = (i64)v;
    return 0;
}

static int mem_write(St *st, i64 addr, int nbytes, i64 value) {
    if (addr < 0 || (u64)addr + nbytes > 0x100000000ULL) {
        st->err = E_ADDR; st->err_a = addr; return -1;
    }
    u64 off = (u64)addr & (PAGE_SIZE - 1);
    u64 v = (u64)value;
    if (off + nbytes <= PAGE_SIZE) {
        unsigned char *p = get_page(st, (u64)addr >> 12);
        if (!p) { st->err = E_ADDR; st->err_a = addr; return -1; }
        for (int i = 0; i < nbytes; i++) { p[off + i] = v & 0xFF; v >>= 8; }
        return 0;
    }
    for (int i = 0; i < nbytes; i++) {
        u64 a = (u64)addr + i;
        unsigned char *p = get_page(st, a >> 12);
        if (!p) { st->err = E_ADDR; st->err_a = addr; return -1; }
        p[a & (PAGE_SIZE - 1)] = v & 0xFF;
        v >>= 8;
    }
    return 0;
}

/* -- condition-code helpers (repro/facile/builtins.py, verbatim) -------- */

static i64 h_cc_add(i64 a, i64 b) {
    u64 ua = (u64)a & M32, ub = (u64)b & M32;
    u64 total = ua + ub, r = total & M32;
    i64 fl = 0;
    if (r & 0x80000000ULL) fl |= 8;
    if (r == 0) fl |= 4;
    if ((~(ua ^ ub) & (ua ^ r)) & 0x80000000ULL) fl |= 2;
    if (total > M32) fl |= 1;
    return fl;
}

static i64 h_cc_sub(i64 a, i64 b) {
    u64 ua = (u64)a & M32, ub = (u64)b & M32;
    u64 r = (ua - ub) & M32;
    i64 fl = 0;
    if (r & 0x80000000ULL) fl |= 8;
    if (r == 0) fl |= 4;
    if (((ua ^ ub) & (ua ^ r)) & 0x80000000ULL) fl |= 2;
    if (ua < ub) fl |= 1;
    return fl;
}

static i64 h_cc_logic(i64 a) {
    u64 r = (u64)a & M32;
    i64 fl = 0;
    if (r & 0x80000000ULL) fl |= 8;
    if (r == 0) fl |= 4;
    return fl;
}

static i64 h_cc_br(i64 cond, i64 cc) {
    int n = !!(cc & 8), z = !!(cc & 4), v = !!(cc & 2), c = !!(cc & 1);
    switch (cond & 0xF) {
        case 8: return 1;
        case 0: return 0;
        case 9: return !z;
        case 1: return z;
        case 10: return !(z || (n != v));
        case 2: return z || (n != v);
        case 11: return n == v;
        case 3: return n != v;
        case 12: return !(c || z);
        case 4: return c || z;
        case 13: return !c;
        case 5: return c;
        case 14: return !n;
        case 6: return n;
        case 15: return !v;
        case 7: return v;
    }
    return 0;
}

/* Floor (Python) right shift of an i64: arithmetic, clamped width. */
static i64 asr(i64 a, i64 b) {
    if (b > 63) b = 63;
    return a >> b;
}

/* -- body VM ------------------------------------------------------------ */
/* Returns 0 on END, 1 on RETURN (*ret set), -1 on error (st->err set).
 * Stack discipline is guaranteed by the Python-side compiler
 * (max depth <= 120 < VM_STACK, no underflow), so the hot loop does no
 * per-op stack checks. */

static int run_prog(St *st, Prog *p, const i64 *ph, i64 *ret) {
    i64 stack[VM_STACK];
    i64 loc[VM_LOCALS];
    i64 *code = p->code;
    i64 pc = 0, sp = 0;
    memset(loc, 0, sizeof(loc));
    for (;;) {
        i64 op = code[pc], arg = code[pc + 1];
        pc += 2;
        i64 a, b;
        switch (op) {
        case OP_END:
            return 0;
        case OP_RETURN:
            *ret = stack[--sp];
            return 1;
        case OP_CONST:
            stack[sp++] = arg;
            break;
        case OP_PH:
            stack[sp++] = ph[arg];
            break;
        case OP_SLOT:
            if (st->isobj[arg]) { st->err = E_SLOT; st->err_a = arg; return -1; }
            stack[sp++] = st->slots[arg];
            break;
        case OP_ELEM:
            a = stack[--sp];
            if (!st->arrp[arg] || a < 0 || a >= st->arrlen[arg]) {
                st->err = E_SLOT; st->err_a = arg; return -1;
            }
            stack[sp++] = st->arrp[arg][a];
            break;
        case OP_LOCAL:
            stack[sp++] = loc[arg];
            break;
        case OP_STORE_SLOT:
            st->slots[arg] = stack[--sp];
            st->isobj[arg] = 0;
            st->arrp[arg] = 0;
            break;
        case OP_STORE_SLOT_OBJ:
            st->slots[arg] = stack[--sp];
            st->isobj[arg] = 1;
            st->arrp[arg] = 0;
            break;
        case OP_STORE_ELEM:
            b = stack[--sp];
            a = stack[--sp];
            if (!st->arrp[arg] || a < 0 || a >= st->arrlen[arg]) {
                st->err = E_SLOT; st->err_a = arg; return -1;
            }
            st->arrp[arg][a] = b;
            break;
        case OP_STORE_LOCAL:
            loc[arg] = stack[--sp];
            break;
        case OP_ADD:
            b = stack[--sp];
            stack[sp - 1] = (i64)((u64)stack[sp - 1] + (u64)b);
            break;
        case OP_SUB:
            b = stack[--sp];
            stack[sp - 1] = (i64)((u64)stack[sp - 1] - (u64)b);
            break;
        case OP_MUL:
            b = stack[--sp];
            stack[sp - 1] = (i64)((u64)stack[sp - 1] * (u64)b);
            break;
        case OP_AND:
            b = stack[--sp];
            stack[sp - 1] &= b;
            break;
        case OP_OR:
            b = stack[--sp];
            stack[sp - 1] |= b;
            break;
        case OP_XOR:
            b = stack[--sp];
            stack[sp - 1] ^= b;
            break;
        case OP_SHL:
            b = stack[--sp];
            if (b < 0 || b > 63) { st->err = E_SHIFT; st->err_a = b; return -1; }
            stack[sp - 1] = (i64)((u64)stack[sp - 1] << b);
            break;
        case OP_SHR:
            b = stack[--sp];
            if (b < 0) { st->err = E_SHIFT; st->err_a = b; return -1; }
            stack[sp - 1] = asr(stack[sp - 1], b);
            break;
        case OP_NEG:
            stack[sp - 1] = (i64)(0 - (u64)stack[sp - 1]);
            break;
        case OP_NOT:
            stack[sp - 1] = stack[sp - 1] ? 0 : 1;
            break;
        case OP_EQ:
            b = stack[--sp];
            stack[sp - 1] = stack[sp - 1] == b;
            break;
        case OP_NE:
            b = stack[--sp];
            stack[sp - 1] = stack[sp - 1] != b;
            break;
        case OP_LT:
            b = stack[--sp];
            stack[sp - 1] = stack[sp - 1] < b;
            break;
        case OP_LE:
            b = stack[--sp];
            stack[sp - 1] = stack[sp - 1] <= b;
            break;
        case OP_GT:
            b = stack[--sp];
            stack[sp - 1] = stack[sp - 1] > b;
            break;
        case OP_GE:
            b = stack[--sp];
            stack[sp - 1] = stack[sp - 1] >= b;
            break;
        case OP_JMP:
            pc = arg;
            break;
        case OP_JZ:
            if (!stack[--sp]) pc = arg;
            break;
        case OP_SELECT: {
            b = stack[--sp];
            a = stack[--sp];
            i64 cnd = stack[--sp];
            stack[sp++] = cnd ? a : b;
            break;
        }
        case OP_DROP:
            sp--;
            break;
        case OP_SEXT: {
            b = stack[--sp];
            if (b < 1 || b > 63) { st->err = E_SHIFT; st->err_a = b; return -1; }
            u64 m = (1ULL << b) - 1;
            u64 v = (u64)stack[sp - 1] & m;
            stack[sp - 1] = (v >> (b - 1)) & 1
                ? (i64)(v - (1ULL << b)) : (i64)v;
            break;
        }
        case OP_ZEXT:
            b = stack[--sp];
            if (b < 0 || b > 63) { st->err = E_SHIFT; st->err_a = b; return -1; }
            stack[sp - 1] = (i64)((u64)stack[sp - 1] & ((1ULL << b) - 1));
            break;
        case OP_S32: {
            u64 v = (u64)stack[sp - 1] & M32;
            stack[sp - 1] = (v >> 31) & 1 ? (i64)(v - 0x100000000ULL) : (i64)v;
            break;
        }
        case OP_BIT:
            b = stack[--sp];
            if (b < 0) { st->err = E_SHIFT; st->err_a = b; return -1; }
            stack[sp - 1] = (asr(stack[sp - 1], b)) & 1;
            break;
        case OP_BITS: {
            i64 hi = stack[--sp];
            i64 lo = stack[--sp];
            i64 width = hi - lo + 1;
            if (lo < 0 || width < 1) { st->err = E_SHIFT; st->err_a = lo; return -1; }
            u64 m = width >= 64 ? ~0ULL : (1ULL << width) - 1;
            stack[sp - 1] = (i64)((u64)asr(stack[sp - 1], lo) & m);
            break;
        }
        case OP_POPCOUNT:
            stack[sp - 1] = __builtin_popcountll((u64)stack[sp - 1] & M32);
            break;
        case OP_MIN:
            b = stack[--sp];
            if (b < stack[sp - 1]) stack[sp - 1] = b;
            break;
        case OP_MAX:
            b = stack[--sp];
            if (b > stack[sp - 1]) stack[sp - 1] = b;
            break;
        case OP_ABS:
            a = stack[sp - 1];
            stack[sp - 1] = a < 0 ? (i64)(0 - (u64)a) : a;
            break;
        case OP_IDIV:
            b = stack[--sp];
            a = stack[sp - 1];
            if (b == 0) { st->err = E_DIV0; return -1; }
            stack[sp - 1] = b == -1 ? (i64)(0 - (u64)a) : a / b;
            break;
        case OP_IMOD:
            b = stack[--sp];
            a = stack[sp - 1];
            if (b == 0) { st->err = E_DIV0; return -1; }
            stack[sp - 1] = b == -1 ? 0 : a %% b;
            break;
        case OP_UMUL32:
            b = stack[--sp];
            stack[sp - 1] = (i64)((((u64)stack[sp - 1] & M32)
                                   * ((u64)b & M32)) & M32);
            break;
        case OP_UDIV32: {
            b = stack[--sp];
            if (b == 0) { stack[sp - 1] = 0; break; }
            u64 ub = (u64)b & M32;
            if (ub == 0) { st->err = E_DIV0; return -1; }
            stack[sp - 1] = (i64)((((u64)stack[sp - 1] & M32) / ub) & M32);
            break;
        }
        case OP_CC_ADD:
            b = stack[--sp];
            stack[sp - 1] = h_cc_add(stack[sp - 1], b);
            break;
        case OP_CC_SUB:
            b = stack[--sp];
            stack[sp - 1] = h_cc_sub(stack[sp - 1], b);
            break;
        case OP_CC_LOGIC:
            stack[sp - 1] = h_cc_logic(stack[sp - 1]);
            break;
        case OP_CC_BR:
            b = stack[--sp];
            stack[sp - 1] = h_cc_br(stack[sp - 1], b);
            break;
        case OP_MEM_R8:
            if (mem_read(st, stack[sp - 1], 1, &stack[sp - 1])) return -1;
            break;
        case OP_MEM_R16:
            if (mem_read(st, stack[sp - 1], 2, &stack[sp - 1])) return -1;
            break;
        case OP_MEM_R32:
            if (mem_read(st, stack[sp - 1], 4, &stack[sp - 1])) return -1;
            break;
        case OP_MEM_W8:
            b = stack[--sp];
            a = stack[--sp];
            if (mem_write(st, a, 1, b)) return -1;
            break;
        case OP_MEM_W16:
            b = stack[--sp];
            a = stack[--sp];
            if (mem_write(st, a, 2, b)) return -1;
            break;
        case OP_MEM_W32:
            b = stack[--sp];
            a = stack[--sp];
            if (mem_write(st, a, 4, b)) return -1;
            break;
        case OP_STAT_RETIRE:
            a = stack[--sp];
            st->retired_total += a;
            st->retired_fast += a;
            break;
        case OP_STAT_CYCLE:
            st->cycles += stack[--sp];
            break;
        case OP_STAT_COUNT:
            b = stack[--sp];
            a = stack[--sp];
            if (a < 0 || a >= NCOUNTERS) {
                st->err = E_COUNTER; st->err_a = a; return -1;
            }
            st->counters[a] += b;
            st->cdirty[a] = 1;
            break;
        case OP_HALT:
            st->halted = 1;
            break;
        case OP_EXTERN: {
            i64 nargs = arg & 0xFF;
            i64 xid = arg >> 8;
            sp -= nargs;
            i64 r;
            if (xid < st->nxmap_n && st->nx_map[xid] >= 0) {
                st->nx_hits[xid]++;
                r = ffc_nx_call(st, st->nx_map[xid], nargs, &stack[sp]);
            } else {
                r = st->extern_cb(xid, nargs, &stack[sp]);
                if (st->err) return -1;
            }
            stack[sp++] = r;
            break;
        }
        default:
            st->err = E_BADOP;
            st->err_a = op;
            return -1;
        }
    }
}

/* -- chain walker ------------------------------------------------------- */

static void mark_visited(St *st, Chain *ch, i64 cid) {
    if (ch->visited) return;
    if (st->nvisited >= st->visitedcap) {
        i64 cap = st->visitedcap ? st->visitedcap * 2 : 64;
        i64 *nv = (i64 *)realloc(st->visited, cap * sizeof(i64));
        if (!nv) return;  /* stamp refresh is best-effort */
        st->visited = nv;
        st->visitedcap = cap;
    }
    ch->visited = 1;
    st->visited[st->nvisited++] = cid;
}

void ffc_run(St *st, i64 cid, i64 budget, i64 init_slot, FfcExit *ex) {
    i64 steps = 0, actions = 0, links = 0;
    st->err = 0;
    Chain *ch = st->chains[cid];
    ex->slot = 0;
    if (!ch) {
        st->err = E_BADOP;
        goto err;
    }
    mark_visited(st, ch, cid);
    for (;;) {
        st->nconsumed = 0;
        i64 i = 0;
        while (i < ch->n) {
            int k = ch->kinds[i];
            if (k == K_ACTION) {
                i64 unused;
                if (run_prog(st, &st->progs[ch->progids[i]],
                             st->arena + ch->doffs[i], &unused) < 0)
                    goto err;
                actions++;
                i++;
            } else if (k == K_END) {
                steps++;
                i64 end_ix = ch->aux[i];
                if (st->halted) {
                    ex->code = X_HALTED;
                    goto out;
                }
                if (steps >= budget) {
                    ex->code = X_BUDGET;
                    goto out;
                }
                if (ch->lset[end_ix]) {
                    if (ch->lexpect[end_ix] == init_tag(st, init_slot)) {
                        i64 nx = ch->lnext[end_ix];
                        Chain *nc = (nx >= 0 && nx < st->nchains)
                            ? st->chains[nx] : 0;
                        if (nc) {
                            links++;
                            cid = nx;
                            ch = nc;
                            mark_visited(st, ch, cid);
                            goto next_step;
                        }
                    }
                }
                ex->code = X_NEXT;
                goto out;
              out:
                ex->err = E_NONE;
                ex->cid = cid;
                ex->end_ix = end_ix;
                ex->steps = steps;
                ex->actions = actions;
                ex->links = links;
                return;
            } else {  /* verify */
                i64 v = 0;
                if (run_prog(st, &st->progs[ch->progids[i]],
                             st->arena + ch->doffs[i], &v) < 0)
                    goto err;
                actions++;
                if (st->nconsumed >= MAX_CONSUMED) {
                    st->err = E_CONSUMED;
                    goto err;
                }
                st->consumed[st->nconsumed++] = v;
                i64 tgt = -1;
                if (k == K_VERIFY_EQ) {
                    if (v == ch->aux[i]) tgt = i + 1;
                } else {
                    const i64 *tab = ch->tabs + ch->toffs[ch->aux[i]];
                    for (i64 j = 0; j < tab[0]; j++) {
                        if (tab[1 + 2 * j] == v) {
                            tgt = tab[2 + 2 * j];
                            break;
                        }
                    }
                }
                if (tgt < 0) {
                    ex->code = X_MISS;
                    ex->err = E_NONE;
                    ex->cid = cid;
                    ex->slot = i;
                    ex->end_ix = -1;
                    ex->steps = steps;
                    ex->actions = actions;
                    ex->links = links;
                    return;
                }
                i = tgt;
            }
        }
        /* Fell off the record stream without an ENDMARK: malformed. */
        st->err = E_BADOP;
        goto err;
      next_step: ;
    }
  err:
    ex->code = X_ERR;
    ex->err = st->err;
    ex->cid = cid;
    ex->end_ix = -1;
    ex->steps = steps;
    ex->actions = actions;
    ex->links = links;
}
"""


def kernel_source() -> str:
    return _C_SOURCE_TEMPLATE % {
        "OPCODES": _opcode_defines(), "ENDMARK": ENDMARK,
    }


# ---------------------------------------------------------------------------
# Kernel loader (compile once per process, cache the .so on disk)
# ---------------------------------------------------------------------------


@dataclass
class KernelStatus:
    """Outcome of the one-per-process kernel build."""

    available: bool
    reason: str = ""
    compile_ms: float = 0.0
    cached: bool = False
    cc: str = ""
    path: str = ""


class _StPrefix(ctypes.Structure):
    # Mirrors the leading fields of the C St struct exactly (all
    # naturally aligned: every array length is a multiple of 8).
    _fields_ = [
        ("cycles", ctypes.c_longlong),
        ("retired_total", ctypes.c_longlong),
        ("retired_fast", ctypes.c_longlong),
        ("halted", ctypes.c_longlong),
        ("err", ctypes.c_longlong),
        ("err_a", ctypes.c_longlong),
        ("slots", ctypes.c_longlong * MAX_SLOTS),
        ("isobj", ctypes.c_ubyte * MAX_SLOTS),
        ("arrp", ctypes.c_void_p * MAX_SLOTS),
        ("arrlen", ctypes.c_longlong * MAX_SLOTS),
        ("counters", ctypes.c_longlong * NCOUNTERS),
        ("cdirty", ctypes.c_ubyte * NCOUNTERS),
        ("consumed", ctypes.c_longlong * MAX_CONSUMED),
        ("nconsumed", ctypes.c_longlong),
    ]


class FfcExit(ctypes.Structure):
    _fields_ = [
        ("code", ctypes.c_longlong),
        ("err", ctypes.c_longlong),
        ("cid", ctypes.c_longlong),
        ("slot", ctypes.c_longlong),
        ("end_ix", ctypes.c_longlong),
        ("steps", ctypes.c_longlong),
        ("actions", ctypes.c_longlong),
        ("links", ctypes.c_longlong),
    ]


PAGE_CB = ctypes.CFUNCTYPE(ctypes.c_void_p, ctypes.c_longlong)
EXTERN_CB = ctypes.CFUNCTYPE(
    ctypes.c_longlong, ctypes.c_longlong, ctypes.c_longlong,
    ctypes.POINTER(ctypes.c_longlong),
)

_LL = ctypes.c_longlong
_PLL = ctypes.POINTER(ctypes.c_longlong)
#: i64 words passed as ``bytes`` (zero-copy): lanes, tables, code.
_BUF = ctypes.c_char_p


class Kernel:
    """A loaded replay kernel: the shared library plus its status."""

    def __init__(self, lib, status: KernelStatus):
        self.lib = lib
        self.status = status


def _declare(lib) -> None:
    lib.ffc_new.restype = ctypes.c_void_p
    lib.ffc_new.argtypes = []
    lib.ffc_prefix_bytes.restype = _LL
    lib.ffc_prefix_bytes.argtypes = []
    lib.ffc_set_cbs.restype = None
    lib.ffc_set_cbs.argtypes = [ctypes.c_void_p, PAGE_CB, EXTERN_CB]
    lib.ffc_add_body.restype = _LL
    lib.ffc_add_body.argtypes = [ctypes.c_void_p, _LL, _LL, _BUF, _LL, _LL]
    lib.ffc_mirror.restype = _LL
    lib.ffc_mirror.argtypes = [ctypes.c_void_p, _LL, _BUF, _BUF]
    lib.ffc_forget.restype = None
    lib.ffc_forget.argtypes = [ctypes.c_void_p, _BUF, _LL]
    lib.ffc_mirrored.restype = _LL
    lib.ffc_mirrored.argtypes = [ctypes.c_void_p]
    lib.ffc_add_chain.restype = _LL
    lib.ffc_add_chain.argtypes = [
        ctypes.c_void_p, _BUF, _BUF, _BUF, _LL, _LL, _LL, _BUF, _LL, _PLL,
    ]
    lib.ffc_drop_chain.restype = None
    lib.ffc_drop_chain.argtypes = [ctypes.c_void_p, _LL]
    lib.ffc_drop_all_chains.restype = None
    lib.ffc_drop_all_chains.argtypes = [ctypes.c_void_p]
    lib.ffc_set_link.restype = None
    lib.ffc_set_link.argtypes = [ctypes.c_void_p, _LL, _LL, _LL, _LL]
    lib.ffc_reset_pages.restype = None
    lib.ffc_reset_pages.argtypes = [ctypes.c_void_p]
    lib.ffc_pop_visited.restype = _LL
    lib.ffc_pop_visited.argtypes = [ctypes.c_void_p, _PLL, _LL]
    lib.ffc_free.restype = None
    lib.ffc_free.argtypes = [ctypes.c_void_p]
    lib.ffc_run.restype = None
    lib.ffc_run.argtypes = [
        ctypes.c_void_p, _LL, _LL, _LL, ctypes.POINTER(FfcExit)
    ]
    lib.ffc_nx_add.restype = _LL
    lib.ffc_nx_add.argtypes = [ctypes.c_void_p, _LL, _PLL, _LL]
    lib.ffc_nx_set_arr.restype = None
    lib.ffc_nx_set_arr.argtypes = [ctypes.c_void_p, _LL, _LL, _PLL, _LL]
    lib.ffc_nx_bind.restype = _LL
    lib.ffc_nx_bind.argtypes = [ctypes.c_void_p, _LL, _LL]
    lib.ffc_nx_clear.restype = None
    lib.ffc_nx_clear.argtypes = [ctypes.c_void_p]
    lib.ffc_nx_hits.restype = _LL
    lib.ffc_nx_hits.argtypes = [ctypes.c_void_p, _LL]
    lib.ffc_nx_call.restype = _LL
    lib.ffc_nx_call.argtypes = [ctypes.c_void_p, _LL, _LL, _PLL]


_KERNEL: Kernel | None = None


def _find_cc() -> str | None:
    import shutil

    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


class _BuildLock:
    """``fcntl.flock`` guard around the compile-or-wait window.

    Several processes share one kernel disk cache.  When N of them
    cold-start at once, every one used to run ``cc`` on the same
    content hash (a thundering herd: N compiles, N-1 discarded by
    ``os.replace``).  The winner now holds an exclusive flock on a
    sidecar lock file while it compiles; losers block briefly in
    :meth:`acquire`, then find the ``.so`` already installed and just
    ``dlopen`` it.  On platforms without ``fcntl``
    (or when the lock file cannot be opened) acquisition degrades to a
    no-op and the original atomic tmp + ``os.replace`` path still makes
    the race merely wasteful, never incorrect.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = None

    def acquire(self) -> None:
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX
            return
        try:
            self._fh = open(self.path, "a+")
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
        except OSError:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def release(self) -> None:
        if self._fh is None:
            return
        try:
            import fcntl

            fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
        except (ImportError, OSError):  # pragma: no cover - defensive
            pass
        self._fh.close()
        self._fh = None


def _kernel_cache_dir() -> str:
    override = os.environ.get("FACILE_CKERNEL_DIR")
    if override:
        return override
    try:
        uid = os.getuid()
    except AttributeError:  # pragma: no cover - non-POSIX
        uid = 0
    return os.path.join(tempfile.gettempdir(), f"facile-ckernel-{uid}")


def _build_kernel() -> Kernel:
    if os.environ.get("FACILE_NO_CC"):
        return Kernel(None, KernelStatus(
            False, "compiler masked (FACILE_NO_CC)"))
    cc = _find_cc()
    if cc is None:
        return Kernel(None, KernelStatus(False, "no C compiler on PATH"))
    source = kernel_source()
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    cache_dir = _kernel_cache_dir()
    so_path = os.path.join(cache_dir, f"kernel-{digest}.so")
    t0 = time.perf_counter()
    cached = os.path.exists(so_path)
    if not cached:
        try:
            os.makedirs(cache_dir, mode=0o700, exist_ok=True)
            lock = _BuildLock(os.path.join(cache_dir, f"kernel-{digest}.lock"))
            lock.acquire()
            try:
                # Re-check under the lock: a concurrent winner may have
                # installed the .so while this process blocked.
                cached = os.path.exists(so_path)
                if not cached:
                    src_path = os.path.join(cache_dir, f"kernel-{digest}.c")
                    with open(src_path, "w") as f:
                        f.write(source)
                    tmp = so_path + f".tmp{os.getpid()}"
                    proc = subprocess.run(
                        [cc, "-O2", "-shared", "-fPIC", "-o", tmp, src_path],
                        capture_output=True, text=True, timeout=120,
                    )
                    if proc.returncode != 0:
                        tail = (proc.stderr or "").strip().splitlines()[-3:]
                        return Kernel(None, KernelStatus(
                            False,
                            f"cc failed: {' | '.join(tail) or 'unknown error'}",
                            cc=cc))
                    os.replace(tmp, so_path)
            finally:
                lock.release()
        except (OSError, subprocess.SubprocessError) as exc:
            return Kernel(None, KernelStatus(
                False, f"kernel build failed: {exc}", cc=cc))
    try:
        lib = ctypes.CDLL(so_path)
        _declare(lib)
    except OSError as exc:
        return Kernel(None, KernelStatus(
            False, f"kernel load failed: {exc}", cc=cc, path=so_path))
    ms = (time.perf_counter() - t0) * 1000.0
    return Kernel(lib, KernelStatus(
        True, "", compile_ms=ms, cached=cached, cc=cc, path=so_path))


def load_kernel() -> Kernel:
    """Compile (or load from the on-disk cache) the replay kernel.

    One kernel per process; the result — including a failure — is
    cached, so repeated calls are free.  Never raises: a missing or
    broken toolchain yields ``status.available == False`` with a
    human-readable reason.
    """
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _build_kernel()
    return _KERNEL


def _reset_kernel_for_tests() -> None:
    global _KERNEL
    _KERNEL = None


# ---------------------------------------------------------------------------
# The backend driver
# ---------------------------------------------------------------------------


class CReplayBackend:
    """Per-engine C replay state: lowered chains, mirrors, callbacks.

    Installed as ``engine.cache.native`` so the cache can drop lowered
    chains in lockstep with unpacks, evictions, and clears.  The public
    surface the engine uses is :meth:`run_entry` (returns ``None`` to
    fall back to the Python tiers for this call), plus the
    :meth:`drop_entry`/:meth:`drop_all` invalidation hooks.
    """

    def __init__(self, engine, kernel: Kernel):
        self.engine = engine
        self.kernel = kernel
        self.lib = kernel.lib
        self.externs = ExternTable()
        # Placeholder shape strings ('i'/'o' per value) and their ids in
        # the kernel's body table.
        self._shapes: list[str] = []
        self._shape_ids: dict[str, int] = {}
        # (action, shape id) -> (reason, span) for bodies the IR refuses.
        self._refused_bodies: dict[tuple[int, int], tuple] = {}
        # Pool indices whose last reference died since the kernel last
        # heard of them (the pool's release hook appends here).
        self._released: list[int] = []
        engine.cache.pool.on_release = self._released.append
        # Pool length at the last mirror sweep (see _mirror).
        self._swept = 0
        self._need = (ctypes.c_longlong * (1 + 2 * NEED_CAP))()
        self._entries: dict[int, object] = {}
        self._ends: dict[int, list] = {}
        self._objs: list = []
        self._obj_ids: dict[int, int] = {}
        self._arrs: dict[int, tuple] = {}
        self._page_refs: dict[int, object] = {}
        self._mem = None
        self._mem_epoch = -1
        self._extern_exc: BaseException | None = None
        self._extern_fns: list = []
        self._extern_ctx = None
        self._exit = FfcExit()
        self._visited_buf = (ctypes.c_longlong * 256)()
        # Lowering / dispatch statistics (inspect reporting).
        self.chains_lowered = 0
        self.chains_unlowerable = 0
        self.bodies_registered = 0
        self.runs = 0
        self.python_fallbacks = 0
        # Why-not provenance: refusal reason -> count for unlowerable
        # chains, and extern name -> reason for Python-callback externs.
        self.unlowerable_reasons: dict[str, int] = {}
        self.extern_whynot: dict[str, str] = {}
        # Native extern bindings: per-extern dispatch accounting plus
        # the keepalive references for arrays handed to the kernel.
        self.extern_python_calls: dict[str, int] = {}
        self.extern_native_calls: dict[str, int] = {}
        self._nx_bound: list[tuple[int, str]] = []
        self._nx_keepalive: list = []
        self._nx_drain: list = []
        # Extern-table length at the last native bind: chains lowered
        # mid-run (kernel link chaining) register new externs, which
        # must re-resolve against the native registry.
        self._nx_names_len = -1
        st = self.lib.ffc_new()
        if not st:
            raise MemoryError("ffc_new failed")
        self._st_p = ctypes.c_void_p(st)
        self._st = ctypes.cast(
            self._st_p, ctypes.POINTER(_StPrefix)
        ).contents
        # Keep the callback wrappers alive for the St's lifetime.
        self._page_cb = PAGE_CB(self._on_page)
        self._extern_cb = EXTERN_CB(self._on_extern)
        self.lib.ffc_set_cbs(self._st_p, self._page_cb, self._extern_cb)

    def close(self) -> None:
        if self._st_p:
            self.lib.ffc_free(self._st_p)
            self._st_p = ctypes.c_void_p(0)

    def __del__(self):  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    # -- lowering --------------------------------------------------------

    def _register(self, obj) -> int:
        rid = self._obj_ids.get(id(obj))
        if rid is None:
            rid = len(self._objs)
            self._objs.append(obj)
            self._obj_ids[id(obj)] = rid
        return rid

    def _lower(self, entry) -> int | None:
        """Return the entry's chain id, registering it on first use;
        None if the chain is (or proves) unlowerable."""
        cn = entry.cnative
        if cn is not None:
            return cn if cn >= 0 else None
        chain = entry.packed
        try:
            cid = self._add_chain(chain)
        except Unlowerable as exc:
            entry.cnative = -1
            self.chains_unlowerable += 1
            reason = str(exc)
            self.unlowerable_reasons[reason] = (
                self.unlowerable_reasons.get(reason, 0) + 1
            )
            return None
        entry.cnative = cid
        self._entries[cid] = entry
        self._ends[cid] = chain.ends
        self.chains_lowered += 1
        return cid

    def _add_chain(self, chain) -> int:
        """Register one chain's lanes with the kernel, supplying each
        pool value and body it asks for on the way."""
        if self._released:
            self._forget_released()
        tables = chain.tables
        tabs = _flatten_tables(tables) if tables else None
        # Snapshot lanes are read-only mmap views: copy all three.
        nums = chain.nums.tobytes()
        data = chain.data.tobytes()
        succ = chain.succ.tobytes()
        if not len(nums) == len(data) == len(succ):
            raise Unlowerable("packed lanes of unequal length")
        values = chain.pool.values
        need = self._need
        while True:
            cid = self.lib.ffc_add_chain(
                self._st_p, nums, data, succ, len(chain.nums),
                len(chain.ends), len(values), tabs, len(tables), need,
            )
            if cid >= 0:
                return cid
            if cid == R_NEED:
                raw = need[1:1 + 2 * need[0]]
                wants = set(zip(raw[0::2], raw[1::2]))
                pidx = [a for a, b in wants if b < 0]
                if pidx:
                    self._mirror(pidx, values)
                for num, shape in wants:
                    if shape >= 0:
                        self._add_body(num, shape)
            elif cid == R_REFUSED:
                raise Unlowerable(
                    _refusal(chain, need[0], need[1], need[2]))
            else:
                raise Unlowerable("kernel out of memory")

    def _mirror(self, pidx: list[int], values: list) -> None:
        """Flatten pool values into the kernel's arena, once each: the
        ones a registration asked for, plus every value interned since
        the last call, so most chains register in a single call."""
        top = len(values)
        if self._swept < top:
            pidx = set(pidx)
            pidx.update(p for p in range(self._swept, top)
                        if values[p] is not None)
            self._swept = top
        meta = array("q")
        words = array("q")
        shape_id = self._shape_id
        for p in pidx:
            v = values[p]
            mark = len(words)
            if type(v) is tuple:
                try:
                    words.extend(v)  # the common case: only i64 ints
                    kind, shape = PK_TUPLE, shape_id("i" * len(v))
                except (TypeError, OverflowError):
                    del words[mark:]
                    kind, shape = self._flatten_mixed(v, words)
            elif (type(v) is int or type(v) is bool) and _I64_MIN <= v <= _I64_MAX:
                words.append(v)
                kind, shape = PK_INT, -1
            else:
                kind, shape = PK_BAD, -1
            if kind == PK_BAD:
                del words[mark:]
            meta.extend((p, kind, shape, len(words) - mark))
        if self.lib.ffc_mirror(self._st_p, len(pidx), meta.tobytes(),
                               words.tobytes()) < 0:
            raise Unlowerable("kernel out of memory")

    def _flatten_mixed(self, v: tuple, words: array) -> tuple[int, int]:
        """Append a data tuple with non-int members to ``words``: ints
        as themselves, other members as object registry ids.  Returns
        ``(kind, shape id)``, kind ``PK_BAD`` for an int outside i64."""
        shape = []
        for x in v:
            if type(x) is int or type(x) is bool:
                if not _I64_MIN <= x <= _I64_MAX:
                    return PK_BAD, -1
                shape.append("i")
                words.append(x)
            else:
                shape.append("o")
                words.append(self._register(x))
        return PK_TUPLE, self._shape_id("".join(shape))

    def _shape_id(self, shape: str) -> int:
        sid = self._shape_ids.get(shape)
        if sid is None:
            sid = self._shape_ids[shape] = len(self._shapes)
            self._shapes.append(shape)
        return sid

    def _add_body(self, num: int, shape: int) -> None:
        """Compile, verify and register the body of action ``num`` for
        one placeholder shape, once per engine.  A refusal is remembered
        and raised again for every chain that needs the same body."""
        refused = self._refused_bodies.get((num, shape))
        if refused is not None:
            raise Unlowerable(*refused)
        compiled = self.engine.compiled
        spans = getattr(compiled, "action_spans", None) or ()
        span = spans[num] if num < len(spans) else None
        shapes = self._shapes[shape]
        try:
            if num >= len(compiled.action_bodies):
                raise Unlowerable(f"action {num}: no recorded body")
            lines, n_ph, is_verify = compiled.action_bodies[num]
            if n_ph != len(shapes):
                raise Unlowerable(
                    f"action {num}: data/body shape mismatch", span=span)
            prog = compile_body(num, lines, shapes, is_verify, self.externs,
                                span=span)
            # The kernel's hot loop does no per-op stack or bounds
            # checking; no body reaches it unverified.
            assert_lowerable(prog, n_slots=compiled.slot_count,
                             externs=self.externs)
        except Unlowerable as exc:
            self._refused_bodies[(num, shape)] = (str(exc), exc.span)
            raise
        code = array("q", prog.code).tobytes()
        if self.lib.ffc_add_body(self._st_p, num, shape, code,
                                 len(prog.code), int(is_verify)) < 0:
            raise Unlowerable("kernel out of memory")
        self.bodies_registered += 1

    def _forget_released(self) -> None:
        released = self._released
        self.lib.ffc_forget(
            self._st_p, array("q", released).tobytes(), len(released))
        released.clear()

    # -- invalidation hooks (called by ActionCache) ----------------------

    def drop_entry(self, entry) -> None:
        cid = entry.cnative
        entry.cnative = None
        if cid is not None and cid >= 0:
            self.lib.ffc_drop_chain(self._st_p, cid)
            self._entries.pop(cid, None)
            self._ends.pop(cid, None)

    def drop_all(self) -> None:
        """The cache cleared: drop every chain and reset the pool
        mirror (body programs stay registered)."""
        self.lib.ffc_drop_all_chains(self._st_p)
        for entry in self._entries.values():
            entry.cnative = None
        self._entries.clear()
        self._ends.clear()
        self._released.clear()
        self._swept = 0
        # The mirror referenced the object registry; all gone together.
        self._objs.clear()
        self._obj_ids.clear()

    # -- state mirroring -------------------------------------------------

    def _sync_in(self, ctx) -> bool:
        """Mirror dynamic context state into the C St.  Returns False
        when some value cannot be mirrored (this call then falls back
        to the Python loop, with no state touched by the kernel)."""
        st = self._st
        st.cycles = ctx.cycles
        st.retired_total = ctx.retired_total
        st.retired_fast = ctx.retired_fast
        st.halted = 1 if ctx.halted else 0
        st.err = 0
        st.nconsumed = 0
        S = ctx.S
        arrs = self._arrs
        arrs.clear()
        seen_lists: dict[int, int] = {}
        for k, v in enumerate(S):
            t = type(v)
            if t is int:
                if not _I64_MIN <= v <= _I64_MAX:
                    return False
                st.slots[k] = v
                st.isobj[k] = 0
                st.arrp[k] = 0
            elif t is bool:
                st.slots[k] = int(v)
                st.isobj[k] = 0
                st.arrp[k] = 0
            elif t is list:
                if id(v) in seen_lists:
                    return False  # aliased register files: stay Python
                seen_lists[id(v)] = k
                try:
                    a = array("q", v)
                except (TypeError, OverflowError):
                    return False
                arrs[k] = (v, a)
                addr, n = a.buffer_info()
                st.slots[k] = self._register(v)
                st.isobj[k] = 1
                st.arrp[k] = addr
                st.arrlen[k] = n
            else:
                st.slots[k] = self._register(v)
                st.isobj[k] = 1
                st.arrp[k] = 0
        mem = ctx.mem
        epoch = getattr(mem, "_epoch", 0)
        if mem is not self._mem or epoch != self._mem_epoch:
            self.lib.ffc_reset_pages(self._st_p)
            self._page_refs.clear()
            self._mem = mem
            self._mem_epoch = epoch
        names = self.externs.names
        if (
            ctx is not self._extern_ctx
            or len(self._extern_fns) != len(names)
            or self._nx_names_len != len(names)
        ):
            bound = ctx.externs
            self._extern_fns = [bound.get(n) for n in names]
            self._extern_ctx = ctx
            self._bind_native(ctx)
        return True

    def _bind_native(self, ctx) -> None:
        """Resolve externs whose bound models match the native registry
        to in-kernel dispatch ids; the rest keep the callback path."""
        lib = self.lib
        self._harvest_native_hits()
        lib.ffc_nx_clear(self._st_p)
        self._nx_bound = []
        self._nx_keepalive = []
        self._nx_drain = []
        self._nx_names_len = len(self.externs.names)
        models = getattr(ctx, "extern_models", None)
        if not models:
            return
        drain_ids = set()
        for xid, name in enumerate(self.externs.names):
            model = models.get(name)
            if model is None:
                self.extern_whynot[name] = "no uarch model bound to this extern"
                continue
            plan, why = _nx_explain(name, model)
            if plan is None:
                self.extern_whynot[name] = why or "native lowering declined"
                continue
            kind, params, arrays, drain = plan
            pbuf = array("q", params) if params else None
            nxid = lib.ffc_nx_add(
                self._st_p, kind,
                _q_ptr(pbuf) if pbuf is not None else None, len(params),
            )
            if nxid < 0:
                self.extern_whynot[name] = "kernel native-dispatch registry is full"
                continue
            for slot, arr in arrays.items():
                addr, n = arr.buffer_info()
                lib.ffc_nx_set_arr(
                    self._st_p, nxid, slot, ctypes.cast(addr, _PLL), n)
            if lib.ffc_nx_bind(self._st_p, xid, nxid) != 0:
                self.extern_whynot[name] = "kernel refused the extern/native binding"
                continue
            self.extern_whynot.pop(name, None)
            self._nx_bound.append((xid, name))
            self._nx_keepalive.append((pbuf, list(arrays.values())))
            for m in drain:
                if id(m) not in drain_ids:
                    drain_ids.add(id(m))
                    self._nx_drain.append(m)

    def _harvest_native_hits(self) -> None:
        """Fold the kernel's per-xid dispatch counters into the running
        per-name totals (the kernel counters reset on rebind)."""
        lib = self.lib
        counts = self.extern_native_calls
        for xid, name in self._nx_bound:
            hits = lib.ffc_nx_hits(self._st_p, xid)
            if hits:
                counts[name] = counts.get(name, 0) + hits
        # The caller clears the kernel registry right after this, which
        # zeroes the live counters — no double count on a later harvest.

    def extern_counts(self) -> dict[str, dict[str, int]]:
        """Per-extern dispatch counts: native in-kernel vs Python
        callback exits, over the engine's lifetime."""
        lib = self.lib
        out: dict[str, dict[str, int]] = {}
        live: dict[str, int] = {}
        for xid, name in self._nx_bound:
            hits = lib.ffc_nx_hits(self._st_p, xid)
            if hits:
                live[name] = live.get(name, 0) + hits
        names = set(self.extern_native_calls) | set(live)
        names |= set(self.extern_python_calls)
        for name in sorted(names):
            out[name] = {
                "native": self.extern_native_calls.get(name, 0)
                + live.get(name, 0),
                "python": self.extern_python_calls.get(name, 0),
            }
        return out

    def _sync_out(self, ctx) -> None:
        st = self._st
        ctx.cycles = st.cycles
        ctx.retired_total = st.retired_total
        ctx.retired_fast = st.retired_fast
        ctx.halted = bool(st.halted)
        S = ctx.S
        arrs = self._arrs
        objs = self._objs
        for k in range(len(S)):
            if st.isobj[k]:
                obj = objs[st.slots[k]]
                pair = arrs.get(k)
                if pair is not None and pair[0] is obj and st.arrp[k]:
                    # The kernel wrote elements through the array mirror;
                    # copy them back into the canonical list.
                    obj[:] = pair[1].tolist()
                S[k] = obj
            else:
                S[k] = int(st.slots[k])
        arrs.clear()
        dirty = bytes(st.cdirty)
        if 1 in dirty:
            counters = ctx.counters
            for i, d in enumerate(dirty):
                if d:
                    key = str(i)
                    counters[key] = counters.get(key, 0) + st.counters[i]
                    st.counters[i] = 0
                    st.cdirty[i] = 0
        # Native model statistics drain at the same sync point as the
        # kernel's cycle counters.
        for model in self._nx_drain:
            model.drain_stats()

    # -- callbacks -------------------------------------------------------

    def _on_page(self, pageno):
        try:
            page = self._mem._page(pageno << 12)[0]
            buf = (ctypes.c_ubyte * len(page)).from_buffer(page)
            self._page_refs[pageno] = buf
            return ctypes.addressof(buf)
        except BaseException as exc:  # ctypes swallows exceptions
            self._extern_exc = exc
            return None

    def _on_extern(self, xid, nargs, args):
        st = self._st
        ctx = self.engine.ctx
        try:
            # Externs observe live statistics (the inorder cache model
            # reads ctx.cycles mid-step); sync before the call.
            ctx.cycles = st.cycles
            ctx.retired_total = st.retired_total
            ctx.retired_fast = st.retired_fast
            fns = self._extern_fns
            if xid >= len(fns):
                # New chains (and externs) were lowered mid-run (kernel
                # link chaining).  Refresh the callback table and re-run
                # native resolution so a freshly-registered extern whose
                # model matches pays at most this one Python exit; the
                # rebind is safe mid-run because this callback runs
                # synchronously inside the kernel's extern call.
                bound = ctx.externs
                fns = [bound.get(n) for n in self.externs.names]
                self._extern_fns = fns
                self._bind_native(ctx)
            fn = fns[xid]
            if fn is None:
                raise SimulationError(
                    f"extern {self.externs.names[xid]!r} was not bound"
                )
            name = self.externs.names[xid]
            calls = self.extern_python_calls
            calls[name] = calls.get(name, 0) + 1
            r = fn(*args[:nargs])
            if type(r) is int and _I64_MIN <= r <= _I64_MAX:
                return r
            if type(r) is bool:
                return int(r)
            raise SimulationError(
                f"extern {self.externs.names[xid]!r} returned "
                f"{type(r).__name__}; the C replay backend requires ints"
            )
        except BaseException as exc:
            self._extern_exc = exc
            st.err = E_EXTERN
            return 0

    # -- execution -------------------------------------------------------

    def _pop_visited(self, cache) -> None:
        buf = self._visited_buf
        lib = self.lib
        entries = self._entries
        gen = cache.gen
        while True:
            n = lib.ffc_pop_visited(self._st_p, buf, 256)
            if n <= 0:
                break
            for i in range(n):
                entry = entries.get(buf[i])
                if entry is not None:
                    entry.stamp = gen

    def _link(self, ex) -> int | None:
        """On an X_NEXT exit: look the successor key up in the cache
        (billing exactly one lookup+hit on success), register its chain,
        install the likely-next link on both sides, and return the
        successor chain id — or None when the walk must return to the
        engine's Python loop."""
        st = self._st
        engine = self.engine
        init_slot = engine.compiled.init_slot
        if st.isobj[init_slot]:
            raw = self._objs[st.slots[init_slot]]
        else:
            raw = int(st.slots[init_slot])
        try:
            key = engine._freeze_key(raw)
        except SimulationError:
            return None
        cache = engine.cache
        entry = cache.entries.get(key)
        if entry is None or not entry.complete or entry.packed is None:
            return None
        end = self._ends[ex.cid][ex.end_ix]
        end.likely_next = (raw, entry)
        cid2 = self._lower(entry)
        if cid2 is None:
            # Unlowerable successor: the Python driver follows the
            # likely-next link we just installed and bills the lookup.
            return None
        if self._nx_names_len != len(self.externs.names):
            # Lowering registered new externs: re-resolve against the
            # native registry before the kernel resumes, so a matching
            # model never pays a Python exit at all.
            ectx = engine.ctx
            self._extern_fns = [ectx.externs.get(n) for n in self.externs.names]
            self._bind_native(ectx)
        cstats = cache.stats
        cstats.lookups += 1
        cstats.hits += 1
        entry.stamp = cache.gen
        self.lib.ffc_set_link(self._st_p, ex.cid, ex.end_ix, init_slot, cid2)
        return cid2

    def run_entry(self, entry, budget: int):
        """Replay starting at ``entry`` for up to ``budget`` steps.

        Returns ``None`` when this call must fall back to the Python
        tiers (unlowerable chain, unmirrorable state); otherwise an
        ``(end_record, steps_done)`` pair with ``end_record`` None
        after a verify miss (the missed step has already recovered
        through the slow engine, exactly as the Python loop does).
        """
        cid = entry.cnative
        if cid is None:
            cid = plan_chain(self, entry)
        if cid is None or cid < 0:
            return None
        engine = self.engine
        ctx = engine.ctx
        if not self._sync_in(ctx):
            self.python_fallbacks += 1
            return None
        self.runs += 1
        lib = self.lib
        st = self._st
        ex = self._exit
        cache = engine.cache
        cstats = cache.stats
        init_slot = engine.compiled.init_slot
        total_steps = 0
        total_actions = 0
        self._extern_exc = None
        ctx.in_fast = True
        try:
            while True:
                lib.ffc_run(
                    self._st_p, cid, budget - total_steps, init_slot,
                    ctypes.byref(ex),
                )
                total_steps += ex.steps
                total_actions += ex.actions
                if ex.links:
                    cstats.lookups += ex.links
                    cstats.hits += ex.links
                if ex.code != X_NEXT or total_steps >= budget:
                    break
                cid2 = plan_chain(self, after=ex)
                if cid2 is None:
                    break
                cid = cid2
        finally:
            ctx.in_fast = False
            self._pop_visited(cache)
        engine.stats.actions_replayed += total_actions
        code = ex.code
        if code == X_ERR:
            self._sync_out(ctx)
            exc = self._extern_exc
            self._extern_exc = None
            if exc is not None:
                raise exc
            name = E_NAMES[ex.err] if 0 <= ex.err < len(E_NAMES) else ex.err
            raise SimulationError(
                f"C replay kernel error {name} (chain {ex.cid}, "
                f"detail {st.err_a})"
            )
        self._sync_out(ctx)
        if code == X_MISS:
            consumed = [st.consumed[i] for i in range(st.nconsumed)]
            cstats.misses_verify += 1
            engine._recover(self._entries[ex.cid], consumed)
            return None, total_steps
        return self._ends[ex.cid][ex.end_ix], total_steps

    # -- reporting -------------------------------------------------------

    def summary(self) -> dict:
        """Lowering and dispatch statistics.  ``values_mirrored`` counts
        the pool values holding words in the kernel's arena, forgotten
        ones not yet compacted away included."""
        if self._released:
            self._forget_released()
        return {
            "chains_lowered": self.chains_lowered,
            "chains_unlowerable": self.chains_unlowerable,
            "bodies_registered": self.bodies_registered,
            "values_mirrored": self.lib.ffc_mirrored(self._st_p),
            "runs": self.runs,
            "python_fallbacks": self.python_fallbacks,
            "externs": self.extern_counts(),
            "unlowerable_reasons": dict(self.unlowerable_reasons),
            "extern_whynot": dict(self.extern_whynot),
        }


def plan_chain(backend: CReplayBackend, entry=None, after=None) -> int | None:
    """All per-chain Python work of the C backend: register ``entry``'s
    chain with the kernel on first use; or, given ``after`` (a kernel
    exit at a step boundary with no usable link), find the successor
    entry, register it and link the boundary to it.  Returns the chain
    id to run, or None when the Python tiers take over.

    A module-level name on purpose: lowering time is spent under this
    one call (the benchmark's traced run wraps it by name)."""
    if after is not None:
        return backend._link(after)
    return backend._lower(entry)


def _flatten_tables(tables: list[dict]) -> bytes:
    """A chain's multi-successor jump tables as the kernel's i64 words:
    ``[len, key, target, key, target, ...]`` per table."""
    words = array("q")
    for table in tables:
        words.append(len(table))
        for value, slot in table.items():
            if type(value) is bool:
                value = int(value)
            if type(value) is not int or not _I64_MIN <= value <= _I64_MAX:
                raise Unlowerable(f"non-int verify value {value!r}")
            words.append(value)
            words.append(slot)
    return words.tobytes()


def _refusal(chain, why: int, where: int, what: int) -> str:
    """The ``Unlowerable`` reason for one lane-registration refusal
    (``where`` is the slot, or the table for ``F_SUCC``)."""
    values = chain.pool.values
    if why == F_EXPECT:
        return f"non-int verify value {values[what]!r}"
    if why == F_SUCC:
        return (f"chain rejected at lane registration: table {where}: "
                f"successor {what} outside [0, {len(chain.nums)}]")
    num = chain.nums[where]
    if why == F_DATA and type(values[what]) is tuple:
        return f"action {~num if num < 0 else num}: data value exceeds i64"
    detail = {
        F_END: f"end-record index {what} outside [0, {len(chain.ends)})",
        F_POOL: f"pool index {what} outside the pool",
        F_SCALAR: f"data index {what} points at a scalar",
        F_DATA: f"data index {what} points at a non-tuple",
        F_KIND: ("verify slot runs a plain body" if num < 0
                 else "plain slot runs a verify body"),
        F_TABLE: f"table index {what} out of range",
    }[why]
    return f"chain rejected at lane registration: slot {where}: {detail}"


# -- native extern registry (Python side) -----------------------------------
# Dispatch kind ids; must match the NX_* defines in the C template.

NX_BIMODAL = 0
NX_GSHARE = 1
NX_TOURN = 2
NX_TAKEN = 3
NX_NOTTAKEN = 4
NX_BIND = 5
NX_BCALL = 6
NX_CACHE = 7

_NX_DIR_KINDS = {
    "bimodal": NX_BIMODAL,
    "gshare": NX_GSHARE,
    "tournament": NX_TOURN,
    "taken": NX_TAKEN,
    "nottaken": NX_NOTTAKEN,
}


def _nx_lower(name, model):
    """Resolve an (extern name, bound model) pair to a native dispatch
    plan ``(kind, params, {arr_slot: array}, models_to_drain)``.

    Matching is structural — the model's ``config_key()`` tag and
    ``array('q')`` state buffers (the uarch module protocol) — so user
    subclasses that change behaviour but keep the protocol shape still
    lower, while anything unrecognised returns None and keeps the
    Python callback path for that extern alone.
    """
    plan, _why = _nx_explain(name, model)
    return plan


def _nx_explain(name, model):
    """:func:`_nx_lower` with why-not provenance.

    Returns ``(plan, None)`` when the pair lowers, else ``(None,
    reason)`` — a stable human-readable sentence naming the structural
    check that pinned the extern to the Python callback path (surfaced
    by ``cache_summary`` and the backend summary as FAC411-style
    provenance).
    """
    config_key = getattr(model, "config_key", None)
    if config_key is None:
        return None, "model has no config_key(); the native registry matches structurally"
    try:
        key = config_key()
    except Exception as exc:
        return None, f"config_key() raised {exc!r}"
    tag = key[0] if isinstance(key, tuple) and key else None
    if tag == "frontend" and name in ("xbpred", "xbind", "xbcall"):
        direction = model.direction
        btb = model.btb
        ras = model.ras
        sd = model.stats_delta
        if len(sd) < 2 or ras.depth < 1 or len(ras.buf) != ras.depth:
            return None, (
                "front-end state-array shapes do not match the protocol "
                "(stats_delta/ras buffers)"
            )
        if name == "xbcall":
            return (NX_BCALL, [0, ras.depth], {2: ras.buf, 3: ras.regs}, []), None
        if name == "xbind":
            n = btb.entries
            if n < 1 or n & (n - 1) or len(btb.tags) != n or len(btb.targets) != n:
                return None, (
                    f"BTB entry count {n} is not a power of two or its "
                    "tag/target arrays disagree with it"
                )
            return (
                NX_BIND,
                [n, ras.depth],
                {0: btb.tags, 1: btb.targets, 2: ras.buf, 3: ras.regs, 8: sd},
                [model],
            ), None
        # xbpred: dispatch on the direction component.
        dir_key = getattr(direction, "config_key", None)
        if dir_key is None:
            return None, "direction predictor has no config_key()"
        try:
            dkey = dir_key()
        except Exception as exc:
            return None, f"direction config_key() raised {exc!r}"
        dtag = dkey[0] if dkey else None
        kind = _NX_DIR_KINDS.get(dtag)
        if kind is None:
            return None, (
                f"direction kind {dtag!r} is outside the native registry "
                f"({', '.join(sorted(_NX_DIR_KINDS))})"
            )
        if kind in (NX_TAKEN, NX_NOTTAKEN):
            return (kind, [], {8: sd}, [model]), None
        n = direction.entries
        if n < 1 or n & (n - 1):
            return None, (
                f"direction entry count {n} is not a power of two "
                "(the kernel indexes with a mask)"
            )
        if kind == NX_BIMODAL:
            if len(direction.table) != n:
                return None, "bimodal table length disagrees with entries"
            return (kind, [n], {0: direction.table, 8: sd}, [model]), None
        if kind == NX_GSHARE:
            if len(direction.table) != n:
                return None, "gshare table length disagrees with entries"
            return (
                kind, [n],
                {0: direction.table, 1: direction.regs, 8: sd}, [model],
            ), None
        # Tournament: chooser and bimodal must share the entry count
        # (the C kernel indexes both with one masked pc).
        bim, gsh = direction.bimodal, direction.gshare
        if (
            len(direction.chooser) != n
            or bim.entries != n
            or len(bim.table) != n
            or gsh.entries < 1
            or gsh.entries & (gsh.entries - 1)
            or len(gsh.table) != gsh.entries
        ):
            return None, (
                "tournament component shapes disagree (chooser/bimodal "
                "must share the entry count; gshare a power of two)"
            )
        return (
            kind,
            [n, gsh.entries],
            {0: direction.chooser, 1: bim.table, 2: gsh.table,
             3: gsh.regs, 8: sd},
            [model],
        ), None
    if tag == "hierarchy" and name == "xcache":
        cfg = model.config
        l1, l2 = model.l1, model.l2
        if (
            len(model.mshr_lines) != cfg.mshr_entries
            or len(model.mshr_ready) != cfg.mshr_entries
            or len(model.stats_delta) < 14
            or len(l1.ways) != l1.n_sets * l1.config.assoc
            or len(l2.ways) != l2.n_sets * l2.config.assoc
        ):
            return None, (
                "hierarchy state-array shapes disagree with the config "
                "(mshr/ways/stats_delta)"
            )
        params = [
            l1.n_sets, l1.config.assoc, l1.offset_bits, l1.config.hit_latency,
            l2.n_sets, l2.config.assoc, l2.offset_bits, l2.config.hit_latency,
            cfg.memory_latency, cfg.mshr_entries, cfg.store_latency,
            1 if cfg.prefetch_next_line else 0, l1.config.line_bytes,
        ]
        arrays = {
            0: l1.ways, 1: l2.ways, 2: model.mshr_lines,
            3: model.mshr_ready, 4: model.regs, 5: model.stats_delta,
        }
        return (NX_CACHE, params, arrays, [model]), None
    return None, (
        f"config_key() tag {tag!r} matches no native dispatch kind for "
        f"extern {name!r}"
    )


def _q_ptr(a: array):
    addr, n = a.buffer_info()
    return ctypes.cast(addr, _PLL) if n else None

