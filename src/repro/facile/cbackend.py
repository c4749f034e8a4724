"""C replay backend: packed-chain replay as native code.

The Python packed loop (``FastForwardEngine._fast_step_packed``) spends
nearly all of its time in interpreter dispatch: one Python call per
action body, one frame per helper.  This backend hands complete
:class:`~repro.facile.runtime.PackedChain` entries to a small C kernel
compiled **once per process** (``cc -O2 -shared``, cached on disk by
source hash) and driven through :mod:`ctypes`.  The kernel replays
whole runs of steps per call: it walks chains, calls each slot's action
body compiled to C, probes verify jump tables, follows likely-next
links by value tag, and only returns to Python on a verify miss, a link
it cannot resolve, an exhausted budget, or a halt.

The bodies are the paper's residual code in C.  Each compiled
simulator gets one small shared library (:class:`BodyLibrary`), built
when its first C engine starts, through the same disk cache, build
lock and content hash as the kernel: every action body, in the one
placeholder shape codegen records for it, is compiled to the replay IR
(:func:`~repro.facile.replay_ir.compile_body`), passed through the
verifier gate (:func:`~repro.facile.ir_verify.assert_lowerable`) and
translated to one C ``switch`` over the simulator's actions
(:mod:`repro.facile.replay_c`).  Both translation units compile one
prelude, the ``St`` layout, so they agree on every field; extern calls
go back through one kernel function pointer in ``St``, so the native
uarch models (below) are compiled once, into the kernel.

Chains register through one kernel entry point, ``ffc_add_chains``,
which takes N chains' ``nums``/``data``/``succ`` lanes in place (private
``array('q')`` or a snapshot's mapping alike) and their multi-successor
jump tables; it checks every index and slot kind and builds the
walker's per-chain arrays.  A snapshot load registers all of its chains
in one call (:meth:`CReplayBackend.load_image`); a chain recorded cold
registers with N = 1 on its first replay (:func:`plan_chain`).  Three
tables back it:

* the **action rows** give each of the simulator's actions its compiled
  body's placeholder shape and kind (plain or verify), or mark that the
  library refused it; they are set once, when the engine starts
  (``ffc_set_actions``).  Registration refuses a slot whose action has
  no compiled body or whose data is in another shape, and stores each
  slot's action number, which the walker hands to the library;
* the **pool mirror** holds each intern-pool value the kernel has seen,
  flattened into one ``int64`` arena (non-int members travel as object
  registry ids) with its kind and placeholder shape.  A snapshot brings
  the whole mirror, built where the chains were recorded, and installs
  it in one ``ffc_mirror`` call; cold chains mirror the values they
  need through the same call.  The pool's
  release hook makes the mirror forget an index whose last reference
  died, so a reused index is mirrored afresh; a clear resets the arena;
* the **object chains** name, per object registry id, the chain whose
  key that object is, from a snapshot.  At a step boundary with no link
  yet, an init slot holding such an object links the boundary in the
  kernel, billed as a lookup and a hit; only the boundaries the kernel
  cannot resolve return to Python (:meth:`CReplayBackend._link`).

When registration meets a pool value it has not mirrored yet, it says
so; Python mirrors it and calls again.

Contract with the Python backend (the behavior reference):

* **Same lanes.**  Registration reads the canonical lanes and the
  intern pool and never touches the billed replay view, so byte
  accounting (``recount_bytes``, ``recount_shared_bytes``) is unchanged
  by backend choice.
* **Same statistics.**  Link follows bill ``lookups``/``hits`` exactly
  as the Python chain loop; verify misses bill ``misses_verify`` and
  recover through the slow engine with the same consumed-values list
  (the missed value included); every body run counts in
  ``actions_replayed``.
* **Fallback for what the kernel cannot take.**  A chain registration
  refuses — a body outside the IR's closed operation set or rejected by
  the verifier, data in a shape the body was not compiled for, data
  outside i64, a non-int verify value, a lane index out of range — is
  marked unlowerable (``entry.cnative = -1``, with
  the reason counted in ``unlowerable_reasons``) and that entry replays
  on the Python tiers.  Slot values the kernel cannot mirror (huge ints,
  aliased lists) fall back per call.  A missing C compiler (or
  ``FACILE_NO_CC=1``), or a kernel or body library that fails to build
  or load, degrades the whole engine to the Python backend with a
  reported, non-fatal status.
* **Same integers.**  The spec's integers are unbounded; the kernel's
  are i64.  An op the kernel cannot compute as the spec does (a result
  outside i64, a shift or width outside ``[0, 63]``, a zero divisor,
  an address outside the page table, a counter outside the table, an
  object read as an int) hands its body back: the compiled body saves
  the op's pc and its operand stack and locals, the kernel exits, and
  :func:`~repro.facile.replay_ir.interpret_body` runs the body on from
  that op with Python ints, raising where the spec raises; the Python
  packed loop then finishes the step (:meth:`CReplayBackend._resume`).
  ``handbacks`` counts these exits by reason.

State synchronization: scalar slots, register-file lists, statistics,
and counters are mirrored into a C-side ``St`` struct around each
kernel call (counters travel as deltas); target-memory pages are pinned
zero-copy via ``from_buffer`` into a two-level C page table, reset when
``SimContext.restore`` swaps the page dict (``Memory._epoch``).
Externs whose bound model the native registry recognises (the shipped
cache model and branch predictor) dispatch inside the kernel, bound
once when the backend starts; the rest call back into Python with the
live cycle counters synced first, exactly as the Python bodies would
observe them.
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

from .ir_verify import (
    KERNEL_MAX_SLOTS, KERNEL_NCOUNTERS, KERNEL_VM_LOCALS, KERNEL_VM_STACK,
    assert_lowerable,
)
from .replay_c import BODY_HELPERS, emit_bodies
from .replay_ir import (
    Unlowerable, compile_bodies, interpret_body,
)
from .runtime import ENDMARK, SimulationError, build_replay_view, freeze

# ---------------------------------------------------------------------------
# Kernel exit / error codes (shared with the C source below)
# ---------------------------------------------------------------------------

X_BUDGET = 0  # budget exhausted at a step boundary
X_HALTED = 1  # target halted at a step boundary
X_MISS = 2    # verify miss: recover through the slow engine
X_NEXT = 3    # step boundary, link unset/stale: Python resolves
X_ERR = 4     # kernel error (see E_*); wrapper raises
X_RESUME = 5  # body handed back at an op (see E_*); the spec finishes it

# Reasons for an exit.  E_EXTERN, E_BADOP and E_CONSUMED end an X_ERR
# exit; the others end an X_RESUME exit, where the kernel stops a body
# at an op it cannot compute as the spec does and interpret_body takes
# the op over with unbounded ints (it raises where the spec raises).
E_NONE = 0
E_DIV0 = 1     # division by zero
E_SHIFT = 2    # shift amount or width outside [0, 63]
E_COUNTER = 3  # stat_count id outside [0, 256)
E_EXTERN = 4   # extern callback raised (wrapper re-raises the original)
E_SLOT = 5     # object slot read into computation / bad element index
E_BADOP = 6    # malformed chain or unknown action (compiler bug)
E_ADDR = 7     # memory address outside the kernel's 32-bit page table
E_CONSUMED = 8  # more than MAX_CONSUMED verify values in one step
E_OVF = 9      # result outside i64

E_NAMES = [
    "E_NONE", "E_DIV0", "E_SHIFT", "E_COUNTER", "E_EXTERN", "E_SLOT",
    "E_BADOP", "E_ADDR", "E_CONSUMED", "E_OVF",
]

#: Verify values one step may consume (the prelude's ``MAX_CONSUMED``;
#: the other kernel limits are the verifier's, in ir_verify).
MAX_CONSUMED = 8192

# Pool-mirror value kinds, lane-registration results and refusal
# reasons (keep in sync with the C source).
PK_INT, PK_TUPLE, PK_BAD = 1, 2, 3
R_NEED, R_REFUSED, R_NOMEM = -1, -2, -3
NEED_CAP = 256
(F_END, F_POOL, F_SCALAR, F_DATA, F_KIND, F_EXPECT, F_TABLE, F_SUCC, F_BODY,
 F_SHAPE) = range(1, 11)

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


# ---------------------------------------------------------------------------
# The C sources: a prelude both translation units compile, the kernel,
# and each simulator's body library
# ---------------------------------------------------------------------------

#: The ``St`` layout and the constants the kernel and every body
#: library share.  Both compile this text, so the two agree on where
#: every field lives; the frame limits are the verifier's.
_PRELUDE = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;

#define E_NONE 0
#define E_DIV0 1
#define E_SHIFT 2
#define E_COUNTER 3
#define E_EXTERN 4
#define E_SLOT 5
#define E_BADOP 6
#define E_ADDR 7
#define E_CONSUMED 8
#define E_OVF 9

#define MAX_SLOTS %(MAX_SLOTS)d
#define NCOUNTERS %(NCOUNTERS)d
#define MAX_CONSUMED %(MAX_CONSUMED)d
#define VM_STACK %(VM_STACK)d
#define VM_LOCALS %(VM_LOCALS)d
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

typedef struct St St;
typedef unsigned char *(*page_fn)(i64 pageno);
typedef i64 (*extern_fn)(i64 xid, i64 nargs, i64 *args);
/* A body library's ffb_run: run one action's body (see replay_c.py). */
typedef int (*body_fn)(St *st, i64 action, const i64 *ph, i64 *ret);
/* The kernel's extern dispatch: native model or Python callback. */
typedef i64 (*xcall_fn)(St *st, i64 xid, i64 nargs, i64 *args);

typedef struct {
    i64 kind;
    i64 params[NX_PARAMS];
    i64 *arr[NX_ARRS];
    i64 arrn[NX_ARRS];
} Nx;

/* One registered chain.  Its arrays live in the same allocation, right
 * after the struct (see chain_alloc). */
typedef struct {
    i64 n;
    unsigned char *kinds;
    int *acts;     /* the slot's action number, for the body library */
    i64 *doffs;    /* arena offset of the slot's placeholder data */
    i64 *aux;      /* VERIFY_EQ: expected value; VERIFY_TAB: table id;
                      END: end-record index */
    i64 *tabs;     /* jump tables: [len, key, target, key, target, ...] */
    i64 *toffs;    /* table id -> offset of its len word in tabs */
    i64 nends;
    unsigned char *lset;   /* per end-record: likely-next link present */
    i64 *lexpect;          /* expected init tag: (value << 1) | isobj */
    i64 *lnext;            /* successor chain id */
} Chain;

/* One mirrored intern-pool value: its kind (PK_*), shape id and words
 * in the arena. */
typedef struct {
    i64 kind, shape, off, len;
} PVal;

/* The leading fields up to and including r_loc are mirrored by the
 * ctypes _StPrefix structure in cbackend.py; do not reorder them
 * (ffc_prefix_bytes lets the tests check the two layouts agree). */
struct St {
    i64 cycles, retired_total, retired_fast, halted, err, err_a;
    i64 slots[MAX_SLOTS];
    unsigned char isobj[MAX_SLOTS];
    i64 *arrp[MAX_SLOTS];
    i64 arrlen[MAX_SLOTS];
    i64 counters[NCOUNTERS];
    unsigned char cdirty[NCOUNTERS];
    i64 consumed[MAX_CONSUMED];
    i64 nconsumed;
    /* A body handed back (X_RESUME): its action, the pc just past the
     * op it stopped at, and its operand stack and locals before that
     * op.  r_pc is -1 when no body was handed back.  The body saves
     * r_pc onwards; the walker records r_action. */
    i64 r_action, r_pc, r_sp;
    i64 r_stack[VM_STACK];
    i64 r_loc[VM_LOCALS];
    /* --- C-only state below (opaque to Python) --- */
    unsigned char **pt[PT1];
    page_fn page_cb;
    xcall_fn xcall;
    body_fn body;
    /* Per action: (shape id << 1) | is_verify of its compiled body, or
     * -1 where the library has none (see ffc_set_actions). */
    i64 *acts;
    i64 nacts;
    /* Pool mirror, indexed by intern-pool index. */
    PVal *pool;
    i64 npool;
    i64 *arena;
    i64 arena_n, arena_cap;
    i64 nmirrored;          /* values mirrored into the arena */
    Chain **chains;
    i64 nchains, chaincap;
    /* Object registry id -> id of the chain whose key that object is,
     * or -1 (set from a snapshot, see ffc_set_objchains, and by each
     * link Python resolves, see ffc_set_link). */
    i64 *objchain;
    i64 nobjchain, objchaincap;
    extern_fn extern_cb;
    /* Native extern registry */
    Nx nx[MAX_NX];
    i64 nnx;
    i64 *nx_map;       /* xid -> nx index, or -1 for the callback path */
    i64 *nx_hits;      /* per-xid native dispatch count */
    i64 nxmap_n, nxmap_cap;
};
"""

#: The replay kernel, compiled once per process after the prelude.
_KERNEL_TEMPLATE = r"""
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

/* ffc_add_chains results (>= 0 is the chain id) and refusal reasons. */
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
#define F_BODY 9
#define F_SHAPE 10

#define X_BUDGET 0
#define X_HALTED 1
#define X_MISS 2
#define X_NEXT 3
#define X_ERR 4
#define X_RESUME 5

#define NX_BIMODAL 0
#define NX_GSHARE 1
#define NX_TOURN 2
#define NX_TAKEN 3
#define NX_NOTTAKEN 4
#define NX_BIND 5
#define NX_BCALL 6
#define NX_CACHE 7

typedef struct {
    i64 code, err, cid, slot, end_ix, steps, actions, links;
} FfcExit;

static i64 kernel_xcall(St *st, i64 xid, i64 nargs, i64 *args);

St *ffc_new(void) {
    St *st = (St *)calloc(1, sizeof(St));
    if (st) st->xcall = kernel_xcall;
    return st;
}

i64 ffc_prefix_bytes(void) {
    return (i64)offsetof(St, pt);
}

/* The page and extern callbacks (Python), and the simulator's body
 * library (its ffb_run). */
void ffc_set_cbs(St *st, page_fn p, extern_fn x, body_fn b) {
    st->page_cb = p;
    st->extern_cb = x;
    st->body = b;
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

/* The simulator's n actions, once per engine: rows[a] is
 * (shape id << 1) | is_verify of action a's compiled body, or -1 where
 * the body library refused it.  Returns 0, or -1 when memory runs
 * out. */
i64 ffc_set_actions(St *st, i64 n, const i64 *rows) {
    i64 *acts = (i64 *)malloc((n ? n : 1) * sizeof(i64));
    if (!acts) return -1;
    if (n) memcpy(acts, rows, n * sizeof(i64));
    free(st->acts);
    st->acts = acts;
    st->nacts = n;
    return 0;
}

/* Mirror n pool values: rows holds (pool index, kind, shape, offset,
 * length) per value, offsets into the nwords words, which join the
 * arena as one block.  shape_map, when given, turns the rows' shape
 * ids into this kernel's (a snapshot's image numbers its own).  A
 * cold chain mirrors the values it asks for; a snapshot load mirrors
 * its whole pool in one call. */
i64 ffc_mirror(St *st, i64 n, const i64 *rows, const i64 *words, i64 nwords,
               const i64 *shape_map) {
    i64 top = 0;
    for (i64 k = 0; k < n; k++)
        if (rows[5 * k] >= top) top = rows[5 * k] + 1;
    PVal *pool = (PVal *)grow(st->pool, &st->npool, top, sizeof(PVal));
    if (!pool) return -1;
    st->pool = pool;
    i64 *arena = (i64 *)grow(st->arena, &st->arena_cap, st->arena_n + nwords,
                             sizeof(i64));
    if (!arena) return -1;
    st->arena = arena;
    if (nwords) memcpy(arena + st->arena_n, words, nwords * sizeof(i64));
    for (i64 k = 0; k < n; k++, rows += 5) {
        PVal *v = &pool[rows[0]];
        v->kind = rows[1];
        v->shape = shape_map && rows[1] == PK_TUPLE ? shape_map[rows[2]]
                                                    : rows[2];
        v->off = st->arena_n + rows[3];
        v->len = rows[4];
        st->nmirrored++;
    }
    st->arena_n += nwords;
    return 0;
}

/* Validate a snapshot's kernel image before anything is installed:
 * nrows mirror rows as ffc_mirror reads them, for an npool-slot pool.
 * Shape s is chars[soff[s]:soff[s + 1]], one 'i' or 'o' per member;
 * objrefs holds (pool index, member) per object registry id, objsucc
 * an entry index per registry id or -1.  Returns 0, or a CK_* code
 * with *where the offending row or registry id. */
#define CK_INDEX 1
#define CK_MIRROR 2
#define CK_OBJWORD 3
#define CK_OBJREF 4
#define CK_OBJCOUNT 5
#define CK_OBJSUCC 6
#define CK_NOMEM 7
i64 ffc_check_image(i64 npool, i64 nrows, const i64 *rows, const i64 *arena,
                    i64 narena, const char *chars, const i64 *soff,
                    i64 nshapes, const i64 *objrefs, const i64 *objsucc,
                    i64 nobjs, i64 nentries, i64 *where) {
    i64 nobjwords = 0, code = 0;
    i64 *rowof = (i64 *)malloc((npool ? npool : 1) * sizeof(i64));
    if (!rowof) return CK_NOMEM;
    memset(rowof, 0xff, (npool ? npool : 1) * sizeof(i64));
    for (i64 k = 0; k < nrows && !code; k++) {
        const i64 *r = rows + 5 * k;
        *where = k;
        if (r[0] < 0 || r[0] >= npool || rowof[r[0]] >= 0
            || r[1] < PK_INT || r[1] > PK_BAD) {
            code = CK_INDEX;
            break;
        }
        rowof[r[0]] = k;
        if (r[1] == PK_BAD) continue;
        if (r[3] < 0 || r[4] < 0 || r[3] > narena || r[4] > narena - r[3]
            || (r[1] == PK_INT && r[4] != 1)
            || (r[1] == PK_TUPLE && (r[2] < 0 || r[2] >= nshapes
                                     || soff[r[2] + 1] - soff[r[2]] != r[4]))) {
            code = CK_MIRROR;
            break;
        }
        if (r[1] != PK_TUPLE) continue;
        const char *shape = chars + soff[r[2]];
        for (i64 j = 0; j < r[4]; j++) {
            if (shape[j] != 'o') continue;
            i64 w = arena[r[3] + j];
            if (w < 0 || w >= nobjs) {
                code = CK_OBJWORD;
                break;
            }
            nobjwords++;
        }
    }
    for (i64 k = 0; k < nobjs && !code; k++) {
        i64 p = objrefs[2 * k], m = objrefs[2 * k + 1];
        const i64 *r = (p >= 0 && p < npool && rowof[p] >= 0)
            ? rows + 5 * rowof[p] : 0;
        *where = k;
        if (!r || r[1] != PK_TUPLE || m < 0 || m >= r[4]
            || chars[soff[r[2]] + m] != 'o' || arena[r[3] + m] != k)
            code = CK_OBJREF;
        else if (objsucc[k] < -1 || objsucc[k] >= nentries)
            code = CK_OBJSUCC;
    }
    free(rowof);
    if (code) return code;
    /* Every object word is some registry id's, so each names exactly
     * the member its objref names. */
    *where = nobjwords;
    return nobjwords == nobjs ? 0 : CK_OBJCOUNT;
}

/* Forget released pool indices: a later registration that needs one
 * again (the pool reuses freed indices) mirrors its new value afresh.
 * Their arena words stay until the next clear; a value dies only when
 * a verify turns into a jump table or a stale entry is overwritten. */
void ffc_forget(St *st, const i64 *idx, i64 n) {
    for (i64 k = 0; k < n; k++) {
        i64 p = idx[k];
        if (p >= 0 && p < st->npool) st->pool[p].kind = PK_NONE;
    }
}

/* Values mirrored into the arena since the last clear, forgotten ones
 * included. */
i64 ffc_mirrored(St *st) {
    return st->nmirrored;
}

/* One block holding a Chain and its arrays (i64 arrays first, so every
 * array stays aligned); 0 when memory runs out. */
static Chain *chain_alloc(i64 n, i64 nends, i64 ntabw, i64 ntables) {
    i64 m = n ? n : 1, e = nends ? nends : 1;
    i64 words = 2 * m + (ntabw ? ntabw : 1) + (ntables ? ntables : 1) + 2 * e;
    size_t size = sizeof(Chain) + words * sizeof(i64) + m * sizeof(int)
                  + m + e;
    Chain *ch = (Chain *)calloc(1, size);
    if (!ch) return 0;
    i64 *w = (i64 *)(ch + 1);
    ch->doffs = w; w += m;
    ch->aux = w; w += m;
    ch->tabs = w; w += ntabw ? ntabw : 1;
    ch->toffs = w; w += ntables ? ntables : 1;
    ch->lexpect = w; w += e;
    ch->lnext = w; w += e;
    ch->acts = (int *)w;
    ch->kinds = (unsigned char *)(ch->acts + m);
    ch->lset = ch->kinds + m;
    ch->n = n;
    ch->nends = nends;
    return ch;
}

static i64 pool_kind(St *st, i64 p) {
    return p < st->npool ? st->pool[p].kind : PK_NONE;
}

static i64 refuse(i64 *out, i64 why, i64 where, i64 what) {
    out[0] = R_REFUSED;
    out[1] = why;
    out[2] = where;
    out[3] = what;
    return R_REFUSED;
}

#define NEED(p) do { \
        if (need[0] < NEED_CAP) need[1 + need[0]++] = (p); \
        wants++; \
    } while (0)

/* Check and register one chain: n slots of nums/data/succ lanes, nends
 * end records, npool intern-pool values and ntables jump tables
 * flattened as [len, key, target, ...] each in the tabw words at tabs.
 * Writes the chain id, or R_NEED (the pool indices it needs mirrored
 * appended to need), or R_REFUSED with (F_* reason, slot (table for
 * F_SUCC), detail), or R_NOMEM, to out[0..3] and returns it. */
static i64 add_chain(St *st, const i64 *nums, const i64 *data,
                     const i64 *succ, i64 n, i64 nends, i64 npool,
                     const i64 *tabs, i64 ntables, i64 tabw, i64 *out,
                     i64 *need) {
    i64 wants = 0, ntabw = 0;
    out[1] = out[2] = out[3] = 0;
    if (ntables < 0) {  /* tables the kernel cannot take (non-int keys) */
        out[0] = R_NEED;
        return R_NEED;
    }
    for (i64 t = 0; t < ntables; t++) {
        if (ntabw >= tabw) return refuse(out, F_SUCC, t, -1);
        i64 len = tabs[ntabw++];
        if (len < 0 || len > (tabw - ntabw) / 2)
            return refuse(out, F_SUCC, t, -1);
        for (i64 j = 0; j < len; j++, ntabw += 2)
            if (tabs[ntabw + 1] < 0 || tabs[ntabw + 1] > n)
                return refuse(out, F_SUCC, t, tabs[ntabw + 1]);
    }
    for (i64 i = 0; i < n; i++) {
        i64 num = nums[i], d = data[i], s = succ[i];
        if (num == ENDMARK) {
            if (s < 0 || s >= nends) return refuse(out, F_END, i, s);
            continue;
        }
        if (d < 0 || d >= npool) return refuse(out, F_POOL, i, d);
        i64 k = pool_kind(st, d);
        if (k == PK_NONE) {
            NEED(d);
        } else if (k != PK_TUPLE) {
            return refuse(out, k == PK_INT ? F_SCALAR : F_DATA, i, d);
        } else {
            /* The action's compiled body, in the data's shape. */
            i64 a = num < 0 ? ~num : num;
            i64 row = a < st->nacts ? st->acts[a] : -1;
            if (row < 0) return refuse(out, F_BODY, i, a);
            if (row >> 1 != st->pool[d].shape)
                return refuse(out, F_SHAPE, i, st->pool[d].shape);
            if ((row & 1) != (num < 0)) return refuse(out, F_KIND, i, d);
        }
        if (num < 0 && s >= 0) {
            if (s >= npool) return refuse(out, F_POOL, i, s);
            k = pool_kind(st, s);
            if (k == PK_NONE) NEED(s);
            else if (k != PK_INT) return refuse(out, F_EXPECT, i, s);
        } else if (num < 0 && ~s >= ntables) {
            return refuse(out, F_TABLE, i, ~s);
        }
    }
    if (wants) {
        out[0] = R_NEED;
        return R_NEED;
    }
    out[0] = R_NOMEM;
    Chain **chains = (Chain **)grow(st->chains, &st->chaincap,
                                    st->nchains + 1, sizeof(Chain *));
    if (!chains) return R_NOMEM;
    st->chains = chains;
    Chain *ch = chain_alloc(n, nends, ntabw, ntables);
    if (!ch) return R_NOMEM;
    if (ntabw) memcpy(ch->tabs, tabs, ntabw * sizeof(i64));
    for (i64 t = 0, w = 0; t < ntables; t++) {
        ch->toffs[t] = w;
        w += 1 + 2 * tabs[w];
    }
    for (i64 i = 0; i < n; i++) {
        i64 num = nums[i], s = succ[i];
        if (num == ENDMARK) {
            ch->kinds[i] = K_END;
            ch->acts[i] = -1;
            ch->aux[i] = s;
            continue;
        }
        ch->doffs[i] = st->pool[data[i]].off;
        ch->acts[i] = (int)(num < 0 ? ~num : num);
        if (num >= 0) {
            ch->kinds[i] = K_ACTION;
        } else if (s >= 0) {
            ch->kinds[i] = K_VERIFY_EQ;
            ch->aux[i] = st->arena[st->pool[s].off];
        } else {
            ch->kinds[i] = K_VERIFY_TAB;
            ch->aux[i] = ~s;
        }
    }
    st->chains[st->nchains] = ch;
    out[0] = st->nchains;
    return st->nchains++;
}

/* The one chain-registration entry point: register nchains packed
 * chains.  Chain k's row (stride words apart in rows) starts with its
 * slot and end-record counts; its lanes are the next n words of the
 * nums, data and succ columns (nslots words each, chains back to
 * back), and trows[2k], trows[2k + 1] give the offset of its jump
 * tables in tabs (tabw words) and their count, -1 for tables the
 * kernel cannot take.  out[4k..4k+3] receives the chain's add_chain
 * result; need[0] counts the pool indices after it that the chains
 * asked for (at most NEED_CAP).
 * Returns the number of chains registered, or R_NOMEM when the lanes
 * overrun their columns or memory runs out. */
i64 ffc_add_chains(St *st, i64 nchains, const i64 *rows, i64 stride,
                   const i64 *nums, const i64 *data, const i64 *succ,
                   i64 nslots, const i64 *trows, const i64 *tabs, i64 tabw,
                   i64 npool, i64 *out, i64 *need) {
    i64 off = 0, added = 0;
    need[0] = 0;
    for (i64 k = 0; k < nchains; k++, rows += stride, out += 4) {
        i64 n = rows[0], toff = trows[2 * k];
        if (n < 0 || n > nslots - off || toff < 0 || toff > tabw)
            return R_NOMEM;
        i64 r = add_chain(st, nums + off, data + off, succ + off, n, rows[1],
                          npool, tabs + toff, trows[2 * k + 1], tabw - toff,
                          out, need);
        if (r == R_NOMEM) return R_NOMEM;
        if (r >= 0) added++;
        off += n;
    }
    return added;
}

/* Name each object registry id's chain: objchain[r] is the id of the
 * chain registered for entry objsucc[r] (out as ffc_add_chains wrote
 * it for nentries chains), or -1. */
i64 ffc_set_objchains(St *st, i64 nobjs, const i64 *objsucc,
                      const i64 *out, i64 nentries) {
    i64 *oc = (i64 *)grow(st->objchain, &st->objchaincap, nobjs,
                          sizeof(i64));
    if (!oc) return -1;
    st->objchain = oc;
    for (i64 r = 0; r < nobjs; r++) {
        i64 e = objsucc[r];
        oc[r] = (e >= 0 && e < nentries && out[4 * e] >= 0) ? out[4 * e] : -1;
    }
    st->nobjchain = nobjs;
    return 0;
}

void ffc_drop_chain(St *st, i64 cid) {
    if (cid < 0 || cid >= st->nchains) return;
    free(st->chains[cid]);
    st->chains[cid] = 0;
}

/* Drop every chain, the object-chain table and the pool mirror (the
 * action rows stay). */
void ffc_drop_all_chains(St *st) {
    for (i64 i = 0; i < st->nchains; i++) {
        free(st->chains[i]);
        st->chains[i] = 0;
    }
    st->nchains = 0;
    st->nobjchain = 0;
    if (st->pool) memset(st->pool, 0, st->npool * sizeof(PVal));
    st->arena_n = 0;
    st->nmirrored = 0;
}

/* Link tag of the live init value: (value << 1) | isobj. */
static i64 init_tag(St *st, i64 init_slot) {
    return (i64)(((u64)st->slots[init_slot] << 1) | st->isobj[init_slot]);
}

/* Link end record end_ix of chain cid to next_cid for the init value
 * the init slot holds now.  An init object also names next_cid as its
 * chain, so every other boundary that reaches it links in the kernel. */
void ffc_set_link(St *st, i64 cid, i64 end_ix, i64 init_slot,
                  i64 next_cid) {
    if (cid < 0 || cid >= st->nchains) return;
    Chain *ch = st->chains[cid];
    if (!ch || end_ix < 0 || end_ix >= ch->nends) return;
    ch->lset[end_ix] = 1;
    ch->lexpect[end_ix] = init_tag(st, init_slot);
    ch->lnext[end_ix] = next_cid;
    i64 r = st->slots[init_slot];
    if (!st->isobj[init_slot] || r < 0) return;
    if (r >= st->nobjchain) {
        i64 *oc = (i64 *)grow(st->objchain, &st->objchaincap, r + 1,
                              sizeof(i64));
        if (!oc) return;  /* the boundary still links; others exit */
        st->objchain = oc;
        for (i64 k = st->nobjchain; k < r; k++) oc[k] = -1;
        st->nobjchain = r + 1;
    }
    st->objchain[r] = next_cid;
}

void ffc_reset_pages(St *st) {
    for (i64 i = 0; i < PT1; i++) {
        free(st->pt[i]);
        st->pt[i] = 0;
    }
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
    free(st->acts);
    free(st->pool);
    free(st->arena);
    free(st->chains);
    free(st->objchain);
    free(st->nx_map);
    free(st->nx_hits);
    ffc_reset_pages(st);
    free(st);
}

/* -- extern dispatch ---------------------------------------------------- */

/* Every body's extern call: the native model bound to xid, or the Python
 * callback (which sets st->err to E_EXTERN when it raises). */
static i64 kernel_xcall(St *st, i64 xid, i64 nargs, i64 *args) {
    if (xid < st->nxmap_n && st->nx_map[xid] >= 0) {
        st->nx_hits[xid]++;
        return ffc_nx_call(st, st->nx_map[xid], nargs, args);
    }
    return st->extern_cb(xid, nargs, args);
}

/* -- chain walker ------------------------------------------------------- */

void ffc_run(St *st, i64 cid, i64 budget, i64 init_slot, FfcExit *ex) {
    i64 steps = 0, actions = 0, links = 0, i = 0;
    st->err = 0;
    st->r_pc = -1;
    Chain *ch = st->chains[cid];
    if (!ch) {
        st->err = E_BADOP;
        goto err;
    }
    for (;;) {
        st->nconsumed = 0;
        i = 0;
        while (i < ch->n) {
            int k = ch->kinds[i];
            if (k == K_END) {
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
                i64 tag = init_tag(st, init_slot), nx = -1;
                if (ch->lset[end_ix] && ch->lexpect[end_ix] == tag) {
                    nx = ch->lnext[end_ix];
                } else if (st->isobj[init_slot]) {
                    /* No link yet: an init object that names its chain
                     * links the boundary here, as _link would. */
                    i64 r = st->slots[init_slot];
                    if (r >= 0 && r < st->nobjchain) {
                        nx = st->objchain[r];
                        if (nx >= 0 && nx < st->nchains && st->chains[nx]) {
                            ch->lset[end_ix] = 1;
                            ch->lexpect[end_ix] = tag;
                            ch->lnext[end_ix] = nx;
                        }
                    }
                }
                Chain *nc = (nx >= 0 && nx < st->nchains) ? st->chains[nx] : 0;
                if (nc) {
                    links++;
                    cid = nx;
                    ch = nc;
                    goto next_step;
                }
                ex->code = X_NEXT;
                goto out;
              out:
                ex->err = E_NONE;
                ex->cid = cid;
                ex->slot = i;
                ex->end_ix = end_ix;
                ex->steps = steps;
                ex->actions = actions;
                ex->links = links;
                return;
            }
            /* An action or a verify: run its body in the library.  A
             * body handed back is named here for Python. */
            i64 a = ch->acts[i], v = 0;
            if (st->body(st, a, st->arena + ch->doffs[i], &v) < 0) {
                st->r_action = a;
                goto err;
            }
            actions++;
            if (k == K_ACTION) {
                i++;
                continue;
            }
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
        /* Fell off the record stream without an ENDMARK: malformed. */
        st->err = E_BADOP;
        goto err;
      next_step: ;
    }
  err:
    /* A body handed back resumes in Python at slot i of chain cid. */
    ex->code = st->r_pc >= 0 ? X_RESUME : X_ERR;
    ex->err = st->err;
    ex->cid = cid;
    ex->slot = i;
    ex->end_ix = -1;
    ex->steps = steps;
    ex->actions = actions;
    ex->links = links;
}
"""


def _prelude() -> str:
    return _PRELUDE % {
        "MAX_SLOTS": KERNEL_MAX_SLOTS, "NCOUNTERS": KERNEL_NCOUNTERS,
        "MAX_CONSUMED": MAX_CONSUMED, "VM_STACK": KERNEL_VM_STACK,
        "VM_LOCALS": KERNEL_VM_LOCALS,
    }


def kernel_source() -> str:
    return _prelude() + _KERNEL_TEMPLATE % {"ENDMARK": ENDMARK}


def body_library_source(progs: list) -> str:
    """One simulator's body library: the prelude, the helpers its bodies
    call and ``ffb_run`` over ``progs`` (:mod:`repro.facile.replay_c`)."""
    return _prelude() + BODY_HELPERS + emit_bodies(progs)


# ---------------------------------------------------------------------------
# Builds (compile once per process, cache the .so on disk)
# ---------------------------------------------------------------------------


@dataclass
class BuildStatus:
    """Outcome of one shared-library build: the kernel, or a
    simulator's body library."""

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
        ("slots", ctypes.c_longlong * KERNEL_MAX_SLOTS),
        ("isobj", ctypes.c_ubyte * KERNEL_MAX_SLOTS),
        ("arrp", ctypes.c_void_p * KERNEL_MAX_SLOTS),
        ("arrlen", ctypes.c_longlong * KERNEL_MAX_SLOTS),
        ("counters", ctypes.c_longlong * KERNEL_NCOUNTERS),
        ("cdirty", ctypes.c_ubyte * KERNEL_NCOUNTERS),
        ("consumed", ctypes.c_longlong * MAX_CONSUMED),
        ("nconsumed", ctypes.c_longlong),
        ("r_action", ctypes.c_longlong),
        ("r_pc", ctypes.c_longlong),
        ("r_sp", ctypes.c_longlong),
        ("r_stack", ctypes.c_longlong * KERNEL_VM_STACK),
        ("r_loc", ctypes.c_longlong * KERNEL_VM_LOCALS),
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
#: i64 words passed as ``bytes`` (zero-copy): tables, code, shapes.
_BUF = ctypes.c_char_p
#: i64 words passed by address (see _addr): lanes, images, outputs.
_PTR = ctypes.c_void_p


class Kernel:
    """A loaded replay kernel: the shared library plus its status."""

    def __init__(self, lib, status: BuildStatus):
        self.lib = lib
        self.status = status


def _declare(lib) -> None:
    lib.ffc_new.restype = ctypes.c_void_p
    lib.ffc_new.argtypes = []
    lib.ffc_prefix_bytes.restype = _LL
    lib.ffc_prefix_bytes.argtypes = []
    lib.ffc_set_cbs.restype = None
    lib.ffc_set_cbs.argtypes = [
        ctypes.c_void_p, PAGE_CB, EXTERN_CB, ctypes.c_void_p]
    lib.ffc_set_actions.restype = _LL
    lib.ffc_set_actions.argtypes = [ctypes.c_void_p, _LL, _PTR]
    lib.ffc_mirror.restype = _LL
    lib.ffc_mirror.argtypes = [ctypes.c_void_p, _LL, _PTR, _PTR, _LL, _BUF]
    lib.ffc_forget.restype = None
    lib.ffc_forget.argtypes = [ctypes.c_void_p, _BUF, _LL]
    lib.ffc_mirrored.restype = _LL
    lib.ffc_mirrored.argtypes = [ctypes.c_void_p]
    lib.ffc_check_image.restype = _LL
    lib.ffc_check_image.argtypes = [
        _LL, _LL, _PTR, _PTR, _LL, _BUF, _BUF, _LL, _PTR, _PTR, _LL, _LL,
        _PLL,
    ]
    lib.ffc_add_chains.restype = _LL
    lib.ffc_add_chains.argtypes = [
        ctypes.c_void_p, _LL, _PTR, _LL, _PTR, _PTR, _PTR, _LL, _PTR, _PTR,
        _LL, _LL, _PTR, _PTR,
    ]
    lib.ffc_set_objchains.restype = _LL
    lib.ffc_set_objchains.argtypes = [ctypes.c_void_p, _LL, _PTR, _PTR, _LL]
    lib.ffc_drop_chain.restype = None
    lib.ffc_drop_chain.argtypes = [ctypes.c_void_p, _LL]
    lib.ffc_drop_all_chains.restype = None
    lib.ffc_drop_all_chains.argtypes = [ctypes.c_void_p]
    lib.ffc_set_link.restype = None
    lib.ffc_set_link.argtypes = [ctypes.c_void_p, _LL, _LL, _LL, _LL]
    lib.ffc_reset_pages.restype = None
    lib.ffc_reset_pages.argtypes = [ctypes.c_void_p]
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


def _build(stem: str, source: str, what: str, opt: str) -> tuple:
    """Compile ``source`` at optimization level ``opt`` to
    ``<stem>-<content hash>.so`` in the disk cache, or find it there,
    and load it: ``(lib, BuildStatus)``, lib None when the build or the
    load failed (``what`` names the library in the reason).  Processes
    sharing the cache compile each source once (:class:`_BuildLock`)."""
    if os.environ.get("FACILE_NO_CC"):
        return None, BuildStatus(False, "compiler masked (FACILE_NO_CC)")
    cc = _find_cc()
    if cc is None:
        return None, BuildStatus(False, "no C compiler on PATH")
    digest = hashlib.sha256(f"{opt}\n{source}".encode()).hexdigest()[:16]
    cache_dir = _kernel_cache_dir()
    so_path = os.path.join(cache_dir, f"{stem}-{digest}.so")
    t0 = time.perf_counter()
    cached = os.path.exists(so_path)
    if not cached:
        try:
            os.makedirs(cache_dir, mode=0o700, exist_ok=True)
            lock = _BuildLock(os.path.join(cache_dir, f"{stem}-{digest}.lock"))
            lock.acquire()
            try:
                # Re-check under the lock: a concurrent winner may have
                # installed the .so while this process blocked.
                cached = os.path.exists(so_path)
                if not cached:
                    src_path = os.path.join(cache_dir, f"{stem}-{digest}.c")
                    with open(src_path, "w") as f:
                        f.write(source)
                    tmp = so_path + f".tmp{os.getpid()}"
                    proc = subprocess.run(
                        [cc, opt, "-shared", "-fPIC", "-o", tmp, src_path],
                        capture_output=True, text=True, timeout=120,
                    )
                    if proc.returncode != 0:
                        tail = (proc.stderr or "").strip().splitlines()[-3:]
                        return None, BuildStatus(
                            False,
                            f"{what}: cc failed: "
                            f"{' | '.join(tail) or 'unknown error'}",
                            cc=cc)
                    os.replace(tmp, so_path)
            finally:
                lock.release()
        except (OSError, subprocess.SubprocessError) as exc:
            return None, BuildStatus(
                False, f"{what} build failed: {exc}", cc=cc)
    try:
        lib = ctypes.CDLL(so_path)
    except OSError as exc:
        return None, BuildStatus(
            False, f"{what} load failed: {exc}", cc=cc, path=so_path)
    ms = (time.perf_counter() - t0) * 1000.0
    return lib, BuildStatus(
        True, "", compile_ms=ms, cached=cached, cc=cc, path=so_path)


def _build_kernel() -> Kernel:
    lib, status = _build("kernel", kernel_source(), "kernel", "-O2")
    if lib is not None:
        _declare(lib)
    return Kernel(lib, status)


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


class BodyLibrary:
    """The action bodies of one compiled simulator, compiled to C and
    kept for the life of the process (``CompiledSimulator.body_library``).

    Made when the simulator's first C engine starts.  Every action body
    is compiled to the replay IR in the one placeholder shape codegen
    records for it (:func:`~repro.facile.replay_ir.compile_bodies`, the
    programs ``repro check`` verifies), passed through the verifier gate
    (:func:`~repro.facile.ir_verify.assert_lowerable`) and translated
    by :func:`~repro.facile.replay_c.emit_bodies`; the programs build
    into one shared library through the kernel's disk cache, and
    ``status`` says whether it loaded (an engine whose library did not
    load degrades to the Python backend).  ``rows`` is what every
    engine's kernel learns of the actions when it starts: per action,
    its body's shape id and kind, or that the body was refused, whose
    reason :meth:`refusal` gives.  Shape ids and the extern numbering
    the programs bake in live here too, so every engine's kernel reads
    the same ids; a body the kernel hands back resumes in
    :func:`~repro.facile.replay_ir.interpret_body` on its program
    (:meth:`body`)."""

    def __init__(self, compiled):
        self.compiled = compiled
        programs, failures, self.externs = compile_bodies(compiled)
        # Placeholder shape strings ('i'/'o' per value) and their ids.
        self.shapes: list[str] = []
        self._shape_ids: dict[str, int] = {}
        # Action -> the reason it has no compiled body.
        self._refused = {num: str(exc) for num, exc in failures.items()}
        # Action -> its verified program.
        self._programs: dict[int, object] = {}
        #: Per action: ``(shape id << 1) | is_verify`` of its compiled
        #: body, or -1 where it has none (the kernel's action rows).
        self.rows = array("q", [-1]) * len(compiled.action_bodies)
        for num, body in programs.items():
            try:
                # The compiled body does no stack or bounds checking;
                # no program reaches the emitter unverified.
                assert_lowerable(body, n_slots=compiled.slot_count,
                                 externs=self.externs)
            except Unlowerable as exc:
                self._refused[num] = str(exc)
                continue
            self._programs[num] = body
            self.rows[num] = self.shape_id(body.shapes) << 1 | body.is_verify
        #: Bodies compiled to C.
        self.compiled_count = len(self._programs)
        # Straight-line bodies: -O1 runs them as fast as -O2 and
        # compiles in about two thirds of the time.
        source = body_library_source(list(self._programs.values()))
        self.lib, self.status = _build("bodies", source, "body library",
                                       "-O1")
        #: The library's ``ffb_run``, for the kernel.
        self.fn = None
        if self.lib is not None:
            self.fn = ctypes.cast(self.lib.ffb_run, ctypes.c_void_p).value

    def shape_id(self, shape: str) -> int:
        sid = self._shape_ids.get(shape)
        if sid is None:
            sid = self._shape_ids[shape] = len(self.shapes)
            self.shapes.append(shape)
        return sid

    def refusal(self, num: int) -> str:
        """Why action ``num`` has no compiled body."""
        return self._refused.get(num, f"action {num}: no recorded body")

    def body(self, num: int):
        """Action ``num``'s :class:`~repro.facile.replay_ir.BodyProgram`."""
        return self._programs[num]


def body_library(compiled) -> BodyLibrary:
    """The simulator's :class:`BodyLibrary`, made on first use."""
    library = compiled.body_library
    if library is None:
        library = compiled.body_library = BodyLibrary(compiled)
    return library


class CReplayBackend:
    """Per-engine C replay state: lowered chains, mirrors, callbacks.

    Installed as ``engine.cache.native`` so the cache can drop lowered
    chains in lockstep with reopens, stale overwrites, and clears.  The
    public surface the engine uses is :meth:`run_entry` (returns
    ``None`` to fall back to the Python tiers for this call), plus the
    :meth:`drop_entry`/:meth:`drop_all` invalidation hooks and
    :meth:`load_image` for snapshot loads.
    """

    def __init__(self, engine, kernel: Kernel, bodies: BodyLibrary):
        self.engine = engine
        self.kernel = kernel
        self.lib = kernel.lib
        self.bodies = bodies
        self.externs = bodies.externs
        # Pool indices whose last reference died since the kernel last
        # heard of them (the pool's release hook appends here).
        self._released: list[int] = []
        engine.cache.pool.on_release = self._released.append
        # Pool length at the last mirror sweep (see _mirror).
        self._swept = 0
        self._need = array("q", bytes(8 * (1 + NEED_CAP)))
        self._out = array("q", bytes(32))
        # Chain id -> its entry (None once dropped).
        self._entries: list = []
        self._objs: list = []
        self._obj_ids: dict[int, int] = {}
        self._arrs: dict[int, tuple] = {}
        self._page_refs: dict[int, object] = {}
        self._mem = None
        self._mem_epoch = -1
        self._extern_exc: BaseException | None = None
        self._exit = FfcExit()
        # Lowering / dispatch statistics (inspect reporting).
        self.chains_lowered = 0
        self.chains_unlowerable = 0
        self.chains_registered_at_load = 0
        self.links_in_python = 0
        self.runs = 0
        self.python_fallbacks = 0
        # Bodies the kernel handed back, by reason (E_* name).
        self.handbacks: dict[str, int] = {}
        # Why-not provenance: refusal reason -> count for unlowerable
        # chains, and extern name -> reason for Python-callback externs.
        self.unlowerable_reasons: dict[str, int] = {}
        self.extern_whynot: dict[str, str] = {}
        # Python callback exits per extern (the kernel counts the native
        # dispatches).
        self.extern_python_calls: dict[str, int] = {}
        # Native extern bindings (see _bind_native): (extern id, name)
        # per binding, the buffers handed to the kernel, kept alive, and
        # the models whose statistics drain at every sync.
        self._nx_bound: list[tuple[int, str]] = []
        self._nx_keepalive: list = []
        self._nx_drain: list = []
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
        self.lib.ffc_set_cbs(self._st_p, self._page_cb, self._extern_cb,
                             bodies.fn)
        rows = bodies.rows
        if self.lib.ffc_set_actions(self._st_p, len(rows), _addr(rows)) < 0:
            raise MemoryError("ffc_set_actions failed")
        self._bind_native(engine.ctx)

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
        try:
            cid = self._add_chain(entry.packed)
        except Unlowerable as exc:
            self._refuse(entry, str(exc))
            return None
        self._lowered(entry, cid)
        return cid

    def _lowered(self, entry, cid: int) -> None:
        entry.cnative = cid
        self._entries.append(entry)
        self.chains_lowered += 1

    def _refuse(self, entry, reason: str) -> None:
        entry.cnative = -1
        self.chains_unlowerable += 1
        self.unlowerable_reasons[reason] = (
            self.unlowerable_reasons.get(reason, 0) + 1
        )

    def _add_chain(self, chain) -> int:
        """Register one chain through the kernel's N-chain entry point
        (N = 1), reading its lanes in place and mirroring each pool
        value it asks for on the way."""
        if self._released:
            self._forget_released()
        tables = chain.tables
        tabs = _flatten_tables(tables)
        nums, data, succ = chain.nums, chain.data, chain.succ
        n = len(nums)
        if not n == len(data) == len(succ):
            raise Unlowerable("packed lanes of unequal length")
        # The chain's row, then its table row (offset 0, count).
        row = array("q", (n, len(chain.ends), 0, len(tables)))
        values = chain.pool.values
        need = self._need
        out = self._out
        # The call's words stay put while it asks for values.
        row_p = _addr(row)
        args = (self._st_p, 1, row_p, 4, _addr(nums), _addr(data),
                _addr(succ), n, row_p + 16, _addr(tabs), len(tabs),
                len(values), _addr(out), _addr(need))
        while True:
            if (self.lib.ffc_add_chains(*args) == R_NOMEM
                    or out[0] == R_NOMEM):
                raise Unlowerable("kernel out of memory")
            cid = out[0]
            if cid >= 0:
                return cid
            if cid == R_REFUSED:
                raise Unlowerable(_refusal(chain, self.bodies, out[1],
                                           out[2], out[3]))
            self._mirror(set(need[1:1 + need[0]]), values)

    def _mirror(self, pidx: set[int], values: list) -> None:
        """Flatten pool values into the kernel's arena, once each: the
        ones a registration asked for, plus every value interned since
        the last call, so most chains register in a single call."""
        top = len(values)
        if self._swept < top:
            pidx.update(p for p in range(self._swept, top)
                        if values[p] is not None)
            self._swept = top
        meta = array("q")
        words = array("q")
        shape_id = self.bodies.shape_id
        register = self._register

        def obj_word(x, j):
            return register(x)

        for p in pidx:
            mark = len(words)
            kind, shape = _flatten_value(values[p], words, shape_id, obj_word)
            meta.extend((p, kind, shape, mark, len(words) - mark))
        if self.lib.ffc_mirror(self._st_p, len(pidx), _addr(meta),
                               _addr(words), len(words), None) < 0:
            raise Unlowerable("kernel out of memory")

    def _forget_released(self) -> None:
        released = self._released
        self.lib.ffc_forget(
            self._st_p, array("q", released).tobytes(), len(released))
        released.clear()

    # -- warm starts -----------------------------------------------------

    def check_image(self, image) -> str | None:
        """Why a snapshot's kernel image (:class:`~repro.facile.snapshot.
        KernelImage`) cannot be installed, or None.  Runs before the
        load installs anything, so a bad image rejects the snapshot."""
        if self._objs or self._entries:
            # The image's object ids start at 0: they must be the first.
            return "kernel image: engine already running"
        chars, soff = _shape_blob(image.shapes)
        where = ctypes.c_longlong(0)
        code = self.lib.ffc_check_image(
            image.n_pool, len(image.mirror) // 5, _addr(image.mirror),
            _addr(image.arena), len(image.arena), chars, soff,
            len(image.shapes), _addr(image.objrefs), _addr(image.objsucc),
            len(image.objsucc), image.n_entries, ctypes.byref(where),
        )
        if code == CK_NOMEM:
            return "kernel image: out of memory"
        if code:
            what = ("mirror row" if code <= 3 else
                    "object words" if code == 5 else "object")
            return (f"kernel image: {_CHECK_REASONS[code]} "
                    f"({what} {where.value})")
        return None

    def load_image(self, image, entries: list) -> None:
        """Install a checked kernel image for the just-loaded ``entries``
        in bulk: the object registry in the image's order (so arena
        words are already registry ids), the pool mirror in one kernel
        call, every chain in one kernel call, and the chain each init
        object names.  The kernel refuses a chain there as it refuses a
        cold one, with the same reason; a chain it cannot take in bulk
        registers alone, the way a cold chain does."""
        pool = self.engine.cache.pool
        values = pool.values
        refs = image.objrefs
        objs = [values[p][m] for p, m in zip(refs[0::2], refs[1::2])]
        self._objs.extend(objs)
        self._obj_ids.update(zip(map(id, objs), range(len(objs))))
        shape_id = self.bodies.shape_id
        shape_map = array("q", [shape_id(s) for s in image.shapes] or [0])
        lib = self.lib
        if lib.ffc_mirror(self._st_p, len(image.mirror) // 5,
                          _addr(image.mirror), _addr(image.arena),
                          len(image.arena), shape_map.tobytes()) < 0:
            return  # out of memory: every chain registers lazily
        self._swept = len(values)
        n = len(entries)
        out = array("q", (R_NEED, 0, 0, 0)) * n
        lib.ffc_add_chains(
            self._st_p, n, _addr(image.rows), image.row_words,
            _addr(image.nums), _addr(image.data), _addr(image.succ),
            len(image.nums), _addr(image.trows), _addr(image.ktabs),
            len(image.ktabs), len(values), _addr(out), _addr(self._need),
        )
        cids = out[0::4]
        alone = []
        for k, (entry, cid) in enumerate(zip(entries, cids)):
            if cid >= 0:
                entry.cnative = cid
            elif cid == R_REFUSED:
                self._refuse(entry, _refusal(
                    entry.packed, self.bodies, out[4 * k + 1],
                    out[4 * k + 2], out[4 * k + 3]))
            else:
                # Needs Python (a value the image lacks, tables the
                # kernel cannot take) or memory: register alone.
                alone.append(k)
        # Chain ids are dense: the bulk ones in entry order, then the
        # ones registered alone (_lower counts those).
        base = len(self._entries)
        self._entries.extend([e for e, cid in zip(entries, cids) if cid >= 0])
        self.chains_lowered += len(self._entries) - base
        for k in alone:
            cid = self._lower(entries[k])
            out[4 * k] = -1 if cid is None else cid
        self.chains_registered_at_load += len(self._entries) - base
        lib.ffc_set_objchains(self._st_p, len(image.objsucc),
                              _addr(image.objsucc), _addr(out), n)

    # -- invalidation hooks (called by ActionCache) ----------------------

    def drop_entry(self, entry) -> None:
        cid = entry.cnative
        entry.cnative = None
        if cid is not None and cid >= 0:
            self.lib.ffc_drop_chain(self._st_p, cid)
            self._entries[cid] = None

    def drop_all(self) -> None:
        """The cache cleared: drop every chain and reset the pool
        mirror (the action rows stay)."""
        self.lib.ffc_drop_all_chains(self._st_p)
        for entry in self._entries:
            if entry is not None:
                entry.cnative = None
        self._entries.clear()
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
        return True

    def _bind_native(self, ctx) -> None:
        """Once, when the backend starts: resolve externs whose bound
        models match the native registry to in-kernel dispatch ids; the
        rest keep the callback path.  The body library interned every
        extern its programs call when it was made, so the table never
        grows after this."""
        lib = self.lib
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
            self._nx_bound.append((xid, name))
            self._nx_keepalive.append((pbuf, list(arrays.values())))
            for m in drain:
                if id(m) not in drain_ids:
                    drain_ids.add(id(m))
                    self._nx_drain.append(m)

    def extern_counts(self) -> dict[str, dict[str, int]]:
        """Per-extern dispatch counts over the engine's lifetime:
        native in-kernel (the kernel's per-extern counters) vs Python
        callback exits."""
        hits = self.lib.ffc_nx_hits
        native = {name: n for xid, name in self._nx_bound
                  if (n := hits(self._st_p, xid))}
        python = self.extern_python_calls
        return {name: {"native": native.get(name, 0),
                       "python": python.get(name, 0)}
                for name in sorted(native.keys() | python.keys())}

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
            name = self.externs.names[xid]
            fn = ctx.externs.get(name)
            if fn is None:
                raise SimulationError(f"extern {name!r} was not bound")
            calls = self.extern_python_calls
            calls[name] = calls.get(name, 0) + 1
            r = fn(*args[:nargs])
            if type(r) is int and _I64_MIN <= r <= _I64_MAX:
                return r
            if type(r) is bool:
                return int(r)
            raise SimulationError(
                f"extern {name!r} returned "
                f"{type(r).__name__}; the C replay backend requires ints"
            )
        except BaseException as exc:
            self._extern_exc = exc
            st.err = E_EXTERN
            return 0

    # -- execution -------------------------------------------------------

    def _link(self, ex) -> int | None:
        """On an X_NEXT exit: look the successor key up in the cache
        (billing exactly one lookup+hit on success), register its chain,
        install the likely-next link on both sides, and return the
        successor chain id — or None when the walk must return to the
        engine's Python loop.  The kernel also names the chain for the
        init object, so later boundaries that reach the same object
        link without coming back here."""
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
        if entry is None or not entry.complete:
            return None
        end = self._entries[ex.cid].packed.ends[ex.end_ix]
        end.likely_next = (raw, entry)
        self.links_in_python += 1
        cid2 = self._lower(entry)
        if cid2 is None:
            # Unlowerable successor: the Python driver follows the
            # likely-next link we just installed and bills the lookup.
            return None
        cstats = cache.stats
        cstats.lookups += 1
        cstats.hits += 1
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
        cstats = engine.cache.stats
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
        engine.stats.actions_replayed += total_actions
        code = ex.code
        self._sync_out(ctx)
        if code == X_ERR or code == X_RESUME:
            # A page the callback could not supply also hands its body
            # back; its exception wins.
            exc = self._extern_exc
            self._extern_exc = None
            if exc is not None:
                raise exc
            if code == X_RESUME:
                return self._resume(ex, total_steps)
            name = E_NAMES[ex.err] if 0 <= ex.err < len(E_NAMES) else ex.err
            raise SimulationError(
                f"C replay kernel error {name} (chain {ex.cid}, "
                f"detail {st.err_a})"
            )
        if code == X_MISS:
            consumed = [st.consumed[i] for i in range(st.nconsumed)]
            cstats.misses_verify += 1
            engine._recover(self._entries[ex.cid], consumed)
            return None, total_steps
        return self._entries[ex.cid].packed.ends[ex.end_ix], total_steps

    def _resume(self, ex, steps: int):
        """On an X_RESUME exit (the context already synced out): run the
        handed-back body on from the op the kernel stopped at, in the
        spec interpreter with unbounded ints, then finish the step on
        the Python packed loop.  Returns :meth:`run_entry`'s result."""
        st = self._st
        engine = self.engine
        ctx = engine.ctx
        name = E_NAMES[ex.err]
        self.handbacks[name] = self.handbacks.get(name, 0) + 1
        entry = self._entries[ex.cid]
        chain = entry.packed
        if chain.knums is None:
            build_replay_view(chain)
        i = ex.slot
        body = self.bodies.body(st.r_action)
        consumed = st.consumed[:st.nconsumed]
        ctx.in_fast = True
        try:
            value = interpret_body(
                body, ctx, ctx.S, chain.datavals[i], pc=st.r_pc - 2,
                stack=st.r_stack[:st.r_sp],
                locals_=st.r_loc[:KERNEL_VM_LOCALS],
            )
        finally:
            ctx.in_fast = False
        engine.stats.actions_replayed += 1
        if chain.knums[i] >= 0:
            i += 1
        else:
            # A verify body: follow its value as the packed loop does.
            value = freeze(value)
            consumed.append(value)
            sx = chain.sux[i]
            if sx.__class__ is dict:
                i = sx.get(value)
            else:
                i = i + 1 if sx == value else None
            if i is None:
                engine.cache.stats.misses_verify += 1
                engine._recover(entry, consumed)
                return None, steps
        end, n = engine._fast_step_packed(entry, 1, i, consumed)
        return end, steps + n

    # -- reporting -------------------------------------------------------

    def summary(self) -> dict:
        """Lowering and dispatch statistics.  ``values_mirrored`` counts
        the pool values mirrored into the kernel's arena since the last
        clear, forgotten ones included; ``chains_registered_at_load``
        the chains a snapshot load registered in bulk;
        ``links_in_python`` the step boundaries :meth:`_link` resolved;
        ``bodies_compiled`` the bodies the simulator's library holds in
        C, which this engine's kernel knows from its start, and
        ``library_ms`` its build (or, with ``library_cached``, its load
        from the disk cache); ``handbacks`` the bodies the kernel handed
        back to the spec interpreter, by reason."""
        library = self.bodies.status
        return {
            "chains_lowered": self.chains_lowered,
            "chains_unlowerable": self.chains_unlowerable,
            "chains_registered_at_load": self.chains_registered_at_load,
            "links_in_python": self.links_in_python,
            "bodies_compiled": self.bodies.compiled_count,
            "library_ms": library.compile_ms,
            "library_cached": library.cached,
            "values_mirrored": self.lib.ffc_mirrored(self._st_p),
            "runs": self.runs,
            "python_fallbacks": self.python_fallbacks,
            "handbacks": dict(self.handbacks),
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


def _flatten_tables(tables: list[dict]) -> array:
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
    return words


def _flatten_value(v, words: array, shape_id, obj_word) -> tuple[int, int]:
    """Append one pool value's arena words to ``words`` and return its
    mirror ``(kind, shape id)``: an i64 int is one word (``PK_INT``); a
    tuple is one word per member (``PK_TUPLE``), ints as themselves and
    anything else as ``obj_word(member, position)``, an object registry
    id; anything else, or an int outside i64, is ``PK_BAD`` with no
    words."""
    mark = len(words)
    if type(v) is tuple:
        # The common case, only i64 ints, in one call; a value that
        # starts with a tuple (a key, or a flush record's ``(key,)``)
        # goes straight to the member loop.
        if not v or type(v[0]) is not tuple:
            try:
                words.extend(v)
                return PK_TUPLE, shape_id("i" * len(v))
            except (TypeError, OverflowError):
                del words[mark:]
        shape = []
        for j, x in enumerate(v):
            if type(x) is int or type(x) is bool:
                if not _I64_MIN <= x <= _I64_MAX:
                    del words[mark:]
                    return PK_BAD, -1
                shape.append("i")
                words.append(x)
            else:
                shape.append("o")
                words.append(obj_word(x, j))
        return PK_TUPLE, shape_id("".join(shape))
    if (type(v) is int or type(v) is bool) and _I64_MIN <= v <= _I64_MAX:
        words.append(v)
        return PK_INT, -1
    return PK_BAD, -1


def kernel_image(pool, chains: list, entry_of) -> dict:
    """The kernel image a snapshot stores for ``chains`` (sealed, in
    file order): the pool mirror as :meth:`CReplayBackend._mirror`
    builds it (one ``ffc_mirror`` row per live value), with every
    non-int tuple member numbered by its position in ``objrefs`` (pool
    index, member) and ``objsucc`` holding ``entry_of(member)``, the
    index of the entry that member keys or -1; and the jump tables as
    kernel words (count -1 for a chain with a non-int table key).
    Shape ids index ``shapes``."""
    values = pool.values
    refs = pool._refs
    shape_ids: dict[str, int] = {}

    def shape_id(shape: str) -> int:
        return shape_ids.setdefault(shape, len(shape_ids))

    mirror = array("q")
    arena = array("q")
    objrefs = array("q")
    objsucc = array("q")
    for p, v in enumerate(values):
        if refs[p] <= 0:
            continue
        mark, omark = len(arena), len(objrefs)

        def obj_word(x, j, p=p):
            objrefs.extend((p, j))
            objsucc.append(entry_of(x))
            return len(objsucc) - 1

        kind, shape = _flatten_value(v, arena, shape_id, obj_word)
        if kind == PK_BAD:
            del objrefs[omark:]
            del objsucc[omark // 2:]
        mirror.extend((p, kind, shape, mark, len(arena) - mark))
    trows = array("q", bytes(16 * len(chains)))
    ktabs = array("q")
    for k, chain in enumerate(chains):
        if not chain.tables:
            continue
        try:
            words = _flatten_tables(chain.tables)
        except Unlowerable:
            trows[2 * k + 1] = -1
            continue
        trows[2 * k] = len(ktabs)
        trows[2 * k + 1] = len(chain.tables)
        ktabs.extend(words)
    return {
        "shapes": tuple(shape_ids), "mirror": mirror, "arena": arena,
        "objrefs": objrefs, "objsucc": objsucc, "trows": trows,
        "ktabs": ktabs,
    }


def _addr(words) -> int | None:
    """Address of the first word of an ``array('q')`` or of a writable
    ``memoryview`` (a snapshot's copy-on-write mapping), read in place;
    None when empty (the kernel reads no words)."""
    if not len(words):
        return None
    if type(words) is array:
        return words.buffer_info()[0]
    return ctypes.addressof(ctypes.c_char.from_buffer(words))


def _shape_blob(shapes) -> tuple[bytes, bytes]:
    """Shape strings as the kernel's check reads them: the characters
    back to back, and each shape's start (plus the end) as i64 words."""
    offs = array("q", [0])
    for shape in shapes:
        offs.append(offs[-1] + len(shape))
    return "".join(shapes).encode("ascii"), offs.tobytes()


#: ffc_check_image codes -> rejection reasons.
CK_NOMEM = 7
_CHECK_REASONS = {
    1: "pool index or value kind out of range",
    2: "mirror offset out of range",
    3: "object word out of range",
    4: "object reference does not match the arena",
    5: "object count mismatch",
    6: "object successor out of range",
}


def _refusal(chain, library: BodyLibrary, why: int, where: int,
             what: int) -> str:
    """The ``Unlowerable`` reason for one lane-registration refusal
    (``where`` is the slot, or the table for ``F_SUCC``); a slot whose
    action has no compiled body, or one in another shape, gets the
    library's reason."""
    values = chain.pool.values
    if why == F_EXPECT:
        return f"non-int verify value {values[what]!r}"
    if why == F_SUCC:
        return (f"chain rejected at lane registration: table {where}: "
                f"successor {what} outside [0, {len(chain.nums)}]")
    if why == F_BODY:
        return library.refusal(what)
    num = chain.nums[where]
    action = ~num if num < 0 else num
    if why == F_SHAPE:
        return (f"action {action}: no compiled body for shape "
                f"{library.shapes[what]!r} (compiled for "
                f"{library.body(action).shapes!r})")
    if why == F_DATA and type(values[what]) is tuple:
        return f"action {action}: data value exceeds i64"
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

