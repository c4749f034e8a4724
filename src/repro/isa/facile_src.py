"""SPARC-lite described in Facile, generated from the ISA tables.

The paper's §3.1 point is that one concise description drives decode and
semantics; here the description itself is derived from
:mod:`repro.isa.sparclite`'s tables, so the assembler, the Python
functional simulator, and the Facile simulators share a single source of
truth.  ``isa_declarations()`` returns the ``token``/``pat``/``sem``
text; ``functional_sim_source()`` appends the paper-style
one-instruction-per-step ``main`` (Figure 6, extended with SPARC delay
slots and annulment).

Semantics conventions used by the generated ``sem`` bodies:

* architectural state: ``R`` (registers, ``R[0]`` kept zero by guarded
  writes), ``CC`` (NZVC nibble), target memory via ``mem_*`` built-ins;
* sequencing state: the step key is ``(pc, npc, annul)``; sems may set
  ``NPC2`` (the nPC after the delay slot) and ``ANNUL2``;
* event tracking for the timing models: ``IS_BR``/``BR_TAKEN``,
  ``IS_MEM``/``MEM_ADDR``/``IS_STORE``, ``IS_HALT`` — all assigned
  defaults by ``main`` before ``?exec`` so they stay run-time static
  where possible.
"""

from __future__ import annotations

from . import sparclite as S

TOKEN_DECL = """
token instruction[32] fields
  op 30:31, rd 25:29, op2 22:24, imm22 0:21,
  a 29:29, cond 25:28, disp22 0:21,
  op3 19:24, rs1 14:18, i 13:13, simm13 0:12, rs2 0:4,
  disp30 0:29;
"""


def _arith_sem(spec: S.ArithOp, halt_builtin: bool = True) -> str:
    name = spec.name
    track = f"  CLS_G = {spec.cls};\n"
    if spec.kind == "halt":
        body = "IS_HALT = 1; " + ("halt(); " if halt_builtin else "")
        return f"sem {name} {{ CLS_G = {spec.cls}; {body}}};\n"
    if spec.kind == "jmpl":
        return (
            f"sem {name} {{\n" + track
            + "  SRC1 = rs1;\n"
            "  if (!i) SRC2 = rs2;\n"
            "  IS_RET = i && (rs1 == 15) && (rd == 0) && (simm13 == 8);\n"
            "  if (rd != 0) { R[rd] = PC; DEST = rd; }\n"
            "  val tv = ((R[rs1] + select(i, simm13?sext(13), R[rs2]))?u32)?verify;\n"
            "  NPC2 = tv;\n"
            "  IS_BR = 1;\n"
            "  BR_TAKEN = 1;\n"
            "};\n"
        )
    if spec.kind == "shift":
        expr = {
            "sll": "(R[rs1] << ({b} & 31))?u32",
            "srl": "(R[rs1]?u32 >> ({b} & 31))",
            "sra": "(R[rs1]?s32 >> ({b} & 31))?u32",
        }[name]
        body = expr.format(b="select(i, simm13?zext(5), R[rs2])")
        return (
            f"sem {name} {{\n" + track
            + "  SRC1 = rs1;\n"
            "  if (!i) SRC2 = rs2;\n"
            f"  if (rd != 0) {{ R[rd] = {body}; DEST = rd; }}\n"
            "};\n"
        )
    base = name[:-2] if spec.sets_cc else name
    expr = {
        "add": "(R[rs1] + {b})?u32",
        "sub": "(R[rs1] - {b})?u32",
        "and": "R[rs1] & {b}",
        "or": "R[rs1] | {b}",
        "xor": "R[rs1] ^ {b}",
        "umul": "umul32(R[rs1], {b})",
        "udiv": "udiv32(R[rs1], {b})",
    }[base]
    # CC must be computed from the *source* operands, so it is emitted
    # before the destination write (rd may alias rs1/rs2).
    cc = ""
    if spec.sets_cc:
        logic_op = {"and": "&", "or": "|", "xor": "^"}.get(base, "&")
        cc_fn = {"add": "cc_add(R[rs1], {b})", "sub": "cc_sub(R[rs1], {b})"}.get(
            base, f"cc_logic(R[rs1] {logic_op} {{b}})"
        )
        cc = f"CC = {cc_fn}; "
    b = "select(i, simm13?sext(13), R[rs2])"
    setcc = "  SETSCC_G = 1;\n" if spec.sets_cc else ""
    cc_line = f"  {cc.format(b=b)}\n" if cc else ""
    return (
        f"sem {name} {{\n" + track
        + "  SRC1 = rs1;\n"
        "  if (!i) SRC2 = rs2;\n"
        + setcc
        + cc_line
        + f"  if (rd != 0) {{ R[rd] = {expr.format(b=b)}; DEST = rd; }}\n"
        "};\n"
    )


def _mem_sem(spec: S.MemOp) -> str:
    read = {4: "mem_read", 2: "mem_read16", 1: "mem_read8"}[spec.width]
    write = {4: "mem_write", 2: "mem_write16", 1: "mem_write8"}[spec.width]
    lines = [f"sem {spec.name} {{", f"  CLS_G = {spec.cls};"]
    lines.append("  SRC1 = rs1;")
    lines.append("  if (!i) SRC2 = rs2;")
    lines.append("  IS_MEM = 1;")
    lines.append(
        "  MEM_ADDR = (R[rs1] + select(i, simm13?sext(13), R[rs2]))?u32;"
    )
    if spec.is_store:
        lines.append("  IS_STORE = 1;")
        lines.append("  SRC3 = rd;")
        lines.append(f"  {write}(MEM_ADDR, R[rd]);")
    else:
        lines.append(f"  if (rd != 0) {{ R[rd] = {read}(MEM_ADDR); DEST = rd; }}")
    lines.append("};")
    return "\n".join(lines) + "\n"


def isa_declarations(halt_builtin: bool = True) -> str:
    """token/fields/pat/sem declarations for the full SPARC-lite ISA.

    ``halt_builtin=False`` makes the ``halt`` sem only raise ``IS_HALT``
    (the out-of-order model must drain its pipeline before stopping the
    engine); the default also calls the ``halt()`` built-in, which is
    what the one-instruction-per-step functional simulator wants.
    """
    parts = [TOKEN_DECL]
    # Patterns.
    parts.append("pat call = op==1;\n")
    parts.append("pat sethi = op==0 && op2==4;\n")
    parts.append("pat bicc = op==0 && op2==2;\n")
    for spec in S.ARITH_OPS:
        parts.append(f"pat {spec.name} = op==2 && op3=={spec.op3:#x};\n")
    for spec in S.MEM_OPS:
        parts.append(f"pat {spec.name} = op==3 && op3=={spec.op3:#x};\n")

    # Tracking / sequencing globals shared by all sems.  The event
    # globals below are written for the host (timing models read them
    # from the context), so the write-only-global lint is silenced.
    parts.append(
        "// fac: disable-file=FAC105\n"
        "val R = array(32){0};\n"
        "val CC = 0;\n"
        "val PC : stream;\n"
        "val NPC2 : stream;\n"
        "val ANNUL2 = 0;\n"
        "val IS_BR = 0;\n"
        "val BR_TAKEN = 0;\n"
        "val IS_MEM = 0;\n"
        "val IS_STORE = 0;\n"
        "val MEM_ADDR = 0;\n"
        "val IS_HALT = 0;\n"
        "val IS_RET = 0;\n"
        "val CLS_G = 0;\n"
        "val DEST = 33;\n"
        "val SRC1 = 33;\n"
        "val SRC2 = 33;\n"
        "val SRC3 = 33;\n"
        "val SETSCC_G = 0;\n"
    )

    # Semantics.
    parts.append(
        "sem call {\n"
        f"  CLS_G = {S.CLS_CALL};\n"
        "  R[15] = PC;\n"
        "  DEST = 15;\n"
        "  NPC2 = PC + disp30?sext(30) * 4;\n"
        "  IS_BR = 1;\n"
        "  BR_TAKEN = 1;\n"
        "};\n"
    )
    parts.append(
        "sem sethi {\n"
        f"  CLS_G = {S.CLS_SETHI};\n"
        "  if (rd != 0) { R[rd] = (imm22 << 10)?u32; DEST = rd; }\n"
        "};\n"
    )
    parts.append(
        "sem bicc {\n"
        f"  CLS_G = {S.CLS_BRANCH};\n"
        "  SRC1 = 32;\n"
        "  val tk = cc_branch_taken(cond, CC)?verify;\n"
        "  IS_BR = 1;\n"
        "  BR_TAKEN = tk;\n"
        "  if (tk) {\n"
        "    NPC2 = PC + disp22?sext(22) * 4;\n"
        "    if (a && cond == 8) ANNUL2 = 1;\n"
        "  } else {\n"
        "    if (a) ANNUL2 = 1;\n"
        "  }\n"
        "};\n"
    )
    for spec in S.ARITH_OPS:
        parts.append(_arith_sem(spec, halt_builtin=halt_builtin))
    for spec in S.MEM_OPS:
        parts.append(_mem_sem(spec))
    return "".join(parts)


FUNCTIONAL_MAIN = """
val init;

fun main(pc, npc, annul) {
  PC = pc;
  NPC2 = npc + 4;
  ANNUL2 = 0;
  IS_BR = 0;
  BR_TAKEN = 0;
  IS_MEM = 0;
  IS_STORE = 0;
  IS_HALT = 0;
  IS_RET = 0;
  CLS_G = 0;
  DEST = 33;
  SRC1 = 33;
  SRC2 = 33;
  SRC3 = 33;
  SETSCC_G = 0;
  if (annul) {
    // Annulled delay slot: the instruction is fetched but not executed.
  } else {
    PC?exec();
    stat_retire(1);
  }
  init = (npc, NPC2, ANNUL2);
}
"""


def functional_sim_source() -> str:
    """Complete Facile source for the functional SPARC-lite simulator.

    This is the repo's analogue of the paper's 703-line functional
    simulator: one instruction per step, keyed by (pc, npc, annul).
    """
    return isa_declarations() + FUNCTIONAL_MAIN
