"""Batched diagnostics for the Facile compiler.

The front half of the compiler historically raised the *first*
:class:`SemanticError` it found.  This module is the collect-many layer
that replaced that: checkers emit :class:`Diagnostic` objects into a
:class:`DiagnosticSink`, every diagnostic carries a stable ``FAC0xx``
code, a severity, and a real :class:`SourceSpan`, and the sink decides
at the end whether to raise (library mode, backwards compatible) or to
hand the whole batch to a report (``repro check``).

Severity model
--------------

``error``
    The program violates the language rules or the paper's soundness
    requirements (§3.2 restrictions, §4 dynamic result tests).  Errors
    cannot be suppressed and make ``repro check`` exit 1.
``warning``
    The program compiles but something is suspicious (dead code,
    shadowed pattern arms, predicted cache blowup).  Warnings become
    errors under ``--werror``.
``info``
    Observations that are usually idiomatic (write-only instrumentation
    globals read by the host).

Suppression comments
--------------------

Warnings and infos can be silenced from the source text::

    x = x;                  // fac: disable=FAC105
    // fac: disable-next-line=FAC101
    val y = maybe_unset;
    // fac: disable-file=FAC105,FAC110

A ``disable`` comment that has the whole line to itself behaves like
``disable-next-line``.  ``all`` is accepted as a code.  Errors are never
suppressible: a suppressed error would silently produce an unsound
simulator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .source import SemanticError, SourceBuffer, SourceSpan, UNKNOWN_SPAN

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one diagnostic code."""

    code: str
    severity: str
    title: str


def _registry(entries: list[tuple[str, str, str]]) -> dict[str, CodeInfo]:
    table: dict[str, CodeInfo] = {}
    for code, severity, title in entries:
        if code in table:
            raise ValueError(f"duplicate diagnostic code {code}")
        table[code] = CodeInfo(code, severity, title)
    return table


#: Every diagnostic the compiler and the analysis passes can produce.
#: FAC0xx: front-end errors.  FAC1xx: flow/liveness lints.  FAC2xx: the
#: BTA-soundness audit.  FAC3xx: the cache-blowup predictor.  FAC4xx:
#: the replay-IR verifier and lowerability lint.  FAC5xx: the uarch
#: module-protocol conformance audit.
CODES: dict[str, CodeInfo] = _registry([
    ("FAC001", ERROR, "malformed lexeme"),
    ("FAC002", ERROR, "syntax error"),
    ("FAC010", ERROR, "unresolved name"),
    ("FAC011", ERROR, "duplicate declaration"),
    ("FAC012", ERROR, "declaration shadows a built-in or token field"),
    ("FAC013", ERROR, "arity mismatch"),
    ("FAC014", ERROR, "unknown attribute"),
    ("FAC015", ERROR, "recursion is not allowed"),
    ("FAC016", ERROR, "break/continue outside a loop"),
    ("FAC017", ERROR, "invalid assignment"),
    ("FAC018", ERROR, "ill-formed pattern"),
    ("FAC019", ERROR, "missing 'main' step function"),
    ("FAC030", ERROR, "unsupported or internal construct"),
    ("FAC101", WARNING, "use before initialization"),
    ("FAC102", WARNING, "dead function"),
    ("FAC103", WARNING, "unreachable sem"),
    ("FAC104", WARNING, "unused global"),
    ("FAC105", INFO, "write-only global"),
    ("FAC110", WARNING, "unreachable pattern or pat arm"),
    ("FAC111", WARNING, "overlapping pat arms"),
    ("FAC200", ERROR, "binding-time division mismatch (audit)"),
    ("FAC201", ERROR, "dynamic value reaches the rt-static step key"),
    ("FAC202", WARNING, "dynamic-steered control flow without an explicit result test"),
    ("FAC203", ERROR, "dynamic-steered control flow left unpinned after insertion"),
    ("FAC301", WARNING, "unbounded-domain rt-static key component"),
    ("FAC302", WARNING, "rt-static loop trip count depends on the key"),
    ("FAC401", ERROR, "replay-IR stack discipline violation"),
    ("FAC402", ERROR, "malformed replay-IR bytecode"),
    ("FAC403", ERROR, "replay-IR operand-kind violation"),
    ("FAC404", ERROR, "replay-IR operand or index out of range"),
    ("FAC405", WARNING, "op the C kernel hands back to the Python spec on every run"),
    ("FAC410", INFO, "action body stays on the Python replay backend"),
    ("FAC411", INFO, "extern stays on the Python callback path"),
    ("FAC501", WARNING, "uarch model array state missing from state_arrays()"),
    ("FAC502", WARNING, "uarch model keeps mutable state outside the protocol"),
    ("FAC503", WARNING, "uarch config_key() misses a behavior-changing parameter"),
    ("FAC504", WARNING, "uarch module-protocol surface is malformed"),
])

#: One short illustrative trigger per code, for docs/DIAGNOSTICS.md.
CODE_EXAMPLES: dict[str, str] = {
    "FAC001": "val x = 0q7;  // no such integer literal",
    "FAC002": "fun main( { }",
    "FAC010": "fun main(pc) { init = nope; }",
    "FAC011": "val x; val x;",
    "FAC012": "fun popcount(v) { }",
    "FAC013": "fun f(a, b) { } fun main(pc) { f(1); }",
    "FAC014": "val y = token ? no_such_field;",
    "FAC015": "fun f(n) { return f(n); }",
    "FAC016": "fun main(pc) { break; }",
    "FAC017": "fun main(pc) { 3 = pc; }",
    "FAC018": "pat p = 1;  // pattern must constrain token fields",
    "FAC019": "val init;  // no 'main' step function",
    "FAC030": "internal or unsupported construct reached the back end",
    "FAC101": "val x; if (pc) { x = 1; } val y = x;",
    "FAC102": "fun never_called() { }",
    "FAC103": "sem after an unconditional branch",
    "FAC104": "val unused_global;",
    "FAC105": "val stat; fun main(pc) { stat = stat + 1; init = pc; }",
    "FAC110": "pat a = op==1; pat also_a = op==1;  // second arm dead",
    "FAC111": "pat wide = op>0; pat narrow = op==3;",
    "FAC200": "audit found a dynamic value in an rt-static position",
    "FAC201": "init = read8(addr);  // dynamic value reaches the key",
    "FAC202": "if (read8(pc)) { cycles = cycles + 1; }",
    "FAC203": "insertion left a dynamic branch unpinned (internal audit)",
    "FAC301": "init = init + 4;  // key never revisits a value",
    "FAC302": "while (i < key_param) { ... }  // per-key unrolling",
    "FAC401": "bytecode END reached with values still on the stack",
    "FAC402": "jump target 7 misaligned or out of range",
    "FAC403": "object placeholder used in computation",
    "FAC404": "slot index 91 outside [0, 64)",
    "FAC405": "x << 64  // kernel hands the body back, Python keeps shifting",
    "FAC410": "log_value(pc);  // host-object traffic, chain stays Python",
    "FAC411": "extern bound to a model the native registry cannot match",
    "FAC501": "self.table = array('q', ...) not listed in state_arrays()",
    "FAC502": "self.history = []  # mutable list outside the protocol",
    "FAC503": "config_key() ignores the 'entries' constructor parameter",
    "FAC504": "state_arrays() returned a list, not a name -> array dict",
}


@dataclass(frozen=True)
class Note:
    """Secondary location or explanation attached to a diagnostic."""

    message: str
    span: SourceSpan | None = None


@dataclass
class Diagnostic:
    """One batched finding: code, severity, message, primary span, notes."""

    code: str
    severity: str
    message: str
    span: SourceSpan = UNKNOWN_SPAN
    notes: tuple[Note, ...] = ()

    def render(self, buffer: SourceBuffer | None = None) -> str:
        """Multi-line human rendering with caret blocks when possible."""
        lines = [f"{self.span}: {self.severity}: {self.message} [{self.code}]"]
        if buffer is not None:
            block = self.span.caret_block(buffer)
            if block:
                lines.append(block)
        for note in self.notes:
            where = f"{note.span}: " if note.span is not None and note.span.is_known else ""
            lines.append(f"    {where}note: {note.message}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "file": self.span.filename,
            "line": self.span.line,
            "column": self.span.column,
            "span": [self.span.start, self.span.end],
        }
        if self.notes:
            out["notes"] = [
                {
                    "message": n.message,
                    **(
                        {"file": n.span.filename, "line": n.span.line, "column": n.span.column}
                        if n.span is not None and n.span.is_known
                        else {}
                    ),
                }
                for n in self.notes
            ]
        return out


class DiagnosticError(SemanticError):
    """Raised when a sink holding one or more errors is checkpointed.

    Subclasses :class:`SemanticError` so every existing caller and test
    that catches ``SemanticError`` keeps working; ``str()`` contains the
    rendered message of *every* collected error, so ``pytest.raises(...,
    match=...)`` matches regardless of which error came first.
    """

    def __init__(self, diagnostics: list[Diagnostic]):
        errors = [d for d in diagnostics if d.severity == ERROR]
        if not errors:  # defensive: checkpoint only raises with errors
            errors = list(diagnostics)
        primary = errors[0]
        if len(errors) == 1:
            summary = f"{primary.span}: {primary.message}"
        else:
            body = "\n".join(f"{d.span}: {d.message} [{d.code}]" for d in errors)
            summary = f"{len(errors)} errors:\n{body}"
        Exception.__init__(self, summary)
        self.message = primary.message
        self.span = primary.span
        self.code = primary.code
        self.diagnostics = list(diagnostics)


_SUPPRESS_RE = re.compile(
    r"fac:\s*(disable(?:-next-line|-file)?)\s*=\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


def scan_suppressions(text: str) -> tuple[set[str], dict[int, set[str]]]:
    """Collect ``fac: disable`` directives from comments in `text`.

    Returns ``(file_wide_codes, {line: codes})``.  Codes are upper-cased;
    ``all`` becomes ``ALL``.  Directives are honoured only inside ``//``
    or ``/*`` comments so the word "fac:" in a string literal is inert.
    """
    file_wide: set[str] = set()
    by_line: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        slash = line.find("//")
        block = line.find("/*")
        comment_at = min(p for p in (slash, block) if p >= 0) if max(slash, block) >= 0 else -1
        if comment_at < 0:
            continue
        m = _SUPPRESS_RE.search(line, comment_at)
        if m is None:
            continue
        kind = m.group(1)
        codes = {c.strip().upper() for c in m.group(2).split(",") if c.strip()}
        if kind == "disable-file":
            file_wide |= codes
        elif kind == "disable-next-line":
            by_line.setdefault(lineno + 1, set()).update(codes)
        else:  # disable: this line; a comment-only line guards the next one
            target = lineno + 1 if line[:comment_at].strip() == "" else lineno
            by_line.setdefault(target, set()).update(codes)
    return file_wide, by_line


@dataclass
class DiagnosticSink:
    """Accumulates diagnostics; optionally applies source suppressions."""

    buffer: SourceBuffer | None = None
    max_diagnostics: int = 500
    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: list[Diagnostic] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.buffer is not None:
            self._file_off, self._line_off = scan_suppressions(self.buffer.text)
        else:
            self._file_off, self._line_off = set(), {}

    # -- emission -------------------------------------------------------

    def emit(
        self,
        code: str,
        message: str,
        span: SourceSpan = UNKNOWN_SPAN,
        severity: str | None = None,
        notes: tuple[Note, ...] | list[Note] = (),
    ) -> Diagnostic | None:
        """Record one diagnostic; returns None if it was suppressed."""
        info = CODES.get(code)
        if info is None:
            raise KeyError(f"unknown diagnostic code {code!r}")
        diag = Diagnostic(code, severity or info.severity, message, span, tuple(notes))
        if self._is_suppressed(diag):
            self.suppressed.append(diag)
            return None
        if len(self.diagnostics) < self.max_diagnostics:
            self.diagnostics.append(diag)
        return diag

    def _is_suppressed(self, diag: Diagnostic) -> bool:
        if diag.severity == ERROR:
            return False  # errors are never suppressible
        if diag.code in self._file_off or "ALL" in self._file_off:
            return True
        line_codes = self._line_off.get(diag.span.line)
        return bool(line_codes) and (diag.code in line_codes or "ALL" in line_codes)

    def absorb(self, exc: "Exception") -> Diagnostic | None:
        """Convert a raised :class:`FacileError` into a diagnostic."""
        code = getattr(exc, "code", "FAC030")
        span = getattr(exc, "span", UNKNOWN_SPAN)
        message = getattr(exc, "message", str(exc))
        return self.emit(code if code in CODES else "FAC030", message, span)

    # -- queries --------------------------------------------------------

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self.diagnostics)

    def counts(self) -> dict[str, int]:
        out = {ERROR: 0, WARNING: 0, INFO: 0}
        for d in self.diagnostics:
            out[d.severity] = out.get(d.severity, 0) + 1
        return out

    def sorted(self) -> list[Diagnostic]:
        """Diagnostics in (severity, source position) order."""
        return sorted(
            self.diagnostics,
            key=lambda d: (d.span.filename, d.span.start, _SEVERITY_ORDER.get(d.severity, 3), d.code),
        )

    # -- the raise-at-end compatibility shim ----------------------------

    def checkpoint(self) -> None:
        """Raise a :class:`DiagnosticError` if any errors were collected.

        This is what keeps ``analyze()``/``build_pattern_table()``
        backwards compatible: callers that never pass a sink still get a
        ``SemanticError``, now summarizing *every* error at once.
        """
        if self.has_errors:
            raise DiagnosticError(self.diagnostics)


# -- the generated code index (docs/DIAGNOSTICS.md) -------------------------

_RANGE_TITLES = [
    ("FAC0", "Front-end errors"),
    ("FAC1", "Flow and liveness lints"),
    ("FAC2", "BTA-soundness audit"),
    ("FAC3", "Cache-blowup predictor"),
    ("FAC4", "Replay-IR verifier and lowerability lint"),
    ("FAC5", "Uarch module-protocol conformance"),
]


def render_code_index() -> str:
    """The full FACnnn index as markdown, generated from the registry.

    ``docs/DIAGNOSTICS.md`` is this text verbatim; CI regenerates it and
    fails when the checked-in copy is stale (``python -m
    repro.facile.diagnostics --check docs/DIAGNOSTICS.md``).
    """
    lines = [
        "# Diagnostic codes",
        "",
        "<!-- GENERATED FILE - do not edit by hand.",
        "     Regenerate with:",
        "       python -m repro.facile.diagnostics --write docs/DIAGNOSTICS.md -->",
        "",
        "Every diagnostic `repro check` and the compiler can emit, generated",
        "from the registry in `src/repro/facile/diagnostics.py`.  Errors are",
        "never suppressible and exit 1; warnings exit 1 under `--werror`;",
        "infos never affect the exit code.  Warnings and infos can be",
        "silenced in source with `// fac: disable=CODE` comments.",
        "",
    ]
    for prefix, title in _RANGE_TITLES:
        codes = [c for c in sorted(CODES) if c.startswith(prefix)]
        if not codes:
            continue
        lines += [f"## {title} ({prefix}xx)", ""]
        lines += ["| code | severity | description | example |",
                  "|------|----------|-------------|---------|"]
        for code in codes:
            info = CODES[code]
            example = CODE_EXAMPLES.get(code, "")
            example = example.replace("|", "\\|")
            lines.append(
                f"| {code} | {info.severity} | {info.title} | `{example}` |"
            )
        lines.append("")
    return "\n".join(lines)


def _main(argv: list[str] | None = None) -> int:  # pragma: no cover - CLI
    import argparse
    import sys

    ap = argparse.ArgumentParser(
        prog="python -m repro.facile.diagnostics",
        description="render or freshness-check the FACnnn code index",
    )
    ap.add_argument("--write", metavar="PATH",
                    help="write the generated index to PATH")
    ap.add_argument("--check", metavar="PATH",
                    help="exit 1 if PATH differs from the generated index")
    args = ap.parse_args(argv)
    text = render_code_index() + "\n"
    if args.write:
        with open(args.write, "w") as fh:
            fh.write(text)
        return 0
    if args.check:
        try:
            with open(args.check) as fh:
                on_disk = fh.read()
        except OSError as exc:
            print(f"diagnostics index: cannot read {args.check}: {exc}",
                  file=sys.stderr)
            return 1
        if on_disk != text:
            print(
                f"diagnostics index: {args.check} is stale — regenerate "
                "with python -m repro.facile.diagnostics --write "
                f"{args.check}",
                file=sys.stderr,
            )
            return 1
        return 0
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(_main())
