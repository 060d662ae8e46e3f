"""OpenQASM 2 subset parser and emitter.

Supported statements: ``OPENQASM 2.0``, ``include`` (ignored), ``qreg``,
``creg``, ``cx``, ``rx``, ``ry``, ``rz``, ``u3``, ``u`` (3-parameter alias),
``measure`` (checked, then dropped), ``barrier``
(ignored).  Angle expressions accept decimal/scientific literals and ``pi``
arithmetic with ``+ - * /``, unary minus, and parentheses; angles are finite.

Anything else, an expression nested past the recursion limit included,
raises a diagnostic; the parser never crashes on arbitrary byte strings.
"""
from __future__ import annotations

import math
import re

from .circuits import Circuit, Gate, GateKind


class QasmError(ValueError):
    """Base class for all parse diagnostics."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class QasmParseError(QasmError):
    pass


class UnsupportedGateError(QasmError):
    def __init__(self, name: str, line: int | None = None):
        self.gate_name = name
        super().__init__(f"unsupported gate '{name}'", line)


class QasmRangeError(QasmError):
    pass


_GATE_KINDS = {
    "cx": GateKind.CX,
    "rx": GateKind.RX,
    "ry": GateKind.RY,
    "rz": GateKind.RZ,
    "u3": GateKind.U3,
    "u": GateKind.U3,
}

_NUM_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")


class _ExprParser:
    """Recursive-descent parser for pi-arithmetic angle expressions."""

    def __init__(self, text: str, line: int):
        self.text = text
        self.pos = 0
        self.line = line

    def parse(self) -> float:
        value = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise QasmParseError(
                f"trailing characters in expression '{self.text}'", self.line
            )
        return value

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> float:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> float:
        value = self._factor()
        while self._peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self._factor()
            if op == "/":
                if rhs == 0:
                    raise QasmParseError("division by zero in expression", self.line)
                value = value / rhs
            else:
                value = value * rhs
        return value

    def _factor(self) -> float:
        ch = self._peek()
        if ch == "-":
            self.pos += 1
            return -self._factor()
        if ch == "+":
            self.pos += 1
            return self._factor()
        if ch == "(":
            self.pos += 1
            value = self._expr()
            if self._peek() != ")":
                raise QasmParseError(
                    f"unbalanced parenthesis in '{self.text}'", self.line
                )
            self.pos += 1
            return value
        m = _NUM_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return float(m.group())
        if self.text.startswith("pi", self.pos):
            self.pos += 2
            return math.pi
        raise QasmParseError(
            f"cannot parse expression '{self.text}' at column {self.pos}", self.line
        )


def _parse_angle(text: str, line: int) -> float:
    try:
        return _ExprParser(text, line).parse()
    except RecursionError:
        raise QasmParseError("angle expression nested too deeply", line) from None


_NAME_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*")
_OPERAND_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d+)\])?$")


def _split_statements(text: str) -> list[tuple[int, str]]:
    """Split source into (line, statement) pairs, stripping // comments."""
    lines = text.split("\n")
    statements = []
    buf = []
    buf_line = 1
    for lineno, raw in enumerate(lines, start=1):
        code = raw.split("//", 1)[0]
        while code:
            if not buf:
                buf_line = lineno
            if ";" in code:
                head, code = code.split(";", 1)
                buf.append(head)
                stmt = " ".join(buf).strip()
                buf = []
                if stmt:
                    statements.append((buf_line, stmt))
            else:
                buf.append(code)
                code = ""
    tail = " ".join(buf).strip()
    if tail:
        raise QasmParseError("missing ';' at end of input", buf_line)
    return statements


def _parse_operand(text: str, line: int) -> tuple[str, int | None]:
    m = _OPERAND_RE.match(text.strip())
    if not m:
        raise QasmParseError(f"malformed operand '{text.strip()}'", line)
    name, idx = m.groups()
    return name, (int(idx) if idx is not None else None)


def parse_qasm(text: str) -> Circuit:
    """Parse OpenQASM 2 source into a Circuit; measurements are checked, then dropped."""
    if not isinstance(text, str):
        raise QasmParseError("input is not a string")
    statements = _split_statements(text)
    qreg: tuple[str, int] | None = None
    cregs: dict[str, int] = {}
    gates: list[Gate] = []

    for line, stmt in statements:
        if stmt.startswith("OPENQASM"):
            version = stmt[len("OPENQASM"):].strip()
            if version != "2.0":
                raise QasmParseError(f"unsupported OPENQASM version '{version}'", line)
            continue
        if stmt.startswith("include"):
            continue
        if "->" in stmt:
            lhs, rhs = stmt.split("->", 1)
            if not lhs.strip().startswith("measure"):
                raise QasmParseError(f"malformed statement '{stmt}'", line)
            if qreg is None:
                raise QasmParseError("measure before qreg declaration", line)
            qname, qidx = _parse_operand(lhs.strip()[len("measure"):], line)
            cname, cidx = _parse_operand(rhs, line)
            if qname != qreg[0]:
                raise QasmParseError(f"unknown quantum register '{qname}'", line)
            if cname not in cregs:
                raise QasmParseError(f"unknown classical register '{cname}'", line)
            if qidx is None and cidx is None:
                if cregs[cname] < qreg[1]:
                    raise QasmRangeError(
                        f"creg '{cname}' too small for full-register measure", line
                    )
                continue
            if qidx is None or cidx is None:
                raise QasmParseError("measure mixes indexed and full-register operands", line)
            if qidx >= qreg[1]:
                raise QasmRangeError(f"qubit index {qidx} out of range", line)
            if cidx >= cregs[cname]:
                raise QasmRangeError(f"bit index {cidx} out of range", line)
            continue

        m = _NAME_RE.match(stmt)
        if not m:
            raise QasmParseError(f"malformed statement '{stmt}'", line)
        name = m.group(1)
        rest = stmt[m.end():]
        args = None
        if rest.startswith("("):
            # Balanced-paren scan so nested expressions like ((pi+1)/2) work.
            depth = 0
            for pos, ch in enumerate(rest):
                depth += ch == "("
                depth -= ch == ")"
                if depth == 0:
                    break
            else:
                raise QasmParseError(f"unbalanced parenthesis in '{stmt}'", line)
            args = rest[1:pos]
            rest = rest[pos + 1:]
        operands = rest.strip()

        if name == "qreg":
            rname, size = _parse_operand(operands, line)
            if size is None or size < 1:
                raise QasmParseError(f"malformed qreg declaration '{stmt}'", line)
            if qreg is not None:
                raise QasmParseError("only one quantum register is supported", line)
            qreg = (rname, size)
            continue
        if name == "creg":
            rname, size = _parse_operand(operands, line)
            if size is None or size < 1:
                raise QasmParseError(f"malformed creg declaration '{stmt}'", line)
            cregs[rname] = size
            continue
        if name == "barrier":
            continue
        if name not in _GATE_KINDS:
            raise UnsupportedGateError(name, line)

        kind = _GATE_KINDS[name]
        if qreg is None:
            raise QasmParseError(f"gate '{name}' before qreg declaration", line)
        params: tuple[float, ...] = ()
        if args is not None:
            parts = [a for a in args.split(",")]
            params = tuple(_parse_angle(a, line) for a in parts if a.strip())
        qubits = []
        if not operands:
            raise QasmParseError(f"gate '{name}' missing operands", line)
        for op_text in operands.split(","):
            rname, idx = _parse_operand(op_text, line)
            if rname != qreg[0]:
                raise QasmParseError(f"unknown quantum register '{rname}'", line)
            if idx is None:
                raise QasmParseError(
                    f"gate '{name}' requires an indexed operand", line
                )
            if idx >= qreg[1]:
                raise QasmRangeError(
                    f"qubit index {idx} out of range for qreg[{qreg[1]}]", line
                )
            qubits.append(idx)
        try:
            gates.append(Gate(kind, params, tuple(qubits)))
        except ValueError as exc:
            raise QasmParseError(str(exc), line) from exc

    if qreg is None:
        raise QasmParseError("no qreg declaration found")
    return Circuit(qreg[1], tuple(gates))


def emit_qasm(circuit: Circuit) -> str:
    """Emit a circuit as OpenQASM 2; round-trips gate-for-gate through parse_qasm."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    for g in circuit.gates:
        operands = ",".join(f"q[{q}]" for q in g.qubits)
        if g.params:
            angles = ",".join(f"{p:.17g}" for p in g.params)
            lines.append(f"{g.kind.value}({angles}) {operands};")
        else:
            lines.append(f"{g.kind.value} {operands};")
    return "\n".join(lines) + "\n"
