"""Unit tests for the OpenQASM 2 parser and emitter."""
import math

import numpy as np
import pytest

from peepopt.circuits import Circuit, GateKind, cx, rz
from peepopt.cli import main
from peepopt.qasm import (
    QasmParseError,
    QasmRangeError,
    UnsupportedGateError,
    emit_qasm,
    parse_qasm,
)
from conftest import FIXTURE_FILES, random_circuit

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


class TestParse:
    def test_single_rx(self):
        circ = parse_qasm(HEADER + "qreg q[1]; rx(pi) q[0];")
        assert len(circ) == 1
        assert circ.gates[0].kind is GateKind.RX
        assert circ.gates[0].params == (math.pi,)

    def test_cx(self):
        circ = parse_qasm(HEADER + "qreg q[2]; cx q[0],q[1];")
        assert circ.gates == (cx(0, 1),)

    def test_u_is_u3_alias(self):
        circ = parse_qasm(HEADER + "qreg q[1]; u(0.1,0.2,0.3) q[0];")
        assert circ.gates[0].kind is GateKind.U3
        assert circ.gates[0].params == (0.1, 0.2, 0.3)

    def test_pi_arithmetic(self):
        circ = parse_qasm(
            HEADER + "qreg q[1]; rz(pi/2) q[0]; rz(3*pi/4) q[0]; rz(-pi) q[0];"
            " rz(2e-3) q[0]; rz((pi+1)/2) q[0];"
        )
        angles = [g.params[0] for g in circ.gates]
        assert angles == pytest.approx(
            [math.pi / 2, 3 * math.pi / 4, -math.pi, 2e-3, (math.pi + 1) / 2]
        )

    def test_comments_and_whitespace(self):
        circ = parse_qasm(
            "OPENQASM 2.0; // header\nqreg q[2];\n// full line comment\n"
            "cx q[0],\n   q[1];  barrier q;\n"
        )
        assert circ.gates == (cx(0, 1),)

    def test_measure_checked_and_stripped(self):
        circ = parse_qasm(
            HEADER + "qreg q[2]; creg c[2]; cx q[0],q[1]; measure q[0] -> c[0];"
            " measure q[1] -> c[1];"
        )
        assert circ == Circuit(2, (cx(0, 1),))
        with pytest.raises(QasmRangeError, match="qubit index 2"):
            parse_qasm(HEADER + "qreg q[2]; creg c[2]; measure q[2] -> c[0];")

    def test_full_register_measure(self):
        circ = parse_qasm(HEADER + "qreg q[3]; creg c[3]; rz(0.5) q[2]; measure q -> c;")
        assert circ == Circuit(3, (rz(0.5, 2),))
        with pytest.raises(QasmParseError, match="classical register 'd'"):
            parse_qasm(HEADER + "qreg q[3]; creg c[3]; measure q -> d;")


class TestDiagnostics:
    def test_unsupported_gate_named_with_line(self):
        with pytest.raises(UnsupportedGateError) as exc:
            parse_qasm(HEADER + "qreg q[3];\nccx q[0],q[1],q[2];")
        assert exc.value.gate_name == "ccx"
        assert exc.value.line == 4  # two header lines precede the qreg

    def test_index_out_of_range(self):
        with pytest.raises(QasmRangeError):
            parse_qasm(HEADER + "qreg q[2]; cx q[0],q[5];")

    def test_missing_semicolon(self):
        with pytest.raises(QasmParseError):
            parse_qasm(HEADER + "qreg q[1]; rx(pi) q[0]")

    def test_bad_expression(self):
        with pytest.raises(QasmParseError):
            parse_qasm(HEADER + "qreg q[1]; rx(pi+*2) q[0];")

    def test_gate_before_qreg(self):
        with pytest.raises(QasmParseError):
            parse_qasm(HEADER + "rx(1) q[0];")

    def test_no_qreg(self):
        with pytest.raises(QasmParseError):
            parse_qasm(HEADER)

    def test_wrong_version(self):
        with pytest.raises(QasmParseError):
            parse_qasm("OPENQASM 3.0;\nqreg q[1];")

    def test_parser_total_on_garbage(self):
        for text in ("", "@@@;", "\x00\x01;", "qreg;", "rx() ;", "((((;"):
            with pytest.raises(QasmParseError):
                parse_qasm(text)

    @pytest.mark.parametrize("angle", ["(" * 1000 + "1" + ")" * 1000, "-" * 5000 + "1"],
                             ids=["parentheses", "minus-signs"])
    def test_deep_nesting_is_a_parse_error(self, angle, tmp_path, capsys):
        text = HEADER + f"qreg q[1];\nrx({angle}) q[0];\n"
        with pytest.raises(QasmParseError) as exc:
            parse_qasm(text)
        assert exc.value.line == 4
        path = tmp_path / "deep.qasm"
        path.write_text(text)
        message = "line 4: angle expression nested too deeply"
        assert main(["partition", "--circuit", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert main(["run", "--circuit", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: [parse] {path}: {message}"]

    @pytest.mark.parametrize("angle, shown", [
        ("1e999", "(inf,)"), ("-1e999", "(-inf,)"), ("1e308*10", "(inf,)"),
        ("1e999-1e999", "(nan,)"),
    ])
    def test_non_finite_angle(self, angle, shown):
        with pytest.raises(QasmParseError) as exc:
            parse_qasm(HEADER + f"qreg q[1];\nrz({angle}) q[0];\n")
        assert exc.value.line == 4
        assert str(exc.value) == f"line 4: rz angle not finite: {shown}"


class TestEmit:
    def test_empty_circuit(self):
        out = emit_qasm(Circuit(2))
        assert out == HEADER + "qreg q[2];\n"

    def test_single_rz(self):
        out = emit_qasm(Circuit(1, (rz(0.25, 0),)))
        assert "rz(0.25) q[0];" in out

    def test_round_trip_random(self):
        rng = np.random.default_rng(42)
        circ = random_circuit(rng, 4, 50)
        assert parse_qasm(emit_qasm(circ)) == circ

    @pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.stem)
    def test_round_trip_fixtures(self, path):
        circ = parse_qasm(path.read_text())
        assert parse_qasm(emit_qasm(circ)) == circ
