"""CLI contract: subcommands, exit codes, and byte-stable JSON."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import osr
import osr.report
from osr.cli import main
from osr.osrfile import render

from .test_law_kernels import square_zero_description

GOLDEN = pathlib.Path(__file__).parent / "golden" / "zmod6_check.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_zmod6_json_matches_golden_fixture(capsys):
    code, out, _ = run(capsys, "check", "--builder", "zmod:6", "--json")
    assert code == 0
    assert out.encode() == GOLDEN.read_bytes()


def test_check_json_is_byte_stable(capsys):
    _, first, _ = run(capsys, "check", "--builder", "zmod:6", "--json")
    _, second, _ = run(capsys, "check", "--builder", "zmod:6", "--json")
    assert first == second


def test_check_json_shape(capsys):
    code, out, _ = run(capsys, "check", "--builder", "bool:2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {
        "elements": 4,
        "ideals": 4,
        "radical_ideals": 4,
        "primes": 2,
        "maximal_ideals": 2,
    }
    assert [v["check"] for v in payload["verdicts"]] == list(osr.report.CHECK_NAMES)
    assert all(v["pass"] for v in payload["verdicts"])
    assert payload["timings"] == {}


def test_corrupted_file_exits_2_with_location(tmp_path, capsys):
    text = render(osr.build_zmod(4).describe()).replace("2 3 0 1", "2 3 0")
    bad = tmp_path / "broken.osr"
    bad.write_text(text)
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line" in err and "add table row" in err


@pytest.mark.parametrize(
    "data, where",
    [
        (b"\xff\xfe\x00", "line 1, column 1:"),
        (b"name: ok\nab\xc3\xa9\xffcd\n", "line 2, column 4:"),
    ],
    ids=["first-byte", "line-2"],
)
def test_undecodable_file_exits_2_with_location(tmp_path, capsys, data, where):
    bad = tmp_path / "binary.osr"
    bad.write_bytes(data)
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert err.startswith(f"error: {where} not UTF-8"), err


def test_axiom_violation_exits_2_with_witness(tmp_path, capsys):
    text = """\
name: signed
elements: -1 0 1
le: chain
zero: 0
one: 1
add:
1 -1 0
-1 0 1
0 1 -1
mul:
1 0 -1
0 0 0
-1 0 1
"""
    bad = tmp_path / "signed.osr"
    bad.write_text(text)
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "mul-monotone" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "ideals", "no-such-file.osr")
    assert code == 2 and "error" in err


def test_bad_builder_exits_2(capsys):
    code, _, err = run(capsys, "check", "--builder", "ring:6")
    assert code == 2 and "unknown builder" in err
    code, _, err = run(capsys, "check", "--builder", "zmod")
    assert code == 2


@pytest.mark.parametrize("arg", ["\u00b2", "\u0663", "9" * 5000])
def test_non_ascii_or_overlong_builder_argument_exits_2(capsys, arg):
    # str.isdigit() accepts "²" and "٣", which int() refuses, and int() refuses
    # a digit string longer than the interpreter's conversion limit
    code, out, err = run(capsys, "validate", "--builder", f"zmod:{arg}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run(capsys, "check")
    assert code == 2
    f = tmp_path / "a.osr"
    f.write_text(render(osr.build_zmod(2).describe()))
    code, _, err = run(capsys, "check", str(f), "--builder", "zmod:2")
    assert code == 2


def test_validate_accepts_file(tmp_path, capsys):
    f = tmp_path / "z4.osr"
    f.write_text(render(osr.build_zmod(4).describe()))
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 0 and "valid ordered semiring" in out


def test_listing_commands(capsys):
    code, out, _ = run(capsys, "primes", "--builder", "chain:3")
    assert code == 0
    lines = out.splitlines()
    assert [ln.split()[0] for ln in lines] == ["{0}", "{0,1}"]
    assert "maximal" in lines[1] and "maximal" not in lines[0]
    code, out, _ = run(capsys, "ideals", "--builder", "zmod:4", "--json")
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["ideals"] == [["0"], ["0", "2"], ["0", "1", "2", "3"]]
    assert payload["tags"] == [
        [],
        ["radical", "prime", "maximal"],
        ["radical"],
    ]
    code, out, _ = run(capsys, "radicals", "--builder", "zmod:4")
    assert [ln.split()[0] for ln in out.splitlines()] == ["{0,2}", "{0,1,2,3}"]


def test_spec_and_pt_commands(capsys):
    code, out, _ = run(capsys, "spec", "--builder", "chain:3", "--json")
    payload = json.loads(out)
    assert len(payload["points"]) == 2 and len(payload["opens"]) == 3
    code, out, _ = run(capsys, "pt", "--builder", "zmod:6", "--json")
    payload = json.loads(out)
    assert len(payload["points"]) == 2


def test_reflect_command(capsys):
    code, out, _ = run(capsys, "reflect", "--builder", "zmod:4", "--json")
    payload = json.loads(out)
    assert payload["lattice_size"] == 2
    assert payload["universal_map"]["0"] == payload["universal_map"]["2"]
    assert payload["universal_map"]["1"] == payload["universal_map"]["3"]


def test_dot_outputs(capsys):
    code, out, _ = run(capsys, "dot", "rad", "--builder", "zmod:4")
    assert code == 0
    assert out.count("->") == 1 and out.count(";") >= 3
    code, out, _ = run(capsys, "dot", "idl", "--builder", "zmod:6")
    assert out.count("->") == 4  # diamond cover relation
    code, out, _ = run(capsys, "dot", "spec", "--builder", "chain:3")
    assert '"{0}" -> "{0,1}"' in out


def test_dot_escapes_quotes_in_labels(tmp_path, capsys):
    # Z/2 with its unit labelled a": the parser takes the label, and DOT
    # must read it back as one quoted name
    f = tmp_path / "quoted.osr"
    f.write_text(
        'name: quoted\nelements: 0 a"\nle: discrete\nzero: 0\none: a"\n'
        'add:\n0 a"\na" 0\nmul:\n0 0\n0 a"\n'
    )
    code, out, _ = run(capsys, "dot", "idl", str(f))
    assert code == 0
    assert out == (
        "digraph ideals {\n  rankdir=BT;\n"
        '  "{0}";\n  "{0,a\\"}";\n  "{0}" -> "{0,a\\"}";\n}\n'
    )
    for target in ("rad", "spec"):  # every name closed on its own line
        code, out, _ = run(capsys, "dot", target, str(f))
        lines = out.replace('\\"', "").splitlines()
        assert code == 0 and all(line.count('"') % 2 == 0 for line in lines)


def test_dot_refuses_two_nodes_with_one_name(tmp_path, capsys):
    # with the elements a, b and "a,b", the ideals {0, a,b} and {0, a, b}
    # both print as {0,a,b}: 9 ideals, 8 names, and DOT would merge two
    desc = square_zero_description(3)._replace(name="commas")
    names = dict(zip(desc.elements, ("0", "a", "b", "a,b", "1")))
    relabelled = desc._replace(
        elements=tuple(names[e] for e in desc.elements),
        zero="0",
        one="1",
        add_table=tuple(tuple(names[e] for e in row) for row in desc.add_table),
        mul_table=tuple(tuple(names[e] for e in row) for row in desc.mul_table),
    )
    assert len(osr.enumerate_ideals(osr.validate(relabelled))) == 9
    f = tmp_path / "commas.osr"
    f.write_text(render(relabelled))
    code, out, err = run(capsys, "dot", "idl", str(f))
    assert (code, out) == (2, "")
    assert err == "error: dot ideals: two nodes are named {0,a,b}\n"
    for target in ("rad", "spec"):  # no clash: one radical ideal, one prime
        assert run(capsys, "dot", target, str(f))[0] == 0


def test_failed_verdict_exits_1(capsys, monkeypatch):
    from osr.errors import InternalMismatch

    def broken(A, iq=None):
        raise InternalMismatch("deliberately broken for the exit-code test")

    monkeypatch.setattr(osr.report, "check_radical_equals_semiprime", broken)
    code, out, _ = run(capsys, "check", "--builder", "zmod:6", "--json")
    assert code == 1
    payload = json.loads(out)
    failed = [v for v in payload["verdicts"] if not v["pass"]]
    assert [v["check"] for v in failed] == ["radical-semiprime"]
    assert "deliberately broken" in failed[0]["witness"]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every CLI command is a fresh process that pays for these imports
    src = pathlib.Path(osr.report.__file__).parents[1]
    code = (
        "import sys, osr.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"
