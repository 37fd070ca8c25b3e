import hashlib
import json
from pathlib import Path

import pytest

from koszulres.cli import main
from koszulres.exactfield import parse_ring_file, serialize_ring_file

DATA = Path(__file__).resolve().parents[1] / "src" / "koszulres" / "data"
CLASS_T = DATA / "classT_example.ring"
CI3 = DATA / "ci3_example.ring"
CI2 = DATA / "ci2_example.ring"


def run(*argv):
    return main(list(argv))


def test_betti_raw_class_t(capsys):
    assert run("betti", "--class-t", "4,6,3", "--n", "3", "--order", "7",
               "--no-timestamp") == 0
    out = capsys.readouterr().out
    assert "betti: 1,3,7,16,37,86,200,465" in out
    assert "b: 1,3,6,10,15,21" in out


def test_betti_raw_ci(capsys):
    assert run("betti", "--ci", "3", "--n", "3", "--order", "5",
               "--no-timestamp") == 0
    assert "betti: 1,3,6,10,15,21" in capsys.readouterr().out


def test_betti_order_zero(capsys):
    assert run("betti", "--class-t", "4,6,3", "--order", "0",
               "--no-timestamp") == 0
    assert "betti: 1\n" in capsys.readouterr().out


def test_betti_from_ring_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run("betti", "--ring", str(CLASS_T), "--order", "8",
               "--no-timestamp", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["betti"] == [1, 3, 7, 16, 37, 86, 200, 465, 1081]
    assert doc["mode"] == "T"
    assert doc["sequences"]["l"][:6] == [1, 4, 13, 41, 129, 406]
    assert any("l'_5" in note for note in doc["notes"])
    # ring echo reparses to the same structure
    assert parse_ring_file(doc["ring"]) == parse_ring_file(CLASS_T.read_text())


@pytest.mark.parametrize("variables, ideal", [
    ("x, y, z", "x^2, y^2, z^2, x*y"),          # codepth 3, not class T
    ("x, y, z, w", "x^2, y^2, z^2, w^2, x*y"),  # codepth 4
], ids=["xy", "codepth4"])
def test_betti_ring_refuses_uncertified_class(tmp_path, capsys, variables, ideal):
    ring = tmp_path / "r.ring"
    ring.write_text(f"characteristic = 32003\nvariables = {variables}\n"
                    f"ideal = {ideal}\nmode = auto\n")
    assert run("betti", "--ring", str(ring), "--no-timestamp") == 3
    captured = capsys.readouterr()
    assert "class verification failure" in captured.err
    assert "betti:" not in captured.out


def test_resolve_class_t(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run("resolve", "--ring", str(CLASS_T), "--max-degree", "5",
               "--no-timestamp", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["ranks"] == [1, 3, 7, 16, 37, 86]
    assert doc["verification"]["passed"] is True
    assert doc["sign_regime"] == "diagonal (-1)^(deg1+deg2), phi +1"
    assert doc["schema_version"] == 1
    # block inventory names the tree monomials
    assert doc["blocks"][2] == [["1", 0, 1, 2], ["X[1,1]", 2, 4, 0]]


def test_resolve_ci(tmp_path):
    out = tmp_path / "ci.json"
    assert run("resolve", "--ring", str(CI2), "--no-timestamp",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["ranks"] == [1, 2, 3, 4, 5, 6, 7]
    assert doc["mode"] == "CI"


def test_resolve_emit_matrices(tmp_path):
    out = tmp_path / "m.json"
    assert run("resolve", "--ring", str(CI2), "--max-degree", "3",
               "--emit-matrices", "--no-timestamp", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert set(doc["matrices"]) == {"d_1", "d_2", "d_3"}
    assert doc["matrices"]["d_1"]["entries"]["0,0"] == "x"


def test_verify_with_oracle(tmp_path):
    out = tmp_path / "o.json"
    assert run("verify", "--ring", str(CI3), "--max-degree", "5", "--oracle",
               "--no-timestamp", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    names = [s["name"] for s in doc["verification"]["sections"]]
    assert "oracle" in names


def test_verify_oracle_to_max_degree(tmp_path):
    out = tmp_path / "o.json"
    assert run("verify", "--ring", str(CLASS_T), "--max-degree", "8", "--oracle",
               "--no-timestamp", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    oracle = next(s for s in doc["verification"]["sections"] if s["name"] == "oracle")
    assert oracle["passed"]
    assert oracle["details"]["oracle_betti"] == [1, 3, 7, 16, 37, 86, 200, 465, 1081]


def test_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run("resolve", "--ring", str(CLASS_T), "--max-degree", "4",
                   "--no-timestamp", "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of the assembly slice of `resolve --emit-matrices --max-degree 6
# --no-timestamp`; any change to block layout, entries or signs shows here
ASSEMBLY_DIGESTS = {
    "classT_example": "95b8ab866485ab3b576ff9eed77af512f003d2650cedd226b4b55034a742e34e",
    "ci3_example": "45877353a34e98c26022903ff427b956051b8f5a7e1f7ecda650e61a72bd8708",
    "ci2_example": "077ee3ec180a1aa6492cec81c827c0960e8031803799c46287b90ff33fd5f759",
}


@pytest.mark.parametrize("name", sorted(ASSEMBLY_DIGESTS))
def test_assembly_golden(tmp_path, name):
    out = tmp_path / "r.json"
    assert run("resolve", "--ring", str(DATA / f"{name}.ring"), "--emit-matrices",
               "--max-degree", "6", "--no-timestamp", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    text = json.dumps({k: doc[k] for k in ("matrices", "blocks", "ranks",
                                           "sign_regime")}, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ASSEMBLY_DIGESTS[name]


# sha256 of whole `verify --no-timestamp` reports: pins flat_ranks, homology
# and the oracle Betti numbers of classT_example byte for byte, and the basis
# that discovery (mode = auto) certifies for a generated dim-384 class-T ring
# in two variable orders (the order changes the elimination order)
VERIFY_DIGESTS = {
    "d6": (None, ("--max-degree", "6"),
           "e0c29e989867918a265a06382646b4afc9435929c1e59448c845d4be6903c684"),
    "d5-bigp-oracle": (None, ("--max-degree", "5", "--char", "2147483647", "--oracle"),
                       "2f238c0f0a408fb10ce16ddfb2d369b6c1a9188ad54ac3af188d514cd5e9dd3c"),
    "auto-xyz-d2": ("x, y, z", ("--max-degree", "2"),
                    "b730b5a45e644166d145e18d2db182b60a45686b875090c5bfa54b61b895fb35"),
    "auto-zyx-d2": ("z, y, x", ("--max-degree", "2"),
                    "2bbfdfc4816feb734917048e8b8880a54afacddc339abeb058a4a8846abf0755"),
}


@pytest.mark.parametrize("case", sorted(VERIFY_DIGESTS))
def test_verify_golden(tmp_path, case):
    variables, args, digest = VERIFY_DIGESTS[case]
    ring = CLASS_T
    if variables is not None:
        ring = tmp_path / "generated.ring"
        ring.write_text(f"characteristic = 32003\nvariables = {variables}\n"
                        "ideal = x^9, y^8, z^7, x^3*y^3*z^3\nmode = auto\n")
    out = tmp_path / "v.json"
    assert run("verify", "--ring", str(ring), *args, "--no-timestamp",
               "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


ONE_HOMOLOGY_ARGS = {
    "verify-classT": ("verify", "--ring", str(CLASS_T), "--max-degree", "4"),
    "verify-ci3": ("verify", "--ring", str(CI3), "--max-degree", "4"),
    "verify-auto": ("verify", "--max-degree", "2"),
    "betti-classT": ("betti", "--ring", str(CLASS_T)),
    "betti-ci3": ("betti", "--ring", str(CI3)),
    "betti-auto": ("betti",),
}


@pytest.mark.parametrize("case", sorted(ONE_HOMOLOGY_ARGS))
def test_one_homology_algebra_per_run(tmp_path, monkeypatch, capsys, case):
    # the Koszul homology of the ring is computed once and shared by
    # classification, discovery and certification
    from koszulres.homology import HomologyAlgebra
    built = []
    init = HomologyAlgebra.__init__

    def counted(self, ring):
        built.append(ring)
        init(self, ring)

    monkeypatch.setattr(HomologyAlgebra, "__init__", counted)
    argv = ONE_HOMOLOGY_ARGS[case]
    if case.endswith("auto"):  # discovery of a class-T basis
        ring = tmp_path / "generated.ring"
        ring.write_text("characteristic = 32003\nvariables = x, y, z\n"
                        "ideal = x^4, y^4, z^4, x^2*y^2*z^2\nmode = auto\n")
        argv += ("--ring", str(ring))
    assert run(*argv, "--no-timestamp") == 0
    assert len(built) == 1


def test_one_certificate_per_discovery(tmp_path, monkeypatch, capsys):
    # discovery certifies the basis it finds and hands that certificate on,
    # so an auto-mode verify of the generated dim-384 ring computes one
    from koszulres import homology
    made = []
    certificate = homology.Certificate

    def counted(kind):
        made.append(kind)
        return certificate(kind)

    monkeypatch.setattr(homology, "Certificate", counted)
    ring = tmp_path / "generated.ring"
    ring.write_text("characteristic = 32003\nvariables = x, y, z\n"
                    "ideal = x^9, y^8, z^7, x^3*y^3*z^3\nmode = auto\n")
    assert run("verify", "--ring", str(ring), "--max-degree", "2",
               "--no-timestamp") == 0
    assert made == ["T"]


def test_char_override(tmp_path):
    out = tmp_path / "p2.json"
    assert run("verify", "--ring", str(CLASS_T), "--max-degree", "4",
               "--char", "2", "--no-timestamp", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["characteristic"] == 2
    assert doc["verification"]["passed"] is True


def test_demo_classt(capsys):
    assert run("demo-classt", "--max-degree", "4", "--no-timestamp") == 0
    out = capsys.readouterr().out
    assert "b:   1,3,6,10,15,21" in out
    assert "y*z*e[1,2]" in out           # gamma_2 entry values
    assert "alpha_{2,2}" in out
    assert "suspected typo" in out


# sha256 of the whole `demo-classt --max-degree 4 --no-timestamp` stdout:
# the ring, cycles, sequence tables, alpha grids, Betti numbers and checks
DEMO_CLASST_DIGEST = "688e901c6db9aa3e2ffcaa018ba80a451be5d4f40ac2cfa5175768fa29216b1e"


def test_demo_classt_golden(capsys):
    assert run("demo-classt", "--max-degree", "4", "--no-timestamp") == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_CLASST_DIGEST


def test_demo_betti_through_465(capsys):
    assert run("demo-classt", "--no-timestamp") == 0
    out = capsys.readouterr().out
    assert "betti: 1,3,7,16,37,86,200,465" in out


# -- exit codes ---------------------------------------------------------------

def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ring"
    bad.write_text("characteristic = 7\nvariables = x, y\nideal = x^2\n")
    assert run("verify", "--ring", str(bad)) == 2
    assert "not Artinian" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["betti", "verify"])
def test_exit_code_ideal_with_variable(tmp_path, capsys, command):
    # (x, y^2, z^2) is the ring k[y,z]/(y^2,z^2) in disguise: the Koszul
    # complex on x, y, z would print the Betti numbers of a codepth-3 ring
    ring = tmp_path / "var.ring"
    ring.write_text("characteristic = 32003\nvariables = x, y, z\n"
                    "ideal = x, y^2, z^2\n")
    assert run(command, "--ring", str(ring), "--no-timestamp") == 2
    captured = capsys.readouterr()
    assert "ideal contains the variable 'x'" in captured.err
    assert "betti" not in captured.out


def test_exit_code_missing_file():
    assert run("verify", "--ring", "/nonexistent/r.ring") == 2


def test_exit_code_unknown_key(tmp_path):
    bad = tmp_path / "bad.ring"
    bad.write_text("characteristic = 7\nvariables = x\nideal = x^2\nzz = 1\n")
    assert run("verify", "--ring", str(bad)) == 2


def test_exit_code_non_prime_char(capsys):
    assert run("verify", "--ring", str(CI3), "--char", "32004") == 2
    assert "32004 is not prime" in capsys.readouterr().err
    # the first prime past the int64 eliminator's bound
    assert run("verify", "--ring", str(CI3), "--char", "3037000507") == 2
    assert "exceeds 3037000499" in capsys.readouterr().err


@pytest.mark.parametrize("max_degree", ["0", "-1"])
@pytest.mark.parametrize("command", ["verify", "resolve", "demo-classt"])
def test_exit_code_bad_max_degree(monkeypatch, capsys, command, max_degree):
    # refused as an input error before any homology is computed; 0 is a
    # given value, not "unset"
    monkeypatch.setattr("koszulres.cli.HomologyAlgebra",
                        lambda *a, **k: pytest.fail("HomologyAlgebra was called"))
    monkeypatch.setattr("koszulres.cli.full_verify",
                        lambda *a, **k: pytest.fail("full_verify was called"))
    ring = () if command == "demo-classt" else ("--ring", str(CLASS_T))
    assert run(command, *ring, "--max-degree", max_degree, "--no-timestamp") == 2
    assert f"max degree must be >= 1 (got {max_degree})" in capsys.readouterr().err



NEGATIVE_ORDER_ARGS = {
    "betti-ci": ("betti", "--ci", "3"),
    "betti-class-t": ("betti", "--class-t", "4,6,3"),
    **{f"{command}-{ring.stem}": (command, "--ring", str(ring))
       for command in ("betti", "verify", "resolve") for ring in (CLASS_T, CI3)},
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_ORDER_ARGS))
def test_exit_code_negative_order(monkeypatch, capsys, case):
    # refused as an input error before any homology is computed
    monkeypatch.setattr("koszulres.cli.HomologyAlgebra",
                        lambda *a, **k: pytest.fail("HomologyAlgebra was called"))
    monkeypatch.setattr("koszulres.cli.full_verify",
                        lambda *a, **k: pytest.fail("full_verify was called"))
    assert run(*NEGATIVE_ORDER_ARGS[case], "--order", "-1", "--no-timestamp") == 2
    captured = capsys.readouterr()
    assert "order must be >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [("--ci", "3", "--n", "-2"), ("--ci", "3", "--n", "2"),
                                  ("--class-t", "4,6,3", "--n", "2")])
def test_betti_raw_refuses_n_below_codepth(capsys, argv):
    assert run("betti", *argv, "--no-timestamp") == 2
    captured = capsys.readouterr()
    assert "below the codepth" in captured.err
    assert captured.out == ""

@pytest.mark.parametrize("invariants, message", [
    ("4,2,3", "class T needs a_2 >= 3 (got 2)"),
    ("4,6,-1", "codepth 3 needs a_3 >= 1 (got -1)"),
    ("4,6,0", "codepth 3 needs a_3 >= 1 (got 0)"),
    ("4,7,3", "codepth 3 needs a_2 = a_1 + a_3 - 1 (got a_2 = 7, a_1 + a_3 - 1 = 6)"),
])
def test_betti_raw_class_t_refuses_impossible_invariants(capsys, invariants, message):
    # the three triple products are independent in A_2, A_3 != 0, and the
    # Euler characteristic 1 - a_1 + a_2 - a_3 of K vanishes
    assert run("betti", "--class-t", invariants, "--no-timestamp") == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


IGNORED_OPTION_ARGS = {
    "betti-class-t-and-ci": ("betti", "--class-t", "4,6,3", "--ci", "2"),
    "betti-ci-and-ring": ("betti", "--ci", "3", "--ring", str(CLASS_T)),
    "betti-class-t-mode": ("betti", "--class-t", "4,6,3", "--mode", "T"),
    "betti-ci-char": ("betti", "--ci", "3", "--char", "7"),
    "betti-ring-n": ("betti", "--ring", str(CI3), "--n", "3"),
    "betti-max-degree": ("betti", "--ci", "3", "--max-degree", "4"),
    "demo-classt-ring": ("demo-classt", "--ring", str(CLASS_T)),
    "demo-classt-mode": ("demo-classt", "--mode", "T"),
    "demo-classt-order": ("demo-classt", "--order", "15"),
}


@pytest.mark.parametrize("case", sorted(IGNORED_OPTION_ARGS))
def test_exit_code_ignored_option(monkeypatch, capsys, case):
    # an option the command would not read is refused, not silently dropped
    monkeypatch.setattr("koszulres.cli.HomologyAlgebra",
                        lambda *a, **k: pytest.fail("HomologyAlgebra was called"))
    try:
        code = run(*IGNORED_OPTION_ARGS[case], "--no-timestamp")
    except SystemExit as exc:  # argparse refuses before any command runs
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def test_demo_classt_char_zero(capsys):
    # --char 0 is refused, not replaced by the default 32003
    assert run("demo-classt", "--char", "0", "--no-timestamp") == 2
    assert "0 is not prime" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "resolve"])
def test_ring_file_max_degree_zero(tmp_path, monkeypatch, capsys, command):
    # the file's max_degree = 0 is not replaced by the default 8
    ring = tmp_path / "zero.ring"
    ring.write_text(CLASS_T.read_text().replace("max_degree = 7", "max_degree = 0"))
    assert "max_degree = 0" in ring.read_text()
    monkeypatch.setattr("koszulres.cli.full_verify",
                        lambda *a, **k: pytest.fail("full_verify was called"))
    assert run(command, "--ring", str(ring), "--no-timestamp") == 2
    assert "max degree must be >= 1 (got 0)" in capsys.readouterr().err


def test_exit_code_class_failure(capsys):
    assert run("verify", "--ring", str(CLASS_T), "--mode", "CI",
               "--max-degree", "4") == 3
    assert "class verification failure" in capsys.readouterr().err


def test_exit_code_math_failure(tmp_path):
    assert run("verify", "--ring", str(CLASS_T), "--max-degree", "4",
               "--sign-flip", "--no-timestamp") == 4


@pytest.mark.parametrize("mode", ["CI", "auto"])
@pytest.mark.parametrize("command", ["verify", "resolve"])
def test_sign_flip_refused_on_ci(capsys, command, mode):
    # the forced sign regime is a class-T negative control; a complete
    # intersection would ignore it and pass every check
    assert run(command, "--ring", str(CI3), "--mode", mode, "--max-degree", "2",
               "--sign-flip", "--no-timestamp") == 2
    captured = capsys.readouterr()
    assert "class T only, not to mode CI" in captured.err
    assert captured.out == ""


def test_exit_code_literal_product_failure(tmp_path, capsys):
    # same class as the shipped z1_4, but a nonzero wedge with z1_2
    ring = tmp_path / "bad.ring"
    ring.write_text(CLASS_T.read_text().replace(
        "z1_4 = y*z*e[1]\n", "z1_4 = y*z*e[1] + x*e[3] - z*e[1]\n"))
    assert run("verify", "--ring", str(ring), "--max-degree", "4",
               "--no-timestamp") == 4
    assert ("verification failure: representatives z1_2 and z1_4 have a "
            "nonzero wedge product") in capsys.readouterr().err


def test_roundtrip_of_shipped_fixture():
    text = CLASS_T.read_text()
    assert serialize_ring_file(parse_ring_file(text)) == text
