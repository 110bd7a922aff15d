"""CLI surface: spec parsing, subcommands, exit codes, round trips."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sumrank
from sumrank.cli import _render, main, parse_bivar, parse_code_spec
from sumrank.errors import ParseError
from sumrank.skew import parse_poly
from sumrank.tower import build_tower

TOWER_SECTION = """\
[tower]
p = 2
e_deg = 1
m = 3
h = 2
ell = 3
N = 3
"""

GEN_SPEC = TOWER_SECTION + """
[generator]
f1 = x^2+x+1
f2 = z+1
"""

# F2 / F16 / F8 / F2^12, n = 28: its codes give search winners of all three kinds
TOWER28_SECTION = """\
[tower]
p = 2
e_deg = 1
m = 4
h = 3
ell = 7
N = 4
"""

MATRIX_SPEC = TOWER_SECTION + """
[matrix]
rows = 1 0 0 1 0 0 1 0 0
    0 1 0 0 1 0 0 1 0
"""


@pytest.fixture
def gen_spec_file(tmp_path):
    path = tmp_path / "gen.code"
    path.write_text(GEN_SPEC)
    return str(path)


def spec_file(tmp_path, text, name="spec.code"):
    """Write `text` to tmp_path / name and return the path."""
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env():
    """The environment for a child interpreter that imports this checkout."""
    src = str(Path(sumrank.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


class TestParsing:
    def test_generator_spec(self):
        spec = parse_code_spec(GEN_SPEC)
        assert spec.code.k == 2
        assert spec.f1 == (1, 1, 1)
        assert spec.generator is not None

    def test_matrix_spec(self):
        spec = parse_code_spec(MATRIX_SPEC)
        assert spec.code.k == 2
        assert spec.generator is None

    @pytest.mark.parametrize("sep", [",", ", ", " ", " , ", "\t"], ids=repr)
    def test_list_separators(self, sep):
        # items split at a comma, whitespace or both; rows also at ";"
        rows = "; ".join(sep.join(row) for row in ("100100100", "010010010"))
        matrix = f"\n[matrix]\nrows = {rows}\nparts = {sep.join('333')}\n"
        spec = parse_code_spec(TOWER_SECTION + matrix)
        assert spec.code.G == parse_code_spec(MATRIX_SPEC).code.G
        assert spec.code.partition.parts == (3, 3, 3)

    def test_g_spec(self):
        spec = parse_code_spec(TOWER_SECTION + "\n[generator]\ng = 1\n")
        assert spec.code.k == 9  # full space

    def test_missing_sections(self):
        with pytest.raises(ParseError):
            parse_code_spec("[generator]\ng = 1\n")
        with pytest.raises(ParseError):
            parse_code_spec(TOWER_SECTION)

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_code_spec(TOWER_SECTION + "\n[matrix]\nrows = 1 9 0\n")
        with pytest.raises(ParseError):
            parse_code_spec(MATRIX_SPEC + "parts = 3 x 3\n")

    def test_parse_bivar(self):
        t = build_tower(2, 1, 3, 2, 3, 3)
        f = parse_bivar("g^2*x^2*z + x + 1", t)
        assert f.coeff(0, 0) == 1
        assert f.coeff(1, 0) == 1
        assert f.coeff(2, 1) == t.F.pow(t.F.gen, 2)
        with pytest.raises(ParseError):
            parse_bivar("x + $", t)

    @pytest.mark.parametrize("entry", ["parse_poly", "parse_bivar", "matrix_rows"])
    def test_coefficient_tokens(self, entry):
        t = build_tower(2, 1, 3, 2, 3, 3)

        def parse(tok):
            if entry == "parse_poly":
                return parse_poly(f"{tok}*z + 1", t, "F", "z")[1]
            if entry == "parse_bivar":
                return parse_bivar(f"{tok}*z + 1", t).coeff(0, 1)
            spec = parse_code_spec(TOWER_SECTION + f"\n[matrix]\nrows = 1 {tok} 0 0 0 0 0 0 0\n")
            return spec.code.G[0][1]

        assert parse("g^2") == t.F.pow(t.F.gen, 2)
        for bad in ("g2", "9"):  # 9 is out of range on F8
            with pytest.raises(ParseError):
                parse(bad)


class TestSubcommands:
    def test_tower(self, capsys):
        code, out, _ = run(
            capsys, "tower", "--p", "2", "--m", "3", "--h", "2", "--ell", "3", "--N", "3"
        )
        assert code == 0
        data = json.loads(out)
        assert data["tower"]["moduli"] == {"E": 3, "F": 11, "K": 7, "L": 67}

    def test_code_build(self, capsys, gen_spec_file):
        code, out, _ = run(capsys, "code", "build", "--code", gen_spec_file)
        assert code == 0
        data = json.loads(out)
        assert data["code"]["k"] == 2
        assert data["code"]["cyclic_skew_cyclic"] is True

    def test_distance(self, capsys, gen_spec_file):
        code, out, _ = run(capsys, "distance", "--code", gen_spec_file)
        assert code == 0
        assert json.loads(out)["d"] == 3

    def test_certify_and_verify_round_trip(self, capsys, gen_spec_file, tmp_path):
        code, out, _ = run(
            capsys, "certify", "bch", "--code", gen_spec_file,
            "--b", "1", "--t", "1", "--delta", "3",
        )
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert cert["bound"] == 3
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, out, _ = run(
            capsys, "verify", "--certificate", str(cert_path), "--code", gen_spec_file
        )
        assert code == 0
        assert json.loads(out)["verified"] is True

    @pytest.mark.parametrize("spec, kind", [
        (GEN_SPEC, "bch"),
        (TOWER28_SECTION + "\n[generator]\nf1 = x+1\nf2 = z^2+13*z+9\n", "ht"),
        (TOWER28_SECTION + "\n[generator]\nf1 = x^4+x^2+x+1\nf2 = z^2+14*z+13\n", "roos"),
    ], ids=["bch", "ht", "roos"])
    def test_search_and_verify_round_trip(self, capsys, tmp_path, spec, kind):
        path = spec_file(tmp_path, spec)
        code, out, _ = run(capsys, "search", "--code", path)
        cert = json.loads(out)["certificate"]
        assert code == 0 and cert["kind"] == kind
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, out, _ = run(capsys, "verify", "--certificate", str(cert_path), "--code", path)
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_certify_missing_pair_exit_2(self, capsys, gen_spec_file):
        code, _, err = run(
            capsys, "certify", "bch", "--code", gen_spec_file,
            "--b", "0", "--t", "1", "--delta", "3",
        )
        assert code == 2
        assert "GridNotContained" in err

    def test_search(self, capsys, gen_spec_file):
        code, out, _ = run(capsys, "search", "--code", gen_spec_file)
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert cert["bound"] == 3

    def test_search_deterministic(self, capsys, gen_spec_file):
        _, out1, _ = run(capsys, "search", "--code", gen_spec_file)
        _, out2, _ = run(capsys, "search", "--code", gen_spec_file)
        c1, c2 = json.loads(out1), json.loads(out2)
        c1.pop("timings"), c2.pop("timings")
        assert c1 == c2

    def test_product(self, capsys, gen_spec_file, tmp_path):
        other = tmp_path / "c2.code"
        other.write_text(GEN_SPEC)
        code, out, _ = run(
            capsys, "product", "--code1", gen_spec_file, "--code2", str(other)
        )
        assert code == 0
        data = json.loads(out)
        assert (data["k1"], data["k2"]) == (1, 2)
        assert data["dSR"] == data["dH"] * data["dR"]

    def test_budget_exit_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SUMRANK_BUDGET", "100")
        full = tmp_path / "full.code"
        full.write_text(TOWER_SECTION + "\n[generator]\ng = 1\n")
        code, _, err = run(capsys, "distance", "--code", str(full))
        assert code == 3
        assert "BudgetExceeded" in err

    @pytest.mark.parametrize("value", ["abc", "1e9", "-5"])
    def test_malformed_budget_exit_2(self, capsys, gen_spec_file, monkeypatch, value):
        monkeypatch.setenv("SUMRANK_BUDGET", value)
        code, _, err = run(capsys, "distance", "--code", gen_spec_file)
        assert code == 2
        report = json.loads(err)
        assert report["error"] == "InvalidParameter"
        assert "SUMRANK_BUDGET" in report["message"]

    @pytest.mark.parametrize("parts", ["", "9", "4 5"])
    def test_csc_flag_uses_the_tower_blocks(self, capsys, tmp_path, parts):
        """rho and phi act on ell blocks of size N whatever the weight
        partition, so the rows of a CSC code stay CSC under any of them."""
        G = parse_code_spec(TOWER_SECTION + "\n[generator]\ng = 3 + x^2*z^2\n").code.G
        rows = "; ".join(" ".join(map(str, r)) for r in G)
        text = TOWER_SECTION + f"\n[matrix]\nrows = {rows}\n"
        path = spec_file(tmp_path, text + (f"parts = {parts}\n" if parts else ""))
        code, out, _ = run(capsys, "code", "build", "--code", path)
        assert code == 0
        data = json.loads(out)["code"]
        assert (data["k"], data["cyclic_skew_cyclic"]) == (6, True)
        code, out, _ = run(capsys, "distance", "--code", path)
        assert code == 0
        assert json.loads(out)["d"] == 2

    def test_csc_flag_null_off_the_tower_length(self, capsys, tmp_path):
        path = spec_file(tmp_path, TOWER_SECTION + "\n[matrix]\nrows = 1 0 1 0\nparts = 4\n")
        code, out, _ = run(capsys, "code", "build", "--code", path)
        assert code == 0
        assert json.loads(out)["code"]["cyclic_skew_cyclic"] is None

    def test_text_format(self, capsys, gen_spec_file):
        code, out, _ = run(
            capsys, "distance", "--code", gen_spec_file, "--format", "text"
        )
        assert code == 0
        assert "d: 3" in out

    def test_text_format_marks_list_items(self, capsys, gen_spec_file):
        # a delta = 3 certificate has a two-pair grid: one marked line per
        # pair, where the pairs once printed as four bare "- n" lines
        argv = ("certify", "bch", "--code", gen_spec_file, "--b", "1", "--t", "1", "--delta", "3")
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        lines = out.splitlines()
        at = lines.index("  grid:")
        assert lines[at + 1 : at + 4] == ["    - [1, 0]", "    - [2, 1]", "  kind: bch"]
        assert "  params:" in lines and "    b: 1" in lines and "    delta: 3" in lines

    def test_text_format_of_product_bounds(self, capsys, gen_spec_file):
        argv = ("product", "--code1", gen_spec_file, "--code2", gen_spec_file)
        _, out_json, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        bound = json.loads(out_json)["bounds"][0]["bound"]
        lines = out.splitlines()
        at = lines.index("bounds:")
        assert lines[at + 1] == f"  - bound: {bound}"
        assert lines[at + 2].startswith("    code_id: ")
        assert "      - [1, 0]" in lines

    def test_text_rendering(self):
        report = {"a": [[1, 0], [2, 1]], "b": [{"x": 1, "y": [3]}, {"z": {}}], "c": [],
                  "d": [[[5]], 6], "e": None}
        assert _render(report, "text").splitlines() == [
            "a:", "  - [1, 0]", "  - [2, 1]",
            "b:", "  - x: 1", "    y: [3]", "  - z: {}",
            "c: []",
            "d:", "  - - [5]", "  - 6",
            "e: None",
        ]

    def test_matrix_spec_distance(self, capsys, tmp_path):
        path = tmp_path / "m.code"
        path.write_text(MATRIX_SPEC)
        code, out, _ = run(capsys, "distance", "--code", str(path))
        assert code == 0
        assert json.loads(out)["d"] >= 1


class TestErrorContract:
    """Bad input exits 2 with the error named in a JSON object on stderr."""

    def error(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        return json.loads(err)["error"]

    def test_missing_spec(self, capsys, tmp_path):
        missing = str(tmp_path / "none.code")
        assert self.error(capsys, "distance", "--code", missing) == "UnreadableInput"

    def test_missing_certificate(self, capsys, gen_spec_file, tmp_path):
        missing = str(tmp_path / "none.json")
        argv = ("verify", "--certificate", missing, "--code", gen_spec_file)
        assert self.error(capsys, *argv) == "UnreadableInput"

    def verify_edited(self, capsys, spec_file, tmp_path, edit):
        """The error of `verify` on a valid certificate changed by `edit`."""
        _, out, _ = run(
            capsys, "certify", "bch", "--code", spec_file,
            "--b", "1", "--t", "1", "--delta", "3",
        )
        cert = json.loads(out)["certificate"]
        edit(cert)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        return self.error(capsys, "verify", "--certificate", str(path), "--code", spec_file)

    @pytest.mark.parametrize("key", ["params", "bound", "grid"])
    def test_certificate_lacking_key(self, capsys, gen_spec_file, tmp_path, key):
        def drop(cert):
            del cert[key]

        assert self.verify_edited(capsys, gen_spec_file, tmp_path, drop) == "ParseError"

    def test_certificate_non_integer_param(self, capsys, gen_spec_file, tmp_path):
        def spoil(cert):
            cert["params"]["b"] = "x"

        assert self.verify_edited(capsys, gen_spec_file, tmp_path, spoil) == "ParseError"

    @pytest.mark.parametrize("key", ["b", "delta"])
    def test_certificate_null_required_param(self, capsys, gen_spec_file, tmp_path, key):
        # a null b or delta once passed the key check and made BoundParams raise
        # TypeError: a traceback and exit 1
        def blank(cert):
            cert["params"][key] = None

        assert self.verify_edited(capsys, gen_spec_file, tmp_path, blank) == "ParseError"

    def test_certificate_field_the_family_does_not_read(self, capsys, tmp_path):
        # a BCH certificate reads t only: r, s and ks would be echoed unchecked
        path = spec_file(tmp_path, TOWER_SECTION + "\n[generator]\nf1 = x+1\nf2 = z+1\n")
        _, out, _ = run(capsys, "search", "--code", path)
        cert = json.loads(out)["certificate"]
        assert cert["params"] == {"kind": "bch", "b": 0, "delta": 2, "r": 0, "t": 1}
        cert["params"].update(r=5, s=3, ks=[0, 9])
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        argv = ("verify", "--certificate", str(cert_path), "--code", path)
        assert self.error(capsys, *argv) == "PreconditionViolated"

    @pytest.mark.parametrize("factors", ["f1 = 0\nf2 = z+1", "f1 = x+1\nf2 = 0"], ids=["f1", "f2"])
    @pytest.mark.parametrize("command", [("code", "build"), ("search",)], ids=" ".join)
    def test_zero_factor_is_not_a_divisor(self, capsys, tmp_path, factors, command):
        path = spec_file(tmp_path, TOWER_SECTION + f"\n[generator]\n{factors}\n")
        assert self.error(capsys, *command, "--code", path) == "NotADivisor"

    def test_certificate_of_another_tower(self, capsys, gen_spec_file, tmp_path):
        def retower(cert):
            cert["tower"]["h"] = 5

        assert self.verify_edited(capsys, gen_spec_file, tmp_path, retower) == "TowerMismatch"

    @pytest.mark.parametrize("argv", [
        "certify ht --b 0 --t1 1 --t2 1 --delta 9 --r -1",
        {"kind": "ht", "b": 0, "delta": 9, "r": -1, "t1": 1, "t2": 1},
        {"kind": "roos", "b": 0, "delta": 9, "r": -1, "s": 1, "ks": []},
    ], ids=["certify-ht", "verify-ht", "verify-roos"])
    def test_negative_r_refused(self, capsys, tmp_path, argv):
        # with r = -1 the HT pattern lists no pair, yet claims delta + r = 8
        # against a distance of 2; the Roos check would index an empty k-list
        path = spec_file(tmp_path, TOWER_SECTION + "\n[generator]\nf1 = x+1\nf2 = 1\n")
        if isinstance(argv, dict):
            claim = {"params": argv, "bound": 8, "grid": []}
            argv = f"verify --certificate {spec_file(tmp_path, json.dumps(claim), 'c.json')}"
        assert self.error(capsys, *argv.split(), "--code", path) == "PreconditionViolated"

    def test_roos_offsets_not_integers(self, capsys, gen_spec_file):
        argv = ("certify", "roos", "--code", gen_spec_file, "--b", "1", "--s", "1",
                "--delta", "2", "--k", "a")
        assert self.error(capsys, *argv) == "ParseError"

    @pytest.mark.parametrize("argv", [
        "code build --code {row}",
        "code build --code {parts}",
        "certify roos --code {gen} --b 1 --s 1 --delta 2 --k 0,,1",
        "certify roos --code {gen} --b 1 --s 1 --delta 2 --k 0,1,",
    ], ids=["row", "parts", "roos-k", "roos-k-trailing"])
    def test_empty_list_item(self, capsys, gen_spec_file, tmp_path, argv):
        # ",," once read as one separator: the row kept nine entries, the
        # parts read (3, 3, 3) and the offsets (0, 1)
        row_text = TOWER_SECTION + "\n[matrix]\nrows = 1,,0,0,1,0,0,1,0,0\n"
        row = spec_file(tmp_path, row_text, "r.code")
        parts = spec_file(tmp_path, MATRIX_SPEC + "parts = 3,,3,3\n", "p.code")
        argv = argv.format(row=row, parts=parts, gen=gen_spec_file)
        assert self.error(capsys, *argv.split()) == "ParseError"

    def test_roos_offsets_with_spaces(self, capsys, gen_spec_file):
        argv = ("certify", "roos", "--code", gen_spec_file, "--b", "1", "--s", "1", "--delta", "2")
        outs = [run(capsys, *argv, "--k", k)[1] for k in ("0,1", "0, 1", "0 1")]
        assert json.loads(outs[0])["certificate"]["params"]["ks"] == [0, 1]
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize(
        "keys", [("p",), ("m",), ("h",), ("ell",), ("N",), ("p", "ell")], ids="-".join
    )
    def test_tower_key_missing(self, capsys, tmp_path, keys):
        lines = [line for line in GEN_SPEC.splitlines() if line.split(" = ")[0] not in keys]
        path = spec_file(tmp_path, "\n".join(lines) + "\n")
        code, _, err = run(capsys, "code", "build", "--code", path)
        assert code == 2
        message = f"[tower] lacks {', '.join(keys)}"
        assert json.loads(err) == {"error": "ParseError", "message": message}

    @pytest.mark.parametrize("text, message", [
        (GEN_SPEC.replace("e_deg = 1", "e-deg = 2"), "[tower] takes no e-deg"),
        (TOWER_SECTION + "n = 3\n\n[generator]\ng = 1\n", "[tower] takes N or n, not both"),
        (TOWER_SECTION + "\n[generator]\ng = 1\nf1 = x+1\nf2 = z+1\n",
         "[generator] takes g= or f1= and f2=, not both"),
        (TOWER_SECTION + "\n[generator]\ng = 1\nf2 = z+1\n",
         "[generator] takes g= or f1= and f2=, not both"),
        (MATRIX_SPEC + "\n[generator]\ng = 1\n",
         "a spec takes a [matrix] or a [generator] section, not both"),
        (GEN_SPEC + "f3 = 1\n", "[generator] takes no f3"),
        (MATRIX_SPEC + "part = 9\nrow = 1\n", "[matrix] takes no part, row"),
        (GEN_SPEC + "\n[notes]\nauthor = me\n", "unknown section [notes]"),
        ("[DEFAULT]\ne_deg = 2\n\n" + GEN_SPEC, "unknown section [DEFAULT]"),
        ("[DEFAULT]\n\n" + GEN_SPEC, "unknown section [DEFAULT]"),
        (GEN_SPEC.replace("z+1", "z+%(p)s"), "bad term '%(p)s'"),
    ], ids=["e-deg", "N-and-n", "g-f1-f2", "g-f2", "matrix-and-generator", "generator-key",
            "matrix-keys", "section", "default-keys", "default-empty", "percent"])
    def test_strict_spec(self, capsys, tmp_path, text, message):
        # each of these was once read without a word: e-deg = 2 built an e_deg = 1
        # tower, g = 1 beside f1/f2 built the full space, the matrix won over
        # the generator, and unknown keys and sections (also through
        # [DEFAULT]) were dropped; a "%" was a configparser traceback
        path = spec_file(tmp_path, text)
        code, _, err = run(capsys, "code", "build", "--code", path)
        assert code == 2
        assert json.loads(err) == {"error": "ParseError", "message": message}

    def test_lowercase_n_still_reads(self, capsys, tmp_path):
        text = GEN_SPEC.replace("N = 3", "n = 3")
        outs = [run(capsys, "code", "build", "--code", spec_file(tmp_path, spec))[1]
                for spec in (GEN_SPEC, text)]
        assert json.loads(outs[0])["code"]["k"] == 2
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", [("code", "build"), ("distance",)], ids=" ".join)
    def test_zero_part_is_a_length_mismatch(self, capsys, tmp_path, command):
        path = spec_file(tmp_path, MATRIX_SPEC + "parts = 0 9\n")
        code, _, err = run(capsys, *command, "--code", path)
        assert code == 2
        message = "partition parts must be positive"
        assert json.loads(err) == {"error": "LengthMismatch", "message": message}

    def test_tower_zero_degree(self, capsys):
        argv = ("tower", "--p", "2", "--m", "0", "--h", "1", "--ell", "1", "--N", "1")
        assert self.error(capsys, *argv) == "InvalidParameter"

    def test_tower_field_too_big(self, capsys):
        # |L| = 2^21 exceeds the 2^16 field-table cap
        argv = ("tower", "--p", "2", "--m", "3", "--h", "7", "--ell", "1", "--N", "3")
        assert self.error(capsys, *argv) == "FieldTooLarge"

    @pytest.mark.parametrize("argv", [
        "--p 1000000000000000003 --m 1 --h 1 --ell 1 --N 1",
        "--p 2 --m 1 --h 1 --ell 1 --N 1 --e-deg 20000",
        "--p 2 --m 1 --h 20000 --ell 1 --N 1",
    ], ids=["huge-p", "huge-e-deg", "huge-h"])
    def test_tower_huge_parameters(self, argv):
        # a child process, so that a hang fails by the timeout
        proc = subprocess.run(
            [sys.executable, "-m", "sumrank.cli", "tower", *argv.split()],
            capture_output=True, text=True, env=child_env(), timeout=20,
        )
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "FieldTooLarge"

    def test_input_not_utf8(self, capsys, gen_spec_file, tmp_path):
        path = tmp_path / "binary"
        path.write_bytes(b"\xff\xfe\x00bad")
        assert self.error(capsys, "code", "build", "--code", str(path)) == "UnreadableInput"
        argv = ("verify", "--certificate", str(path), "--code", gen_spec_file)
        assert self.error(capsys, *argv) == "UnreadableInput"

    @pytest.mark.parametrize("section", [
        "[matrix]\nrows = {big} 0 0 1 0 0 1 0 0\n",
        "[generator]\nf1 = g^{big}*x + 1\nf2 = z+1\n",
        "[generator]\ng = x^{big} + 1\n",
    ], ids=["matrix-entry", "g-power", "x-exponent"])
    def test_integer_token_past_digit_limit(self, capsys, tmp_path, section):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # Python's default
        try:
            text = TOWER_SECTION + "\n" + section.format(big="1" * 5000)
            path = spec_file(tmp_path, text)
            assert self.error(capsys, "code", "build", "--code", path) == "ParseError"
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("factors", [
        "f1 = x^99999999999 + 1\nf2 = z+1",
        "f1 = x+1\nf2 = z^99999999999 + 1",
    ], ids=["f1", "f2"])
    def test_factor_degree_past_block_length(self, tmp_path, factors):
        # a child process, so that building the coefficient list fails by the
        # timeout or the memory it takes
        path = spec_file(tmp_path, TOWER_SECTION + "\n[generator]\n" + factors + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "sumrank.cli", "code", "build", "--code", path],
            capture_output=True, text=True, env=child_env(), timeout=20,
        )
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "ParseError"

    @pytest.mark.parametrize("limit", [("--delta-max", "-3"), ("--r-max", "-1")])
    def test_negative_search_limits(self, capsys, gen_spec_file, limit):
        argv = ("search", "--code", gen_spec_file, *limit)
        assert self.error(capsys, *argv) == "InvalidParameter"

    def test_product_of_two_towers(self, capsys, gen_spec_file, tmp_path):
        other = spec_file(tmp_path, GEN_SPEC.replace("h = 2", "h = 4"))
        argv = ("product", "--code1", gen_spec_file, "--code2", other)
        assert self.error(capsys, *argv) == "TowerMismatch"

    @pytest.mark.parametrize("code", ["code1", "code2"])
    def test_product_with_a_zero_factor(self, capsys, gen_spec_file, tmp_path, code):
        # x^3 + 1 = x^ell - 1 and z^3 + 1 = z^N - 1 generate zero factors
        zero = spec_file(tmp_path, TOWER_SECTION + "\n[generator]\nf1 = x^3+1\nf2 = z^3+1\n")
        specs = {"code1": gen_spec_file, "code2": gen_spec_file, code: zero}
        argv = ("product", "--code1", specs["code1"], "--code2", specs["code2"])
        assert self.error(capsys, *argv) == "ZeroCode"

    def test_certificates_refuse_other_partitions(self, capsys, tmp_path):
        # f1 = x+1, f2 = 1 has d = 1 as one block of 9, but the grid certifies 2
        rows = parse_code_spec(TOWER_SECTION + "\n[generator]\nf1 = x+1\nf2 = 1\n").code.G
        text = "\n    ".join(" ".join(map(str, row)) for row in rows)
        path = spec_file(tmp_path, TOWER_SECTION + f"\n[matrix]\nrows = {text}\nparts = 9\n")
        code, out, _ = run(capsys, "distance", "--code", path)
        assert code == 0 and json.loads(out)["d"] == 1
        assert self.error(capsys, "search", "--code", path) == "PreconditionViolated"
        argv = ("certify", "bch", "--code", path, "--b", "0", "--t", "1", "--delta", "2")
        assert self.error(capsys, *argv) == "PreconditionViolated"

    def test_certificates_refuse_zero_codes(self, capsys, tmp_path):
        zero_g = spec_file(tmp_path, TOWER_SECTION + "\n[generator]\ng = 0\n", "g.code")
        zero_rows = spec_file(
            tmp_path, TOWER_SECTION + "\n[matrix]\nrows = 0 0 0 0 0 0 0 0 0\n", "m.code"
        )
        bch = ("--b", "0", "--t", "1", "--delta", "4")
        for path in (zero_g, zero_rows):
            assert self.error(capsys, "search", "--code", path) == "ZeroCode"
            assert self.error(capsys, "certify", "bch", "--code", path, *bch) == "ZeroCode"


    @pytest.mark.parametrize("argv", [
        "certify bch --b 0 --t 1 --delta 30000000",
        "certify ht --b 0 --t1 1 --t2 1 --r 1 --delta 30000000",
        "certify roos --b 0 --s 1 --k 0,1 --delta 30000000",
        "certify ht --b 0 --t1 1 --t2 1 --r 30000000 --delta 2",
        "verify",
    ], ids=["bch", "ht", "roos", "ht-huge-r", "verify"])
    def test_oversized_certificate(self, tmp_path, argv):
        # more pairs than the 9 of the grid cannot be distinct; a child
        # process, so that listing 30 million pairs fails by the timeout
        path = spec_file(tmp_path, TOWER_SECTION + "\n[generator]\nf1 = x+1\nf2 = 1\n")
        if argv == "verify":
            claim = {"params": {"kind": "bch", "b": 0, "delta": 30000000, "t": 1},
                     "bound": 30000000, "grid": []}
            cert = tmp_path / "cert.json"
            cert.write_text(json.dumps(claim))
            argv = f"verify --certificate {cert}"
        proc = subprocess.run(
            [sys.executable, "-m", "sumrank.cli", *argv.split(), "--code", path],
            capture_output=True, text=True, env=child_env(), timeout=20,
        )
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "PreconditionViolated"


class TestImports:
    """Only the subcommands that enumerate codewords load numpy."""

    SCRIPT = (
        "import sys, sumrank.cli\n"
        "assert sumrank.cli.main(sys.argv[1:]) == 0\n"
        "print('numpy' in sys.modules)\n"
    )

    def loads_numpy(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv],
            capture_output=True, text=True, env=child_env(), check=True,
        )
        return proc.stdout.split()[-1] == "True"

    @pytest.mark.parametrize("argv", [
        "tower --p 2 --m 3 --h 2 --ell 3 --N 3",
        "code build --code {spec}",
        "certify bch --code {spec} --b 1 --t 1 --delta 3",
        "search --code {spec}",
        "verify --certificate {cert} --code {spec}",
    ], ids=lambda argv: argv.split(" --")[0])
    def test_no_numpy_without_enumeration(self, capsys, gen_spec_file, tmp_path, argv):
        bch = ("--b", "1", "--t", "1", "--delta", "3")
        _, out, _ = run(capsys, "certify", "bch", "--code", gen_spec_file, *bch)
        cert = spec_file(tmp_path, json.dumps(json.loads(out)["certificate"]), "cert.json")
        assert not self.loads_numpy(argv.format(spec=gen_spec_file, cert=cert).split())

    def test_distance_loads_numpy(self, gen_spec_file):
        assert self.loads_numpy(["distance", "--code", gen_spec_file])


class TestTracerBindings:
    """Every library name the benchmark tracer rebinds exists, so a change
    that drops one fails here instead of in every traced benchmark run."""

    def test_bindings_resolve(self):
        path = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
        spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        bindings = tracer.library_bindings() + tracer.cli_bindings()
        missing = [
            f"{module}.{attr}" for module, attr, _, _ in bindings
            if not hasattr(importlib.import_module(module), attr)
        ]
        assert bindings and missing == []


class TestBenchmarkPass:
    """One untraced `certify` and one untraced `sweep` pass of the benchmark
    worker: an op that fails shows here, not only in a benchmark run."""

    def test_certify_pass_has_no_failed_ops(self, tmp_path):
        self.assert_no_failed_ops(tmp_path, "certify")

    def test_sweep_pass_has_no_failed_ops(self, tmp_path):
        self.assert_no_failed_ops(tmp_path, "sweep")

    def assert_no_failed_ops(self, tmp_path, workload):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), SUMRANK_BUDGET=str(1 << 28))
        proc = subprocess.run(
            [sys.executable, str(root / "benchmark" / "worker.py"), "--workload", workload,
             "--seed", "5", "--workdir", str(tmp_path / "work")],
            env=env, cwd=root, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        ops = json.loads(proc.stdout.strip().splitlines()[-1])["ops"]
        assert ops
        failed = [(kind, status, detail) for kind, _, status, _, detail in ops
                  if status not in ("ok", "known_defect")]
        assert failed == []
