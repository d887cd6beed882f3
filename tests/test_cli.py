import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomkit import cli, kernels
from cohomkit.abelian import PRIME_BOUND
from cohomkit.cli import main
from cohomkit.errors import (InternalCheckFailed, NoIsomorphismFound,
                             NoPreimageFound)
from cohomkit.exact import sparse
from cohomkit.exact.sparse import SparseFactorization


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MODULES = {
    "triv.json": {"base": "Z", "generators": 1, "relations": [],
                  "action": {"1": [[1]]}},
    "tors.json": {"base": "Z", "generators": 1, "relations": [[2]],
                  "action": {"1": [[1]]}},
    # the permutation module of C6 acting through C3 on F_3^3, modulo the
    # diagonal
    "fp.json": {"base": "Fp", "p": 3, "generators": 3,
                "relations": [[1, 1, 1]],
                "action": {"1": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}},
}


class TestBasicCommands:
    def test_cohomology_c2(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--group", "c2",
                           "--coeff", "Z", "--deg", "2")
        assert code == 0
        assert "Z/2" in out

    def test_cohomology_json(self, capsys):
        code, out, _ = run(capsys, "--json", "cohomology", "--group", "c4",
                           "--coeff", "Z/4", "--deg", "3", "--basis")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert data["invariant_factors"] == [4]

    def test_cohomology_imports_no_numpy_ma(self):
        """A factorization imports no numpy.ma, whose import costs every
        command ~11 ms (np.setdiff1d imported it on its first call): checked
        in a fresh interpreter, where no other test has imported it."""
        script = ("import sys\n"
                  "from cohomkit import cli\n"
                  "code = cli.main(['cohomology', '--group', 'c2',\n"
                  "                 '--coeff', 'Z', '--deg', '1'])\n"
                  "assert code == 0, code\n"
                  "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_ring_klein4(self, capsys):
        code, out, _ = run(capsys, "--json", "ring", "--group", "klein4",
                           "--coeff", "Z/2", "--max-deg", "3")
        assert code == 0
        data = json.loads(out)
        assert data["dimensions"] == [1, 2, 3, 4]
        assert data["ring_axioms"] == "pass"

    def test_bockstein(self, capsys):
        code, out, _ = run(capsys, "--json", "bockstein", "--group", "c2",
                           "--p", "2", "--i", "1", "--deg", "1")
        assert code == 0
        data = json.loads(out)
        # delta_1(x) = x^2 is nonzero for C_2
        assert data["images"][0]["delta_coords"] == [1]

    def test_fiso(self, capsys):
        code, out, _ = run(capsys, "fiso", "--group", "c3", "--p", "3",
                           "--max-deg", "6")
        assert code == 0

    def test_thick(self, capsys):
        code, out, _ = run(capsys, "--json", "thick", "--p", "3",
                           "--seed", "2")
        assert code == 0
        data = json.loads(out)
        assert data["closure"] == [1, 2]
        assert data["thick_tensor_ideals"] == 2

    def test_koszul(self, capsys):
        code, out, _ = run(capsys, "koszul", "--elements", "2,3")
        assert code == 0

    def test_dualising(self, capsys):
        code, out, _ = run(capsys, "dualising", "--group", "q8")
        assert code == 0

    def test_kappa(self, capsys):
        code, out, _ = run(capsys, "kappa", "--group", "c2", "--p", "2",
                           "--max-deg", "6")
        assert code == 0

    def test_fibre_projdim(self, capsys, tmp_path):
        mod = tmp_path / "triv.json"
        mod.write_text(json.dumps({
            "base": "Z", "generators": 1, "relations": [],
            "action": {"1": [[1]]}}))
        code, out, _ = run(capsys, "--json", "fibre", "--group", "c2",
                           "--module", str(mod))
        assert code == 0
        data = json.loads(out)
        assert data["supremum"] == "infinity"

    def test_fibre_verify_rational_rechecks(self, capsys, tmp_path):
        mod = tmp_path / "triv.json"
        mod.write_text(json.dumps({
            "base": "Z", "generators": 1, "relations": [],
            "action": {"1": [[1]]}}))
        code, out, _ = run(capsys, "--json", "fibre", "--group", "c3",
                           "--module", str(mod), "--verify-rational")
        assert code == 0
        assert json.loads(out)["inputs"]["verify_rational"] is True
        rep = tmp_path / "rep.json"
        rep.write_text(out)
        code, out2, _ = run(capsys, "--json", "recheck", str(rep))
        assert code == 0
        assert json.loads(out2)["reproduced"] is True

    def test_fibre_gproj(self, capsys, tmp_path):
        mod = tmp_path / "tors.json"
        mod.write_text(json.dumps({
            "base": "Z", "generators": 1, "relations": [[2]],
            "action": {"1": [[1]]}}))
        code, out, _ = run(capsys, "--json", "fibre", "--group", "c2",
                           "--module", str(mod), "--gproj")
        assert code == 0
        assert json.loads(out)["gorenstein_projective"] is False

    def test_fibre_gproj_without_relations(self, capsys, tmp_path):
        mod = tmp_path / "free.json"
        mod.write_text(json.dumps({
            "base": "Z", "generators": 2, "relations": [],
            "action": {"1": [[0, 1], [1, 0]]}}))
        code, out, _ = run(capsys, "--json", "fibre", "--group", "c2",
                           "--module", str(mod), "--gproj")
        assert code == 0
        rep = json.loads(out)
        assert rep["gorenstein_projective"] is True
        assert rep["underlying_invariants"] == [0, 0]


class TestVerifyPaperSuites:
    @pytest.mark.parametrize("suite", ["lemma2.2", "classification",
                                       "lemma3.3", "lemma2.7"])
    def test_fast_suites_pass(self, capsys, suite):
        code, out, _ = run(capsys, "--json", "verify-paper",
                           "--suite", suite)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.slow
    def test_heavy_suites_pass(self, capsys):
        for suite in ("lemma4.1", "lemma4.2", "prop4.3", "thm4.4"):
            code, out, _ = run(capsys, "--json", "verify-paper",
                               "--suite", suite)
            assert code == 0, suite
            assert json.loads(out)["verdict"] == "pass", suite


class TestDeterminismAndRecheck:
    def test_byte_identical_reports(self, capsys):
        args = ("--json", "cohomology", "--group", "c4", "--coeff", "Z/4",
                "--deg", "3", "--basis")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("argv, inputs, human", [
        (["cohomology", "--group", "c4", "--coeff", "Z/4", "--deg", "2",
          "--basis"], {}, False),
        (["ring", "--group", "klein4", "--coeff", "Z/2", "--max-deg", "2"],
         {}, False),
        (["ring", "--group", "c2", "--coeff", "Z/2", "--max-deg", "3",
          "--basis"], {"basis": True}, False),
        (["bockstein", "--group", "c4", "--p", "2", "--i", "2", "--deg", "1"],
         {}, False),
        (["fiso", "--group", "c3", "--p", "3", "--max-deg", "4"], {}, False),
        (["fiso", "--group", "c2", "--p", "2", "--max-deg", "5"], {}, True),
        (["fibre", "--group", "c2", "--module", "tors.json", "--gproj"], {},
         False),
        (["fibre", "--group", "c6", "--module", "fp.json"], {}, False),
        (["fibre", "--group", "c2", "--module", "triv.json"], {}, False),
        (["fibre", "--group", "c3", "--module", "triv.json",
          "--verify-rational"], {"verify_rational": True}, False),
        (["dualising", "--group", "s3"], {}, False),
        (["koszul", "--elements", "2,3,5"], {}, False),
        (["thick", "--p", "5", "--seed", "1,3"], {}, False),
        (["thick", "--p", "3", "--seed", "1"], {}, True),
        (["thick", "--p", "3", "--seed", ""], {}, False),
        (["kappa", "--group", "c2", "--p", "2", "--max-deg", "4"], {}, False),
        (["kappa", "--group", "c2", "--p", "2", "--s", "1", "--max-deg", "4"],
         {}, False),
        (["verify-paper", "--suite", "lemma2.2"], {}, False),
    ], ids=["cohomology", "ring", "ring-basis", "bockstein", "fiso",
            "fiso-human", "fibre-gproj", "fibre-projectivity",
            "fibre-projdim", "fibre-verify-rational", "dualising", "koszul",
            "thick", "thick-human", "thick-empty-seed", "kappa", "kappa-s",
            "verify-paper"])
    def test_recheck_reproduces(self, capsys, tmp_path, monkeypatch, argv,
                                inputs, human):
        """recheck parses a report's inputs back into a command line and
        reproduces the report byte for byte; ``inputs`` are entries the
        report must echo, and ``human`` rechecks without --json."""
        monkeypatch.chdir(tmp_path)  # the report records the module path
        for name, module in MODULES.items():
            (tmp_path / name).write_text(json.dumps(module))
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0
        assert inputs.items() <= json.loads(out)["inputs"].items()
        (tmp_path / "rep.json").write_text(out)
        if human:
            code, out2, _ = run(capsys, "recheck", "rep.json")
            assert code == 0
            assert "reproduced: True" in out2.splitlines()
            return
        code, out2, _ = run(capsys, "--json", "recheck", "rep.json")
        assert code == 0
        assert json.loads(out2)["reproduced"] is True

    @pytest.mark.parametrize("key, value, message", [
        ("p", 0, "argument --p: must be a prime, not '0'"),
        ("deg", -1, "argument --deg: must be an integer >= 0, not '-1'"),
        ("level", 1, "unrecognized arguments: --level=1"),
    ], ids=["p0", "negative-deg", "unknown-key"])
    def test_recheck_refuses_what_the_parser_refuses(self, capsys, tmp_path,
                                                     key, value, message):
        """Inputs the command refuses are refused at recheck too.  The p = 0
        report is the one bockstein printed before --p had to be a prime
        (H^1(C_2; Z) = 0, so no images); recheck used to reproduce it."""
        _, out, _ = run(capsys, "--json", "bockstein", "--group", "c2",
                        "--p", "2", "--i", "1", "--deg", "1")
        data = json.loads(out)
        data.update(source="0", images=[])
        data["inputs"][key] = value
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps(data))
        code, out, err = run(capsys, "recheck", str(rep))
        assert code == 2
        assert not out and message in err

    def test_recheck_detects_tampering(self, capsys, tmp_path):
        _, out, _ = run(capsys, "--json", "cohomology", "--group", "c2",
                        "--coeff", "Z", "--deg", "2")
        data = json.loads(out)
        data["invariant_factors"] = [4]
        rep = tmp_path / "bad.json"
        rep.write_text(json.dumps(data))
        code, _, _ = run(capsys, "recheck", str(rep))
        assert code == 1


# the commands whose --json reports are pinned, with the sha256 of stdout
GOLDEN_REPORTS = [
    (["fiso", "--group", "c4", "--p", "2", "--max-deg", "6"],
     "7c2e0a9b6040000110167df239b6938b6305c63392fe5edfac41c1e20bea1ef5"),
    (["fiso", "--group", "s3", "--p", "3", "--max-deg", "4"],
     "60110dbbffeb72521c83ced876b99e32b962ba163dde8168128d1fc749bf5034"),
    (["bockstein", "--group", "s3", "--p", "3", "--i", "1", "--deg", "2"],
     "f42e2fcc00e06170df1b2bedd7b4b5973606ba36315ef251f949123f2a6d2228"),
    (["verify-paper", "--suite", "prop4.3"],
     "000c9af784bdaa5638827f65f30694d68946176f7bf1639d810416739dac1254"),
    (["verify-paper", "--suite", "lemma2.7"],
     "a0b19c790ecae04d17996f25a7375c0e24368f4fc3bb5bfabbdd7a5511019790"),
    (["fibre", "--group", "c6", "--module", "fp.json"],
     "23e047b7d8934b3e0503ed17e87f9173f9b9f42790ef56f6016f9e15b0c169b3"),
    (["kappa", "--group", "klein4", "--p", "2", "--max-deg", "6"],
     "2ba873de8c0b3dc9a7ac4f80c8ee1d19cbffe01805611d5520982f97ad81d214"),
    # a composite modulus: theta and Tor generators at two primes
    (["ring", "--group", "s3", "--coeff", "6", "--max-deg", "4",
      "--basis"],
     "3b176b2a1586aacd97f5ffe7f250192b670d55b195e4ae0d6b8f363ecc961fc6"),
    (["ring", "--group", "klein4", "--coeff", "4", "--max-deg", "4"],
     "7fbc3336c527b8734a5d2d716af9fccbd0fb61a7d900383e34c2c32408501bda"),
]
GOLDEN_IDS = ["fiso-c4", "fiso-s3", "bockstein-s3", "prop4.3", "lemma2.7",
              "fibre-fp", "kappa-klein4", "ring-s3-mod6", "ring-klein4-mod4"]


class TestGoldenReports:
    """Reports that go through the mod-p paths, pinned by the sha256 of their
    --json stdout, so that a change in any mod-p answer shows."""

    @pytest.mark.parametrize("argv, digest", GOLDEN_REPORTS, ids=GOLDEN_IDS)
    def test_report_digest(self, capsys, tmp_path, monkeypatch, argv, digest):
        monkeypatch.chdir(tmp_path)  # the report records the module path
        (tmp_path / "fp.json").write_text(json.dumps(MODULES["fp.json"]))
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [a for a, _ in GOLDEN_REPORTS],
                             ids=GOLDEN_IDS)
    def test_writer_prints_json_dumps_text(self, capsys, tmp_path,
                                           monkeypatch, argv):
        """--json prints exactly ``json.dumps(report, indent=1,
        sort_keys=True)`` and a newline, for the report object of every
        pinned command."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fp.json").write_text(json.dumps(MODULES["fp.json"]))
        reports, emit = [], cli._emit

        def spy(report, as_json, started):
            reports.append(report)
            return emit(report, as_json, started)

        monkeypatch.setattr(cli, "_emit", spy)
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0 and len(reports) == 1
        assert out == json.dumps(reports[0], indent=1, sort_keys=True) + "\n"


# JSON values as reports hold them, and the leaves json writes specially:
# ints past 2^64 and negative ones, bools (ints to isinstance), floats with
# NaN and infinities, strings with escapes, control and non-ASCII characters
_JSON_LEAVES = (st.integers() | st.integers(-2**80, 2**80) | st.booleans()
                | st.none() | st.floats() | st.text())
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=6)
                  | st.lists(kids, max_size=6).map(tuple)
                  | st.lists(st.integers(), max_size=40)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=6)),
    max_leaves=40)
_JSON_KEYS = (st.text(max_size=4) | st.integers() | st.floats()
              | st.booleans() | st.none())


class TestJsonWriter:
    """``cli._json_text`` against ``json.dumps(o, indent=1,
    sort_keys=True)``: the same text, or the same exception type."""

    @staticmethod
    def outcome(dump, o):
        try:
            return dump(o)
        except (TypeError, ValueError) as exc:
            return type(exc)

    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    def test_same_text(self, o):
        assert cli._json_text(o) == json.dumps(o, indent=1, sort_keys=True)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(_JSON_KEYS, _JSON_LEAVES, max_size=5))
    def test_keys_of_every_kind(self, o):
        """Non-string keys are written as json writes them, and keys that
        do not sort together raise TypeError in both."""
        assert self.outcome(cli._json_text, o) == self.outcome(
            lambda x: json.dumps(x, indent=1, sort_keys=True), o)

    @pytest.mark.parametrize("o", [
        np.int64(3), [1, np.int64(2)], {"a": [np.int64(2)]},
        {"a": {"b": np.bool_(True)}}, (1, object()), {(1, 2): 3}])
    def test_what_json_refuses(self, o):
        """A numpy integer or bool, or any other object json does not write,
        raises TypeError as it does in json, where it sits in a list of
        ints too; so does a tuple key."""
        with pytest.raises(TypeError):
            json.dumps(o, indent=1, sort_keys=True)
        with pytest.raises(TypeError):
            cli._json_text(o)

    def test_empty_and_tuples(self):
        o = {"a": [], "b": {}, "c": (), "d": [[], {}, ()], "e": (1, -2**70)}
        assert cli._json_text(o) == json.dumps(o, indent=1, sort_keys=True)


class TestErrorPaths:
    def test_fill_cap(self, capsys, monkeypatch):
        """A round of phase 1 whose live entries would pass the fill cap is
        refused as too large (exit 2), naming the cap."""
        monkeypatch.setattr(sparse, "_FILL_CAP", 100)
        code, out, err = run(capsys, "--json", "cohomology", "--group", "s3",
                             "--coeff", "Z", "--deg", "4")
        assert code == 2
        assert not out and "past the cap of 100" in err

    def test_fill_cap_in_phase_2(self, capsys, monkeypatch, tmp_path):
        """So is a phase-2 block of more entries than the cap: the relation
        2 has no +-1 entry, so phase 1 takes no round and leaves phase 2 a
        1 x 1 block."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tors.json").write_text(json.dumps(MODULES["tors.json"]))
        monkeypatch.setattr(sparse, "_FILL_CAP", 0)
        code, out, err = run(capsys, "--json", "fibre", "--group", "c2",
                             "--module", "tors.json")
        assert code == 2
        assert not out and "1 x 1 block, past the cap of 0" in err

    def test_failed_self_check_exits_3(self, capsys, monkeypatch):
        """A factorization whose log is corrupted fails its own check: exit
        3, the code of an internal error, not a verdict."""
        make_log = kernels.make_log

        def corrupt(batches):
            aa, qq, *rest = make_log(batches)
            qq[:1] += 1
            return (aa, qq, *rest)

        monkeypatch.setattr(kernels, "make_log", corrupt)
        code, out, err = run(capsys, "--json", "cohomology", "--group", "s3",
                             "--coeff", "Z", "--deg", "3")
        assert code == 3
        assert not out and "stored rows" in err

    def test_unknown_group(self, capsys):
        code, _, err = run(capsys, "cohomology", "--group", "m11",
                           "--coeff", "Z", "--deg", "2")
        assert code == 2

    def test_usage_error(self, capsys):
        assert main(["cohomology", "--group", "c2"]) == 2

    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_size_cap_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("COHOMKIT_SIZE_CAP", "50")
        from cohomkit.groups import symmetric_3
        from cohomkit.resolutions import bar_cochains

        bar_cochains.cache_clear()
        code, _, err = run(capsys, "cohomology", "--group", "s3",
                           "--coeff", "Z", "--deg", "4")
        bar_cochains.cache_clear()
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("cap", ["abc", "0", "-5"])
    def test_bad_size_cap_exit(self, capsys, monkeypatch, cap):
        """A cap that is not a positive integer is a usage error; it used to
        fall back to the default and run uncapped."""
        monkeypatch.setenv("COHOMKIT_SIZE_CAP", cap)
        code, out, err = run(capsys, "cohomology", "--group", "c2",
                             "--coeff", "Z", "--deg", "2")
        assert code == 2
        assert not out and "COHOMKIT_SIZE_CAP" in err

    def test_fibre_gproj_rejects_invalid_module(self, capsys, tmp_path):
        mod = tmp_path / "bad.json"
        mod.write_text(json.dumps({
            "base": "Z", "generators": 1, "relations": [],
            "action": {"1": [[2]]}}))
        code, out, err = run(capsys, "--json", "fibre", "--group", "c2",
                             "--module", str(mod), "--gproj")
        assert code == 2
        assert not out and "violates the table" in err

    @pytest.mark.parametrize("action, message", [
        ({"1": [[0, 1]]}, "must be 2 x 2"),
        ({"5": [[1, 0], [0, 1]]}, "not an element index"),
        ({"1": 5}, '"action" must be'),
        ([], '"action" must be'),
        ({"g": [[1, 0], [0, 1]]}, '"action" must be'),
    ])
    def test_fibre_rejects_malformed_action(self, capsys, tmp_path, action,
                                            message):
        """An action matrix of the wrong shape died in a matrix product
        (exit 1), a key outside the group ended generation early and died
        on a bare KeyError, and an action that is not an object of integer
        matrices died on a TypeError or AttributeError (exit 1)."""
        mod = tmp_path / "bad.json"
        mod.write_text(json.dumps({
            "base": "Z", "generators": 2, "relations": [], "action": action}))
        code, out, err = run(capsys, "--json", "fibre", "--group", "c2",
                             "--module", str(mod))
        assert code == 2
        assert not out and message in err and "action" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("module, field", [
        ([{"base": "Z"}], "a module file holds a JSON object"),
        ({"base": "Q", "generators": 1, "action": {"1": [[1]]}}, "base"),
        ({"base": "Z", "generators": "1", "action": {"1": [[1]]}},
         '"generators" must be'),
        ({"base": "Z", "generators": 1, "relations": 2,
          "action": {"1": [[1]]}}, '"relations" must be'),
        ({"base": "Fp", "p": [2], "generators": 1, "action": {"1": [[1]]}},
         '"p" must be'),
        ("{not json", "not JSON"),
    ])
    def test_fibre_rejects_malformed_module_file(self, capsys, tmp_path,
                                                 module, field):
        """A module file that is not an object, or whose fields have the
        wrong JSON shape, is a usage error naming the field; a list died on
        a TypeError (exit 1), and a base other than "Z" or "Fp" was taken
        until a command refused it.  A file that is not JSON at all names
        the file.  A string is the file's text as it stands."""
        mod = tmp_path / "bad.json"
        mod.write_text(module if isinstance(module, str)
                       else json.dumps(module))
        code, out, err = run(capsys, "--json", "fibre", "--group", "c2",
                             "--module", str(mod))
        assert code == 2
        assert not out and field in err and "Traceback" not in err
        if isinstance(module, str):
            assert str(mod) in err

    @pytest.mark.parametrize("group, field", [
        ([[1, 0]], "a group file holds a JSON object"),
        ({"generators": 5}, '"generators" must be'),
        ({"generators": [[1, 0], 5]}, '"generators" must be'),
        ({"name": "c2"}, '"generators" must be'),
        ({"name": 2, "generators": [[1, 0]]}, '"name" must be'),
        ("{not json", "not JSON"),
    ])
    def test_rejects_malformed_group_file(self, capsys, tmp_path, group,
                                          field):
        """A group file that is a list, or whose generators are not lists of
        integers, died on a TypeError (exit 1, the verdict-fail code).  A
        string is the file's text as it stands: one that is not JSON died
        on a JSONDecodeError that did not name the file."""
        path = tmp_path / "bad.json"
        path.write_text(group if isinstance(group, str) else json.dumps(group))
        code, out, err = run(capsys, "--json", "cohomology", "--group",
                             str(path), "--coeff", "Z", "--deg", "1")
        assert code == 2
        assert not out and field in err and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["cohomology", "--group", "c2", "--coeff", "Z", "--deg", "-1"],
         "--deg"),
        (["bockstein", "--group", "c2", "--p", "2", "--i", "1", "--deg",
          "-1"], "--deg"),
        (["ring", "--group", "c2", "--coeff", "Z", "--max-deg", "-1"],
         "--max-deg"),
        (["fiso", "--group", "c2", "--p", "2", "--max-deg", "-3"],
         "--max-deg"),
        (["kappa", "--group", "c2", "--p", "2", "--max-deg", "-3"],
         "--max-deg"),
        (["kappa", "--group", "c2", "--p", "2", "--max-deg", "3", "--s",
          "-1"], "--s"),
    ])
    def test_negative_degree_is_a_usage_error(self, capsys, argv, flag):
        """Negative degrees crashed with a traceback (exit 1, the verdict
        failure code) or printed a vacuous pass."""
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert not out and f"argument {flag}: must be an integer >= 0" in err

    @pytest.mark.parametrize("argv, flag, message", [
        (["bockstein", "--group", "c2", "--p", "0", "--i", "1", "--deg",
          "1"], "--p", "must be a prime, not '0'"),
        (["bockstein", "--group", "c2", "--p", "4", "--i", "1", "--deg",
          "1"], "--p", "must be a prime, not '4'"),
        (["bockstein", "--group", "c2", "--p", "2", "--i", "0", "--deg",
          "1"], "--i", "must be an integer >= 1, not '0'"),
        (["fiso", "--group", "c2", "--p", "1"], "--p", "must be a prime"),
        (["kappa", "--group", "c2", "--p", "-3"], "--p", "must be a prime"),
        (["thick", "--p", "6", "--seed", "1"], "--p", "must be a prime"),
        # 1000000007 * 1000000009, beyond fast trial division
        (["fiso", "--group", "c2", "--p", "1000000016000000063"], "--p",
         "must be a prime, not '1000000016000000063'"),
        (["fiso", "--group", "c2", "--p", str(PRIME_BOUND)], "--p",
         f"{PRIME_BOUND} is not below {PRIME_BOUND}"),
    ], ids=["bockstein-p0", "bockstein-p4", "bockstein-i0", "fiso-p1",
            "kappa-p-3", "thick-p6", "fiso-semiprime", "fiso-bound"])
    def test_non_prime_p_is_a_usage_error(self, capsys, argv, flag, message):
        """bockstein took --p 0 as integral coefficients and printed a pass
        with no images, and died deep in the engine on --p 4; every --p is
        a prime and bockstein's level --i is at least 1."""
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert not out and f"argument {flag}: {message}" in err

    @pytest.mark.parametrize("p", [4, 1])
    def test_fibre_rejects_non_prime(self, capsys, tmp_path, p):
        mod = tmp_path / "triv.json"
        mod.write_text(json.dumps({
            "base": "Fp", "p": p, "generators": 1, "relations": [],
            "action": {"1": [[1]]}}))
        code, out, err = run(capsys, "--json", "fibre", "--group", "c2",
                             "--module", str(mod))
        assert code == 2
        assert not out and "not prime" in err

    def test_thick_count_is_capped(self, capsys, monkeypatch):
        """The ideal count closes all 2^(p-1) - 1 seeds; it ran uncapped, and
        p = 23 would take about an hour."""
        monkeypatch.setenv("COHOMKIT_SIZE_CAP", "32")
        code, out, err = run(capsys, "thick", "--p", "7", "--seed", "1")
        assert code == 2
        assert not out and "2^6 - 1 seeds, above the cap 32" in err

    def test_large_prime_is_decided_fast(self, capsys):
        """Primality was trial division up to sqrt p: minutes for an
        18-digit p before any work."""
        start = time.process_time()
        code, out, _ = run(capsys, "--json", "fiso", "--group", "c2",
                           "--p", "1000000000000000003")
        assert time.process_time() - start < 1
        assert code == 0
        assert json.loads(out)["notes"] == [
            "vacuous: p does not divide |G|; both sides vanish"]

    @pytest.mark.parametrize("argv, flag, message", [
        (["koszul", "--elements", "2,x"], "--elements",
         "must be comma-separated integers, not '2,x'"),
        (["thick", "--p", "3", "--seed", "1;2"], "--seed",
         "must be comma-separated integers, not '1;2'"),
        (["ring", "--group", "c2", "--coeff", "Z/1", "--max-deg", "2"],
         "--coeff", "must be \"Z\", \"Z/m\" or an integer m >= 2"),
    ], ids=["koszul", "thick", "ring"])
    def test_parser_types_name_the_argument(self, capsys, argv, flag,
                                            message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert not out and f"argument {flag}: {message}" in err

    def test_bad_coeff(self, capsys):
        code, _, _ = run(capsys, "cohomology", "--group", "c2",
                         "--coeff", "Z/1", "--deg", "2")
        assert code == 2

    def test_failed_self_check_exits_3(self, capsys, monkeypatch, tmp_path):
        """A corrupted matvec makes the sparse solve's A x = b check fail;
        that is a bug signal, not a usage error."""
        good = SparseFactorization.matvec

        def corrupt(self, x, m=0):
            out = good(self, x, m)
            out[0] += 1
            return out

        monkeypatch.setattr(SparseFactorization, "matvec", corrupt)
        mod = tmp_path / "free.json"
        mod.write_text(json.dumps({
            "base": "Fp", "p": 2, "generators": 2, "relations": [],
            "action": {"1": [[0, 1], [1, 0]]}}))
        code, _, err = run(capsys, "fibre", "--group", "c2",
                           "--module", str(mod))
        assert code == 3
        assert err.startswith("internal error:")

    @pytest.mark.parametrize("exc", [InternalCheckFailed, NoPreimageFound,
                                     NoIsomorphismFound])
    def test_bug_signals_exit_3(self, capsys, monkeypatch, exc):
        def fail(G):
            raise exc("forced")

        monkeypatch.setattr(cli, "dualising_check", fail)
        code, _, err = run(capsys, "dualising", "--group", "c2")
        assert code == 3
        assert "internal error: forced" in err
