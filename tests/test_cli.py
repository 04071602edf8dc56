import ast
import io
import json
from pathlib import Path

import pytest

from futakizero.cli import main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def usage_exit(argv):
    """Exit status of a command that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(argv, out=io.StringIO())
    return exc.value.code


class TestVerify:
    def test_single_case_full_cone(self):
        code, out = run_cli(["verify", "2.24"])
        assert code == 0
        assert "case=2.24 verdict=full_cone fixed_dim=2 certificate=sigma+tau" in out

    def test_unknown_family_is_usage_error(self, capsys):
        code, _ = run_cli(["verify", "no-such-family"])
        assert code == 2
        assert "unknown family" in capsys.readouterr().err

    def test_unknown_case_id_exits_two(self, capsys):
        assert run_cli(["verify", "9.99"]) == (2, "")
        assert capsys.readouterr().err == "catalog error: unknown family or case id '9.99'\n"

    def test_exceptional_case_dimension(self):
        code, out = run_cli(["verify", "3.19"])
        assert code == 0
        assert "verdict=subcone fixed_dim=2" in out

    def test_family_selector_picks_both_members(self):
        code, out = run_cli(["verify", "3.10"])
        assert code == 0
        assert "case=3.10-a0" in out and "case=3.10-a" in out

    def test_all_records_verify(self):
        code, out = run_cli(["verify", "--all"])
        assert code == 0
        assert "34 case records, 0 mismatches" in out

    def test_all_records_work_counts(self, monkeypatch):
        # one elimination per span question, no build for a certified empty
        # grid point: 2 scans' first cells and 4 anticanonical checks
        from futakizero import polyring, ratlinalg, symmetry, toric
        counts = {"rref": 0, "in_span": 0, "build": 0, "triangulation": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ratlinalg, "rref", counted("rref", ratlinalg.rref))
        in_span = counted("in_span", polyring.in_span)
        for module in (polyring, symmetry):
            monkeypatch.setattr(module, "in_span", in_span)
        monkeypatch.setattr(toric.ToricFamily, "build",
                            counted("build", toric.ToricFamily.build))
        # the integrals of a polytope are computed once: 6 numeric polytopes
        # and 2 symbolic cells, each cell's numerators checked against one
        # read of its first polytope's integrals
        monkeypatch.setattr(toric, "_solid_route_triangulation",
                            counted("triangulation", toric._solid_route_triangulation))
        # each (locus line, family) pair is parsed once, though the catalog
        # check and the scans ask for 8
        polyring._equations.cache_clear()
        assert main(["verify", "--all"], out=io.StringIO()) == 0
        counts["equations"] = polyring._equations.cache_info().misses
        assert counts == {"rref": 196, "in_span": 81, "build": 6, "triangulation": 8,
                          "equations": 5}

    @pytest.mark.parametrize("argv,built", [
        (["verify", "2.20"], 1), (["report", "3.10-a"], 1), (["verify", "3.10"], 2),
        (["verify", "--all"], 34), (["report"], 34), (["catalog", "validate"], 34)])
    def test_records_built_per_command(self, monkeypatch, argv, built):
        # a command naming a case builds only the records it selects
        from futakizero import catalog
        real = catalog._build_record
        ids = []

        def counted(case_id, *args):
            ids.append(case_id)
            return real(case_id, *args)

        monkeypatch.setattr(catalog, "_build_record", counted)
        assert main(argv, out=io.StringIO()) == 0
        assert len(ids) == built

    def test_json_lines_stream(self):
        code, out = run_cli(["verify", "2.24", "--format", "json-lines"])
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert list(row)[:4] == ["case", "verdict", "fixed_dim", "certificate"]
        assert row["case"] == "2.24"
        assert row["consistent"] is True

    def test_json_lines_mismatch_stays_json(self, tmp_path):
        # a MISMATCH text line used to follow the object of a mismatched record
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        case = text.index('[case "3.9"]')
        path = tmp_path / "mismatch.cat"
        path.write_text(text[:case] + text[case:].replace(
            "expected = subcone(2)", "expected = subcone(1)", 1))
        code, out = run_cli(["--catalog", str(path), "verify", "--all", "--format", "json-lines"])
        assert code == 1
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 34 and all(list(row)[-1] == "detail" for row in rows)
        assert [row["case"] for row in rows if not row["consistent"]] == ["3.9"]

    def test_mismatch_exits_one(self, tmp_path, catalog):
        from futakizero.catalog import default_catalog_text
        broken = default_catalog_text().replace(
            'expected = subcone(2)\naut = C* x PGL2, plus an involution\n'
            'ambient = x0 x1 x2 x3 x4\nvariety = x0^2 + x1*x2 + x3*x4\n'
            'center = ideal(x0, x1, x2, x4)',
            'expected = subcone(1)\naut = C* x PGL2, plus an involution\n'
            'ambient = x0 x1 x2 x3 x4\nvariety = x0^2 + x1*x2 + x3*x4\n'
            'center = ideal(x0, x1, x2, x4)', 1)
        assert broken != default_catalog_text()
        path = tmp_path / "broken.cat"
        path.write_text(broken)
        code, out = run_cli(["--catalog", str(path), "verify", "3.19"])
        assert code == 1
        assert "MISMATCH" in out

    @pytest.mark.parametrize("case_id,old,new,mismatch", [
        # the identity class action fixes every class
        ("4.2", "classes (1 2 4 3)", "classes (1 2 3 4)",
         "expected=subcone(3) computed=full_cone"),
        # -K leaves the computed family span{c1, S + S'}, which the line
        # states: tag and dimension alone match the expected ones
        ("3.9", "anticanonical = 1, 0, 0", "anticanonical = 0, 1, 0",
         "expected=subcone(2) computed=subcone(2) anticanonical_in_fixed=false")],
        ids=["4.2-identity-classes", "3.9-anticanonical-outside"])
    def test_abstract_record_verdict_is_computed(self, tmp_path, case_id, old, new,
                                                  mismatch):
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        assert text.count(old) == 1
        path = tmp_path / "abstract.cat"
        path.write_text(text.replace(old, new))
        code, out = run_cli(["--catalog", str(path), "verify", case_id])
        assert code == 1
        assert f"MISMATCH case={case_id} {mismatch}\n" in out

    @pytest.mark.parametrize("argv", [["verify", "--all"], ["report"], ["verify", "2.24"]],
                             ids=["verify-all", "report", "verify-2.24"])
    def test_closed_stdout_exits_quietly(self, argv):
        # each used to print internal error: BrokenPipeError and exit 4
        import os
        import subprocess
        import sys
        from futakizero.cli import EXIT_PIPE
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("FUTAKIZERO_CATALOG", None)
        proc = subprocess.Popen([sys.executable, "-m", "futakizero", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()         # before the interpreter has imported the package
        err = proc.stderr.read()
        assert (proc.wait(), err) == (EXIT_PIPE, b"")

    def test_internal_error_exits_four(self, monkeypatch, capsys):
        # exit 1 is left to verdict mismatches
        from futakizero import cli

        def broken(record):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "evaluate_record", broken)
        assert run_cli(["verify", "2.24"]) == (4, "")
        assert capsys.readouterr().err == "internal error: RuntimeError: boom second line\n"

    def test_mismatch_line_renders_the_computed_verdict(self, tmp_path):
        path = tmp_path / "mismatch.cat"
        path.write_text('version = 1\n[case "3.9"]\nkind = semisimple_full\ntheorem = 2\n'
                        'expected = subcone(2)\n')
        code, out = run_cli(["--catalog", str(path), "verify", "3.9"])
        assert code == 1
        assert out.splitlines()[1] == "MISMATCH case=3.9 expected=subcone(2) computed=full_cone"

    def test_bad_catalog_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cat"
        path.write_text("version = 1\n[case \"x\"]\nnot a pair\n")
        code, _ = run_cli(["--catalog", str(path), "verify", "--all"])
        assert code == 2

    @pytest.mark.parametrize("content", [None, b"version = 1\n\xff\n"],
                             ids=["missing", "not-utf8"])
    def test_unreadable_catalog_exits_two(self, tmp_path, capsys, content):
        # each used to end in a traceback, exit 1
        path = tmp_path / "unreadable.cat"
        if content is not None:
            path.write_bytes(content)
        assert run_cli(["--catalog", str(path), "verify", "--all"]) == (2, "")
        assert capsys.readouterr().err.startswith(f"catalog error: cannot read {path}: ")


class TestToric:
    def test_futaki_symmetric_hexagon(self):
        code, out = run_cli(["toric", "futaki", "--family", "s6",
                             "--params", "a=1,b=1,c=1"])
        assert code == 0
        assert out.strip() == "(0, 0)"

    def test_futaki_rectangle(self):
        code, out = run_cli(["toric", "futaki", "--family", "p1xp1",
                             "--params", "a=2,b=5"])
        assert code == 0
        assert out.strip() == "(0, 0)"

    def test_out_of_region_exit_three(self, capsys):
        code, _ = run_cli(["toric", "futaki", "--family", "s6",
                           "--params", "a=2,b=2,c=2"])
        assert code == 3
        assert "region" in capsys.readouterr().err

    def test_out_of_region_names_the_region_once(self, capsys):
        assert run_cli(["toric", "futaki", "--family", "s6", "--params", "a=2,b=2,c=2"]) == \
            (3, "")
        assert capsys.readouterr().err == \
            "out of the Kähler region: s6: lower-dimensional input\n"

    @pytest.mark.parametrize("params,message", [
        ("a=abc", "bad parameter value 'abc'"),
        ("a=1/0", "bad parameter value '1/0'"),
        ("a=1, a=2", "repeated parameter 'a'"),
        ("", "bad parameter assignment ''"),
        ("=1", "bad parameter assignment '=1'"),
        ("a=1,=2", "bad parameter assignment '=2'"),
        ("a=1, h3", "bad parameter assignment ' h3'")])
    def test_bad_params_exit_three(self, capsys, params, message):
        # an empty name used to read "missing parameters ['a']" or "unknown parameters ['']"
        code, out = run_cli(["toric", "futaki", "--family", "p1", "--params", params])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_scan_output_shape(self):
        code, out = run_cli(["toric", "scan", "--family", "s6", "--step", "1/2"])
        assert code == 0
        lines = out.splitlines()
        grid = [l for l in lines if " -> " in l]
        assert grid and all(l.endswith(("zero", "nonzero")) for l in grid)
        assert any(l.startswith("locus: c = 3 - a - b :: confirmed") for l in lines)
        assert any(l.startswith("locus: a = b = c :: confirmed") for l in lines)
        assert any(l.startswith("locus: coverage :: exact") for l in lines)

    def test_golden_scans_replay_byte_identical(self, monkeypatch):
        # tests/goldens/capture_scan.py wrote these: every family at the
        # default step, with the catalog's loci
        monkeypatch.delenv("FUTAKIZERO_CATALOG", raising=False)
        golden = Path(__file__).resolve().parent / "goldens" / "toric_scan.json"
        commands = json.loads(golden.read_text("utf-8"))["commands"]
        assert len(commands) == 8
        differing = [command for command, want in commands.items()
                     if run_cli(command.split()) != (want["code"], want["stdout"])]
        assert differing == []

    @pytest.mark.parametrize("step", ["2", "5"])
    def test_scan_without_region_point_exits_three(self, capsys, step):
        # both catalog loci used to read "confirmed (0 grid points)", exit 0
        assert run_cli(["toric", "scan", "--family", "s6", "--step", step]) == (3, "")
        assert capsys.readouterr().err == \
            f"error: no grid point of s6 at step {step} lies in the Kähler region\n"

    def test_locus_without_grid_point_is_untested(self):
        # used to read "confirmed (0 grid points)" and classify locus_and_more
        code, out = run_cli(["toric", "scan", "--family", "s6", "--loci", "a = 100"])
        assert code == 0
        assert "locus: a = 100 :: untested (0 grid points)\n" in out
        assert out.endswith("locus: classification :: off_locus\n")

    def test_bad_step_is_usage_error(self, capsys):
        for step in ("abc", "1/0"):
            assert usage_exit(["toric", "scan", "--family", "s6", "--step", step]) == 2
            assert "expected a rational number" in capsys.readouterr().err

    def test_zero_step_exits_three(self, capsys):
        code, _ = run_cli(["toric", "scan", "--family", "s6", "--step", "0"])
        assert code == 3
        assert "grid step must be positive" in capsys.readouterr().err

    def test_scan_classification_for_two_line_blowup(self):
        code, out = run_cli(["toric", "scan", "--family", "bl2lines-p3",
                             "--step", "1/2"])
        assert code == 0
        assert "locus: a = b :: confirmed" in out
        assert "locus: classification ::" in out


    def test_oversized_grid_exits_three(self, capsys):
        # rejected before any grid list is built: the grid has 2.7e19 points
        code, out = run_cli(["toric", "scan", "--family", "s6", "--step", "1/1000000"])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == (
            "error: a grid of 26999973000008999999 points at step 1/1000000 exceeds "
            "the bound 1000000\n")

    @staticmethod
    def scan_with_catalog(tmp_path, old, new):
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        assert old in text
        path = tmp_path / "edited.cat"
        path.write_text(text.replace(old, new, 1))
        return run_cli(["--catalog", str(path), "toric", "scan", "--family", "s6",
                        "--step", "1/2"])

    @pytest.mark.parametrize("old,new", [
        ("expected = full_cone", "expected = subcone(x)"),      # 9.1
        ("adjoint = tau : matrix(-1)", "adjoint = tau : matrix(-1;)"),     # 3.9
        ("kind = semisimple_full", "kind = unknown-kind")])
    def test_scan_reads_loci_past_unrelated_broken_records(self, tmp_path, old, new):
        # the scan reads only locus, toric_family and factor values; each of
        # these edits used to stop it with exit 2
        assert self.scan_with_catalog(tmp_path, old, new) == run_cli(
            ["toric", "scan", "--family", "s6", "--step", "1/2"])

    @pytest.mark.parametrize("old,new,message", [
        ("toric s6 :", "toric s6 : colour red :",
         "record 5.3: bad factor clause 'colour red'"),
        ("version = 1", "version = x", "line 6: bad version value 'x'"),
        ('[case "9.1"]', '[case "2.20"]', "duplicate id '2.20'")])
    def test_scan_stops_on_what_it_reads(self, tmp_path, capsys, old, new, message):
        # a malformed factor of the record with the loci, or a structure error
        assert self.scan_with_catalog(tmp_path, old, new) == (2, "")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("locus", [
        "a =", "a = (b", "a = 1/0", "a = 1//2", "a/b = 1", "a = b^100000000",
        # each used to end in a RecursionError, exit 1
        pytest.param("(" * 200 + "a" + ")" * 200 + " = b", id="deep-parentheses"),
        pytest.param("-" * 1000 + "a = b", id="deep-signs")])
    def test_bad_locus_exits_three(self, capsys, locus):
        code, _ = run_cli(["toric", "scan", "--family", "p1xp1", "--step", "1",
                           "--loci", locus])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: bad locus equation {locus!r}")


class TestReport:
    def test_exception_list_footer(self):
        code, out = run_cli(["report"])
        assert code == 0
        assert ("theorem-1 exception list (computed): "
                "3.9 3.13 3.19 3.20 4.2 4.4 4.7 5.3") in out
        assert "audit row 3.25: adjoint=unsolvable;toric=locus_and_more" in out

    def test_json_lines_rows(self):
        code, out = run_cli(["report", "--format", "json-lines"])
        assert code == 0
        lines = out.splitlines()
        rows = [json.loads(l) for l in lines]
        assert [r["case"] for r in rows[:-1]] == [
            "2.20", "2.21", "2.22", "2.24", "2.27", "2.29", "2.32", "2.34",
            "3.5", "3.8", "3.9", "3.10-a0", "3.10-a", "3.12", "3.13", "3.15",
            "3.17", "3.19", "3.20", "3.25", "3.27", "4.2", "4.3", "4.4", "4.6",
            "4.7", "4.13", "5.1", "5.3", "6.1", "7.1", "8.1", "9.1", "10.1"]
        footer = rows[-1]
        assert footer["exception_families"] == [
            "3.9", "3.13", "3.19", "3.20", "4.2", "4.4", "4.7", "5.3"]

    def test_single_family_report(self):
        code, out = run_cli(["report", "2.24"])
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("2.24")]
        assert len(rows) == 1

    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    @pytest.mark.parametrize("case_id", ["x.19", "7"])
    def test_family_that_is_not_numeric(self, tmp_path, case_id, fmt):
        # report used to print the rows, then end in exit 4 with
        # "internal error: ValueError: invalid literal for int()"
        from futakizero.catalog import default_catalog_text
        old = '[case "3.19"]\nkind = polynomial\ntheorem = 2\nexpected = subcone(2)\n'
        new = f'[case "{case_id}"]\nkind = polynomial\ntheorem = 1\nexpected = full_cone\n'
        path = tmp_path / "family.cat"
        path.write_text(default_catalog_text().replace(old, new, 1))
        numeric = ["3.9", "3.13", "3.20", "4.2", "4.4", "4.7", "5.3"]
        for argv, exceptions in ((["report"], numeric + [case_id]),
                                 (["report", case_id], [case_id])):
            code, out = run_cli(["--catalog", str(path), *argv, "--format", fmt])
            assert code == 1
            lines = out.splitlines()
            if fmt == "json-lines":
                rows = [json.loads(line) for line in lines]
                assert [r["match"] for r in rows if r.get("case") == case_id] == ["MISMATCH"]
                assert rows[-1]["exception_families"] == exceptions
            else:
                assert [l.split()[-1] for l in lines if l.split()[0] == case_id] == ["MISMATCH"]
                assert f"theorem-1 exception list (computed): {' '.join(exceptions)}" in lines


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        assert run_cli(["report"]) == run_cli(["report"])

    def test_verify_deterministic(self):
        assert run_cli(["verify", "--all"]) == run_cli(["verify", "--all"])

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_must_be_positive(self, capsys, command, jobs):
        # --jobs is gone (records were always evaluated serially): any value,
        # positive or not, is a usage error
        argv = [command, "--all"] if command == "verify" else [command]
        for value in (jobs, "2"):
            assert usage_exit(argv + [f"--jobs={value}"]) == 2
            assert f"unrecognized arguments: --jobs={value}" in capsys.readouterr().err


class TestCatalogCommand:
    def test_validate_ok(self):
        code, out = run_cli(["catalog", "validate"])
        assert code == 0
        assert out.strip() == "catalog OK: 34 records, 0 findings"

    def test_env_var_overrides_default(self, tmp_path, monkeypatch):
        path = tmp_path / "env.cat"
        path.write_text("version = 1\n")
        monkeypatch.setenv("FUTAKIZERO_CATALOG", str(path))
        code, _ = run_cli(["catalog", "validate"])
        assert code == 2

    def test_validate_reports_findings(self, tmp_path):
        from futakizero.catalog import default_catalog_text
        broken = default_catalog_text().replace(
            "weights(1, -1, 1, -1, 0)", "weights(1, -1, 0, 0, 0)")
        path = tmp_path / "broken.cat"
        path.write_text(broken)
        code, out = run_cli(["--catalog", str(path), "catalog", "validate"])
        assert code == 2
        assert "finding:" in out

    @pytest.mark.parametrize("params,varieties,denominator", [
        ("", "x*t + a*y*z\nvariety = a*x*t + 2*y*z", "-2 + a^2"),
        ("\nparam = b", "x*t + a*y*z\nvariety = b*x*t + y*z", "-1 + a*b")],
        ids=["irrational", "two-parameter"])
    def test_span_denominator_without_listed_roots_exits_two(self, tmp_path, params,
                                                            varieties, denominator):
        # varsigma swaps x*t and y*z; its span solve divides by a polynomial
        # with zeros off the excluded values of a: irrational ones, or a curve
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        broken = text.replace("param = a excludes -1, 0, 1\n",
                              f"param = a excludes -1, 0, 1{params}\n", 1).replace(
            "variety = w^2 + x*y + z*t + a*(x*t + y*z)\n", f"variety = {varieties}\n", 1)
        assert broken.count("variety = x*t + a*y*z\n") == 1
        path = tmp_path / "broken.cat"
        path.write_text(broken)
        code, out = run_cli(["--catalog", str(path), "catalog", "validate"])
        assert code == 2
        assert out.splitlines() == [
            f"finding: 3.10-a: symmetry varsigma: span-solve denominator {denominator} "
            f"vanishes off the excluded values: {denominator} = 0",
            "catalog INVALID: 34 records, 1 findings"]

    @pytest.mark.parametrize("argv", [["catalog", "validate"], ["verify", "3.25"],
                                      ["report", "3.25"]])
    def test_bad_locus_exits_two(self, tmp_path, capsys, argv):
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        broken = text.replace("locus = a = b\n", "locus = a = (b\n", 1)
        assert broken != text
        path = tmp_path / "broken.cat"
        path.write_text(broken)
        code, out = run_cli(["--catalog", str(path)] + argv)
        assert code == 2
        assert "3.25: bad locus equation 'a = (b' on bl2lines-p3" in out + capsys.readouterr().err

    @pytest.mark.parametrize("old,new,message", [
        ("version = 1", "version = x", "line 1: bad version value 'x'"),
        ("expected = full_cone", "expected = subcone(x)",
         "line 5: record 9.1: bad expected verdict 'subcone(x)'"),
        ("kind = semisimple_full", "kind = semisimple_full\nparam = t excludes x",
         "line 4: record 9.1: bad excluded value in 't excludes x'"),
        ("kind = semisimple_full", "kind = semisimple_full\nparam = t excludes 1, 1/0",
         "line 4: record 9.1: bad excluded value in 't excludes 1, 1/0'")])
    def test_bad_version_or_subcone_exits_two(self, tmp_path, capsys, old, new, message):
        text = ('version = 1\n[case "9.1"]\nkind = semisimple_full\ntheorem = 1\n'
                'expected = full_cone\n').replace(old, new)
        path = tmp_path / "bad.cat"
        path.write_text(text)
        code, _ = run_cli(["--catalog", str(path), "catalog", "validate"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,message", [
        ("center = stage 2 : ideal(x1, x2", "center = stage z : ideal(x1, x2",
         "bad center stage 'z'"),
        ("torus = weights(3, 5, 7", "torus = weights(3, x, 7", "bad torus weight 'x'"),
        ("finite = tau : order 2 : factors = (1) : map(x3",
         "finite = tau : order z : factors = (1) : map(x3", "bad finite order 'z'"),
        ("finite = tau : order 2 : factors = (1) : map(x3",
         "finite = tau : order 2 : factors = (l) : map(x3", "bad factors entry 'l'"),
        ("factor = s6 : families 3, 2 :", "factor = s6 : families 3, z :",
         "bad families entry 'z'"),
        ("factor = p1 : full_cone : rank 1", "factor = p1 : full_cone : rank l",
         "bad factor rank 'l'"),
        ("adjoint = tau : matrix(-1)", "adjoint = tau : matrix(-l)", "bad matrix entry '-l'"),
        ("variety = x4*x5 - x0*x2 + x1^2\n", "variety = x4*x5 - x0*x2 + x1^200000000\n",
         "exponent 200000000 exceeds the bound 64"),
        # each used to end in a RecursionError, exit 1
        pytest.param("variety = x4*x5 - x0*x2 + x1^2\n",
                     "variety = x4*x5 - x0*x2 + " + "(" * 200 + "x1^2" + ")" * 200 + "\n",
                     "record 2.20: nesting deeper than 32", id="deep-parentheses"),
        pytest.param("variety = x4*x5 - x0*x2 + x1^2\n",
                     "variety = x4*x5 - x0*x2 + " + "-" * 1000 + "x1^2\n",
                     "record 2.20: nesting deeper than 32", id="deep-signs")])
    def test_bad_number_in_shipped_catalog_exits_two(self, tmp_path, capsys, old, new,
                                                     message):
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        lineno = text[:text.index(old)].count("\n") + 1
        path = tmp_path / "broken.cat"
        path.write_text(text.replace(old, new, 1))
        code, _ = run_cli(["--catalog", str(path), "catalog", "validate"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"line {lineno}: record " in err and message in err

    @pytest.mark.parametrize("edits,argv,at,message", [
        ([("ambient = z0 z1 z2 z3\n", "")], ["verify", "2.22"],
         "center = curve(r*s^3", "record 2.22: center without an ambient"),
        ([("ambient = z0 z1 z2 z3\n", ""), ("center = curve(r*s^3, r^4, s^4, s*r^3)\n", ""),
          ("torus = weights(1, 4, 0, 3)\n", "")], ["verify", "2.22"],
         "finite = tau : order 2 : factors = (1) : map(z3",
         "record 2.22: finite symmetry without an ambient"),
        ([("adjoint = tau : matrix(-1)", "adjoint = tau : matrix(-1;)")],
         ["catalog", "validate"], "adjoint = tau : matrix(-1;)",
         "record 3.9: adjoint tau: ragged rows"),
        ([("adjoint = tau : matrix(-1)", "adjoint = tau : matrix((-1)")],
         ["catalog", "validate"], "adjoint = tau : matrix((-1)",
         "record 3.9: unbalanced parentheses in 'matrix((-1)'"),
        ([("anticanonical_in_families yes", "anticanonical_in_families maybe")],
         ["verify", "5.3"], "factor = s6 : families 3, 2",
         "record 5.3: expected yes/no, got 'maybe'"),
        ],
        ids=["no-ambient-center", "no-ambient-finite", "ragged-adjoint", "unbalanced-adjoint",
             "bad-bool"])
    def test_malformed_shipped_record_exits_two(self, tmp_path, capsys, edits, argv, at,
                                                message):
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new, 1)
        lineno = text[:text.index(at)].count("\n") + 1
        path = tmp_path / "broken.cat"
        path.write_text(text)
        code, _ = run_cli(["--catalog", str(path), *argv])
        assert code == 2
        assert f"line {lineno}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        ("toric_family = p1xp2\n", "toric_family = p1xp2\nanticanonical_params = a=2\n"),
        ("toric_family = p1xp2\n",
         "toric_family = p1xp2\nanticanonical_params = a=2, h=3, q=1\n"),
        ("toric_family = p1xp2\n", "anticanonical_params = a=2, h=3\n"),
        ("toric_family = p1xp2\n", "toric_family = p1xp2\nanticanonical_params = a=2, h=3\n")],
        ids=["missing-name", "extra-name", "no-family", "derived-point"])
    def test_anticanonical_names_exit_two(self, tmp_path, capsys, old, new):
        # each toric family derives its anticanonical point from its fan, so
        # a catalog that still names one is stopped by the key itself
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        assert old in text
        text = text.replace(old, new, 1)
        lineno = text[:text.index("anticanonical_params")].count("\n") + 1
        path = tmp_path / "anticanonical.cat"
        path.write_text(text)
        for argv in (["catalog", "validate"], ["verify", "2.34"], ["verify", "--all"],
                     ["report"]):
            assert run_cli(["--catalog", str(path), *argv]) == (2, "")
            assert capsys.readouterr().err == (
                f"catalog error: line {lineno}: record 2.34: "
                "unknown key 'anticanonical_params'\n")

    @pytest.mark.parametrize("case_id,old,new,message", [
        # each used to pass catalog validate, and verify exited 1:
        # MISMATCH case=3.9 expected=subcone(0) computed=subcone(2)
        ("3.9", "expected = subcone(2)", "expected = subcone(0)",
         "line {}: record 3.9: subcone dimension 0 is below 1"),
        # a class image listed twice
        ("3.9", "classes (1 3 2)", "classes (1 1 2)",
         "line {}: record 3.9: adjoint tau: classes (1, 1, 2) is not a permutation"),
        # MISMATCH ... computed=subcone(31), on a threefold of Picard rank 5
        ("5.3", "families 3, 2", "families 30, 2",
         "line {}: record 5.3: families entry 30 outside 1..3"),
        # both commands exited 0
        ("5.3", "rank 4", "rank -4", "line {}: record 5.3: factor rank -4 is below 1"),
        ("3.9", "expected = subcone(2)", "expected = subcone(3)",
         "3.9: subcone(3) is not below the Picard rank 3"),
        ("3.9", "classes (1 3 2)", "classes (1 3 2 4)",
         "3.9: adjoint tau: classes of 4 labels for 3 h11 labels"),
        ("2.20", "h11 = h, E", "h11 = h", "2.20: 1 h11 labels for the Picard rank 2"),
        ("2.34", "toric_family = p1xp2", "toric_family = p1cubed",
         "2.34: toric family p1cubed has Picard rank 3, not 2"),
        ("5.3", "full_cone : rank 1", "full_cone : rank 2",
         "5.3: factor ranks sum to 6, not the Picard rank 5")],
        ids=["subcone-0", "classes-repeated", "families-above-rank", "rank-negative",
             "subcone-at-rank", "classes-length", "h11-labels", "toric-family-rank",
             "factor-ranks"])
    def test_dimension_out_of_range_exits_two(self, tmp_path, capsys, case_id, old, new,
                                              message):
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        case = text.index(f'[case "{case_id}"]')
        at = text.index(old, case)
        assert at < text.index("[case", case + 1)
        text = text[:at] + new + text[at + len(old):]
        message = message.format(text[:at].count("\n") + 1)
        path = tmp_path / "dimension.cat"
        path.write_text(text)
        for argv in (["catalog", "validate"], ["verify", case_id]):
            code, out = run_cli(["--catalog", str(path), *argv])
            assert code == 2
            assert f"{message}\n" in out + capsys.readouterr().err

    def test_single_record_command_skips_other_records_values(self, tmp_path, capsys):
        # verify 2.20 reads no value of 3.9; the commands that build every
        # record still stop on it
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        old = "adjoint = tau : matrix(-1)"
        lineno = text[:text.index(old)].count("\n") + 1
        path = tmp_path / "ragged.cat"
        path.write_text(text.replace(old, "adjoint = tau : matrix(-1;)", 1))
        shipped = run_cli(["verify", "2.20"])
        assert shipped[0] == 0
        assert run_cli(["--catalog", str(path), "verify", "2.20"]) == shipped
        assert capsys.readouterr().err == ""
        for argv in (["catalog", "validate"], ["verify", "--all"], ["report"]):
            assert run_cli(["--catalog", str(path), *argv]) == (2, "")
            assert capsys.readouterr().err == \
                f"catalog error: line {lineno}: record 3.9: adjoint tau: ragged rows\n"

    @pytest.mark.parametrize("old,new,message", [
        ('[case "3.9"]', '[case "2.20"]', "duplicate id '2.20'"),
        ('[case "2.20"]', 'kind = polynomial\n[case "2.20"]', "key 'kind' outside any record"),
        ("version = 1\n", "", "missing version line (empty catalog?)")],
        ids=["duplicate-header", "key-outside-record", "no-version"])
    def test_file_structure_stops_single_record_command(self, tmp_path, capsys, old, new,
                                                        message):
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        assert old in text
        path = tmp_path / "structure.cat"
        path.write_text(text.replace(old, new, 1))
        assert run_cli(["--catalog", str(path), "verify", "2.20"]) == (2, "")
        assert message in capsys.readouterr().err

    def test_theorem_partition_stops_verify_and_report(self, tmp_path, capsys):
        # a partition error used to surface only in catalog validate: verify
        # and report exited 1 with a MISMATCH on 2.27
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        case = text.index('[case "2.27"]')
        partition = "2.27: theorem 1 record expects a subcone"
        # subcone(2) adds a second finding: each gets its own prefixed line
        for expected, findings in (
                ("subcone(1)", [partition]),
                ("subcone(2)", ["2.27: subcone(2) is not below the Picard rank 2", partition])):
            path = tmp_path / "partition.cat"
            path.write_text(text[:case] + text[case:].replace(
                "expected = full_cone", f"expected = {expected}", 1))
            for argv in (["verify", "2.27"], ["verify", "--all"], ["report"]):
                assert run_cli(["--catalog", str(path), *argv]) == (2, "")
                assert capsys.readouterr().err == "".join(
                    f"catalog error: {f}\n" for f in findings)
            code, out = run_cli(["--catalog", str(path), "catalog", "validate"])
            assert code == 2
            assert "".join(f"finding: {f}\n" for f in findings) in out

    @pytest.mark.parametrize("case_id,old,new,message", [
        # verify 3.25 exited 4: internal error: ToricError: unknown toric family ''
        ("3.25", "toric_family = bl2lines-p3\n", "",
         "line {header}: record 3.25: missing key 'toric_family'"),
        # each of these exited 1: MISMATCH case=3.25 expected=see_toric
        # computed=inconclusive
        ("3.25", "expected_toric = locus_and_more\n", "",
         "line {header}: record 3.25: missing key 'expected_toric'"),
        ("3.25", "expected_toric = locus_and_more", "expected_toric = banana",
         "line {at}: record 3.25: bad expected_toric 'banana': not one of identically_zero, "
         "on_locus, locus_and_more, off_locus"),
        ("3.25", "expected_adjoint = unsolvable\n", "",
         "line {header}: record 3.25: missing key 'expected_adjoint'"),
        ("3.25", "expected_adjoint = unsolvable", "expected_adjoint = banana",
         "line {at}: record 3.25: bad expected_adjoint 'banana': not one of solvable, "
         "partial, unsolvable"),
        # exited 1: MISMATCH case=2.20 expected=see_toric computed=full_cone
        ("2.20", "expected = full_cone", "expected = see_toric",
         "2.20: expected = see_toric exactly when kind = toric-crosscheck"),
        # exited 0: nothing read the expected verdict of a cross-check
        ("3.25", "expected = see_toric", "expected = full_cone",
         "3.25: expected = see_toric exactly when kind = toric-crosscheck")],
        ids=["no-family", "no-expected-toric", "bad-expected-toric", "no-expected-adjoint",
             "bad-expected-adjoint", "see-toric-off-crosscheck", "crosscheck-not-see-toric"])
    def test_malformed_crosscheck_exits_two(self, tmp_path, capsys, case_id, old, new,
                                            message):
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        case = text.index(f'[case "{case_id}"]')
        at = text.index(old, case)
        assert at < text.index("[case", case + 1)
        text = text[:at] + new + text[at + len(old):]
        message = message.format(header=text[:case].count("\n") + 1,
                                 at=text[:at].count("\n") + 1)
        path = tmp_path / "crosscheck.cat"
        path.write_text(text)
        for argv in (["catalog", "validate"], ["verify", case_id], ["verify", "--all"]):
            code, out = run_cli(["--catalog", str(path), *argv])
            assert code == 2, argv
            assert f"{message}\n" in out + capsys.readouterr().err, argv

    @pytest.mark.parametrize("case_id,old,new,message", [
        ("3.9", "anticanonical = 1, 0, 0\n", "anticanonical = 0, 1, 0\nanticanonical = 1, 0, 0\n",
         "repeated key 'anticanonical'"),
        ("2.21", "param = t excludes -1, 0, 1\n", "param = t\nparam = t excludes -1, 0, 1\n",
         "repeated parameter 't'"),
        ("2.34", "toric_family = p1xp2\n", "toric_family = p1xp2\ntoric_family = p1cubed\n",
         "repeated key 'toric_family'"),
        # the certificate used to read sigma+sigma, citing neither map alone
        ("2.24", "tau : order 2 : factors = (1 2) : map(x",
         "sigma : order 2 : factors = (1 2) : map(x",
         "repeated finite symmetry 'sigma'"),
        # a zero polynomial used to load with no finding: verify printed
        # full_cone with certificate=sigma+tau for the whole ambient space
        ("2.24", "variety = x*u^2 + y*v^2 + z*w^2", "variety = x*u^2 - x*u^2",
         "'x*u^2 - x*u^2' is the zero polynomial"),
        ("3.8", "center = ideal(y, z)", "center = ideal(y, z, y - y)",
         "'y - y' is the zero polynomial")],
        ids=["anticanonical", "param", "toric_family", "finite", "zero-variety",
             "zero-ideal"])
    @pytest.mark.parametrize("argv", [["catalog", "validate"], ["verify", "--all"]],
                             ids=["validate", "verify"])
    def test_repeated_key_or_parameter_exits_two(self, tmp_path, capsys, case_id, old, new,
                                                 message, argv):
        from futakizero.catalog import default_catalog_text
        text = default_catalog_text()
        case = text.index(f'[case "{case_id}"]')
        assert text.index(old, case) < text.index("[case", case + 1)
        text = text[:case] + text[case:].replace(old, new, 1)
        # the last line of the replacement is the one named
        lineno = text[:text.index(new, case) + len(new) - 1].count("\n") + 1
        path = tmp_path / "repeated.cat"
        path.write_text(text)
        code, _ = run_cli(["--catalog", str(path), *argv])
        assert code == 2
        assert f"line {lineno}: record {case_id}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line,key", [
        ("theorem =", "theorem"),
        ("anticanonical = 1, 1/0", "anticanonical")])
    def test_bad_scalar_value_names_its_line(self, tmp_path, capsys, line, key):
        text = ('version = 1\n[case "9.1"]\nkind = semisimple_full\ntheorem = 1\n'
                'expected = full_cone\n')
        if key == "theorem":
            text = text.replace("theorem = 1", line)
        else:
            text += line + "\n"
        path = tmp_path / "bad.cat"
        path.write_text(text)
        code, _ = run_cli(["--catalog", str(path), "catalog", "validate"])
        assert code == 2
        lineno = text.splitlines().index(line) + 1
        assert f"line {lineno}: record 9.1: bad {key} value" in capsys.readouterr().err


class TestStartup:
    """A command loads only what it uses: modules are counted, nothing is timed."""

    WATCHED = ("dataclasses", "inspect", "json", "futakizero.toric", "futakizero.cells",
               "futakizero.polyring", "futakizero.parampoly", "futakizero.symmetry",
               "futakizero.products", "futakizero.curves")

    # the source lines of every loaded futakizero module: what a fresh command
    # compiles when no bytecode cache is written
    SOURCE_LINES = ("sum(len(open(m.__file__, encoding='utf-8').read().splitlines()) "
                    "for n, m in list(sys.modules.items()) "
                    "if n.partition('.')[0] == 'futakizero' and getattr(m, '__file__', None))")

    def loaded(self, code, expression=None):
        """The WATCHED modules loaded after running ``code`` in a new
        interpreter, or the value of ``expression`` there."""
        import os
        import subprocess
        import sys
        expression = expression or f"sorted(m for m in {self.WATCHED!r} if m in sys.modules)"
        code += f"; import sys; print({expression})"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("FUTAKIZERO_CATALOG", None)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        return ast.literal_eval(out.strip())

    def run(self, argv, expression=None):
        return self.loaded("import io; from futakizero.cli import main; "
                           f"assert main({argv!r}, out=io.StringIO()) == 0", expression)

    def test_cli_import_loads_no_generated_code_or_toric_engine(self):
        assert self.loaded("import futakizero.cli") == []

    @pytest.mark.parametrize("case,watched", [
        ("2.24", "[]"),
        ("3.25", "['futakizero.cells', 'futakizero.toric']")])
    def test_verify_loads_toric_engine_only_for_toric_records(self, case, watched):
        toric = [m for m in self.run(["verify", case])
                 if m in ("futakizero.cells", "futakizero.toric")]
        assert str(toric) == watched

    @pytest.mark.parametrize("argv,modules", [
        (["verify", "6.1"], []),            # semisimple
        (["verify", "3.9"], []),            # abstract
        (["verify", "4.2"], []),
        # product: the anticanonical polytope only
        (["verify", "2.34"], ["products", "toric"]),
        (["verify", "2.24"], ["polyring", "symmetry"]),     # no parameter, no curve
        (["verify", "2.20"], ["curves", "polyring", "symmetry"]),   # curve centres
        (["verify", "3.13"], ["parampoly", "polyring", "symmetry"]),
        (["report", "2.24", "--format", "json-lines"], ["json", "polyring", "symmetry"]),
        (["verify", "--all"], ["cells", "curves", "parampoly", "polyring", "products",
                               "symmetry", "toric"]),
        (["catalog", "validate"], ["curves", "parampoly", "polyring", "products",
                                   "symmetry", "toric"]),
        # the loci come from the structure pass: no record is built
        (["toric", "scan", "--family", "s6"], ["cells", "parampoly", "polyring", "products",
                                               "toric"]),
    ], ids=lambda modules: "-".join(modules) or "none")
    def test_command_loads_only_the_engines_its_records_use(self, argv, modules):
        assert sorted(m.removeprefix("futakizero.") for m in self.run(argv)) == modules

    @pytest.mark.parametrize("code", [
        "import futakizero.cli",
        "import io; from futakizero.cli import main; main(['verify', '6.1'], out=io.StringIO())"],
        ids=["import", "verify-6.1"])
    def test_semisimple_verdict_loads_no_linear_algebra(self, code):
        assert self.loaded(code, "'futakizero.ratlinalg' in sys.modules") is False

    @pytest.mark.parametrize("argv,lines", [
        (["verify", "6.1"], 1365),
        (["verify", "3.9"], 1475),
        (["toric", "futaki", "--family", "s6", "--params", "a=1,b=1,c=1"], 2044),
        (["report", "2.24", "--format", "json-lines"], 2301),
        (["verify", "2.34"], 2341),
        (["verify", "2.20"], 2538),
        (["verify", "3.13"], 2820),
        (["toric", "scan", "--family", "s6"], 3819),
        (["catalog", "validate"], 3923),
        (["verify", "--all"], 4359),
    ], ids=["verify-6.1", "verify-3.9", "toric-futaki", "report-2.24-json-lines",
            "verify-2.34", "verify-2.20", "verify-3.13", "toric-scan", "catalog-validate",
            "verify-all"])
    def test_source_lines_each_command_compiles(self, argv, lines):
        # a deterministic counter: any edit of a module a command loads moves
        # its pin, and a change of a pin is recorded with the change
        assert self.run(argv, self.SOURCE_LINES) == lines
