"""Command-line interface: JSON payloads, exit codes, mutation control."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import replicaq.checks as checks
import replicaq.cli as cli
from replicaq.cli import SUITES, main
from replicaq.qseries import QSeries, TruncationError, j_oracle
from replicaq.grunsky import GrunskyTable
from replicaq.functions import HAUPTMODULN, parse_function_spec, replication_family

# the class hauptmoduln by payload short name, written out independently of the table
HAUPTMODULN_SPECS = {"j": "j", "2b": "eta:1^24/2^24+24", "3b": "eta:1^12/3^12+12",
                     "4c": "eta:1^8/4^8+8", "5b": "eta:1^6/5^6+6", "7b": "eta:1^4/7^4+4",
                     "13b": "eta:1^2/13^2+2"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


class TestCoeffs:
    def test_j_oracle_four_terms(self, capsys):
        code, payload, _ = run(capsys, "coeffs", "j", "--terms", "4")
        assert code == 0 and payload["status"] == "computed"
        assert payload["schema"] == 1
        assert payload["coefficients"] == [
            "196884", "21493760", "864299970", "20245856256"]

    def test_fiction_zero(self, capsys):
        code, payload, _ = run(capsys, "coeffs", "fiction:c=0", "--terms", "5")
        assert code == 0
        assert payload["coefficients"] == ["0"] * 5

    def test_dual_path_verified(self, capsys):
        code, payload, _ = run(capsys, "coeffs", "j", "--terms", "200",
                               "--method", "recurrence,oracle")
        assert code == 0 and payload["status"] == "verified"

    @pytest.mark.parametrize("spec", ["j", "eta:1^24/2^24+24", "fiction:c=-1",
                                      "fiction:c=0", "fiction:c=1"])
    def test_recurrence_family_is_sized_to_what_the_rules_read(self, capsys, monkeypatch,
                                                                spec):
        for terms in range(1, 81):
            code, payload, _ = run(capsys, "coeffs", spec, "--terms", str(terms),
                                   "--method", "recurrence,oracle")
            assert code == 0 and payload["status"] == "verified", terms
        # one order less and the rules read a coefficient the family does not know
        monkeypatch.setattr(cli, "replication_family",
                            lambda function, trunc: replication_family(function, trunc - 1))
        for terms in range(1, 81):
            with pytest.raises(TruncationError):
                cli._coeffs_by_method(parse_function_spec(spec), "recurrence", terms)

    @pytest.mark.parametrize("spec", HAUPTMODULN_SPECS.values())
    def test_hauptmodul_three_methods(self, capsys, spec):
        code, payload, _ = run(capsys, "coeffs", spec, "--terms", "150",
                               "--method", "recurrence,oracle,basis")
        assert code == 0 and payload["status"] == "verified"

    def test_basis_method(self, capsys):
        code, payload, _ = run(capsys, "coeffs", "j", "--terms", "30",
                               "--method", "basis,oracle")
        assert code == 0 and payload["status"] == "verified"

    def test_basis_method_refuses_values_that_are_not_replicable(self, capsys, monkeypatch):
        def no_descent(*args):
            raise AssertionError("the descent ran on values that are not replicable")

        monkeypatch.setattr(cli, "reconstruct_from_basis", no_descent)
        code, payload, err = run(capsys, "coeffs", "explicit:1,2,3", "--terms", "10",
                                 "--method", "basis")
        assert code == 1 and payload["status"] == "falsified" and "coefficients" not in payload
        assert payload["not_replicable"] == {"pair": [2, 3],
                                             "values": {"h_2,3": "2", "h_6,1": "0"}}
        assert err == "not replicable: h_2,3 != h_6,1\n"

    @pytest.mark.parametrize("spec", ["fiction:c=-1", "fiction:c=0", "fiction:c=1",
                                      "explicit:1", "explicit:"])
    def test_basis_method_takes_the_fictions(self, capsys, spec):
        code, payload, _ = run(capsys, "coeffs", spec, "--terms", "30", "--method", "basis,oracle")
        assert code == 0 and payload["status"] == "verified"

    @pytest.mark.parametrize("bumped", [None, 24, 40])
    def test_basis_method_gives_back_every_given_coefficient(self, capsys, bumped):
        # a_24 .. a_40 lie past the grade-24 table, so only the descent sees them
        given = j_oracle(41).coeff_range(1, 40)
        if bumped:
            given[bumped - 1] += 1
        code, payload, err = run(capsys, "coeffs", "explicit:" + ",".join(map(str, given)),
                                 "--terms", "5", "--method", "basis")
        if not bumped:
            assert code == 0 and payload["coefficients"] == list(map(str, given[:5]))
            return
        want = given[bumped - 1] - 1
        assert code == 1 and payload["status"] == "falsified"
        assert payload["first_disagreement"] == {
            "index": bumped, "values": {"basis": str(want), "explicit": str(want + 1)}}
        assert err == f"the basis descent disagrees with the given a_{bumped}\n"

    def test_eta_spec(self, capsys):
        code, payload, _ = run(capsys, "coeffs", "eta:1^24/2^24+24", "--terms", "3")
        assert code == 0
        assert payload["coefficients"] == ["276", "-2048", "11202"]

    def test_bad_spec_exits_2(self, capsys):
        # a zero denominator and an empty list token are malformed, not falsified
        for spec in ("nonsense", "explicit:1/0", "eta:1^8/4^8+1/0", "explicit:1,,2"):
            code, payload, _ = run(capsys, "coeffs", spec)
            assert code == 2 and payload["status"] == "error", spec

    def test_explicit_spec_without_coefficients(self, capsys):
        code, payload, _ = run(capsys, "coeffs", "explicit:", "--terms", "2")
        assert code == 0 and payload["coefficients"] == ["0", "0"]

    @pytest.mark.parametrize("spec, constant, normalized", [
        ("eta:1^8/4^8+7", "-1", "eta:1^8/4^8+8"), ("eta:1^24/2^24+25", "1", "eta:1^24/2^24+24"),
        ("eta:3^8/6^8-1/2", "-1/2", "eta:3^8/6^8+0")])
    def test_unnormalized_eta_spec_exits_2(self, capsys, spec, constant, normalized):
        # every method refuses it alike: the recurrence checks the spec before
        # it looks up a replication family, which eta:3^8/6^8 does not have
        for method in cli.METHODS:
            code, payload, err = run(capsys, "coeffs", spec, "--terms", "5", "--method", method)
            assert code == 2 and payload["status"] == "error", method
            assert payload["error"] == (f"{spec} has constant term {constant}, not 0; "
                                        f"the normalized function is {normalized}"), method
        code, payload, _ = run(capsys, "coeffs", normalized, "--terms", "5")
        assert code == 0 and payload["status"] == "computed"

    @pytest.mark.parametrize("index", [1, 7, 30])
    def test_methods_that_disagree_falsify(self, capsys, monkeypatch, index):
        real = cli._coeffs_by_method

        def bent(spec, method, terms):
            out = real(spec, method, terms)
            if method == "basis":
                out[index - 1] += 1
            return out

        monkeypatch.setattr(cli, "_coeffs_by_method", bent)
        code, payload, err = run(capsys, "coeffs", "j", "--terms", "30",
                                 "--method", "oracle,recurrence,basis")
        J = [str(c) for c in j_oracle(31).coeff_range(1, 30)]
        assert code == 1 and payload["status"] == "falsified"
        assert payload["coefficients"] == J
        want = J[index - 1]
        assert payload["first_disagreement"] == {
            "index": index,
            "values": {"oracle": want, "recurrence": want, "basis": str(int(want) + 1)}}
        assert err == f"methods disagree at a_{index}\n"

    def test_bad_terms_exits_2(self, capsys):
        code, payload, _ = run(capsys, "coeffs", "j", "--terms", "0")
        assert code == 2

    def test_recurrence_needs_a_known_family(self, capsys):
        # a normalized eta quotient that is not in the table
        code, payload, _ = run(capsys, "coeffs", "eta:3^8/6^8", "--terms", "10",
                               "--method", "recurrence")
        assert code == 2 and payload["error"] == (
            "no replication family known for spec eta:3^8/6^8+0; "
            "the 'recurrence' method needs one")
        # the basis method needs no family
        code, payload, _ = run(capsys, "coeffs", "eta:3^8/6^8", "--terms", "10",
                               "--method", "basis")
        assert code == 0 and payload["status"] == "computed"
        assert set(HAUPTMODULN) == set(HAUPTMODULN_SPECS)
        for name, text in (*HAUPTMODULN_SPECS.items(), ("c=-1", "fiction:c=-1")):
            by_name = replication_family(name, 12)
            by_spec = replication_family(parse_function_spec(text), 12)
            assert by_name.base == by_spec.base
            assert all(by_name.power(a) == by_spec.power(a) for a in range(2, 13))


class TestClassify24:
    def test_thirty_shapes(self, capsys):
        code, payload, _ = run(capsys, "classify24", "--bound", "150")
        assert code == 0 and payload["count"] == 30
        assert "1^24" in payload["shapes"]
        assert "1^1 2^1 7^1 14^1" in payload["shapes"]

    def test_low_bound_rejected(self, capsys):
        code, payload, _ = run(capsys, "classify24", "--bound", "10")
        assert code == 2


class TestNumerology:
    def test_verified(self, capsys):
        code, payload, _ = run(capsys, "verify", "numerology")
        assert code == 0 and payload["status"] == "verified"
        suite = payload["suites"]["numerology"]
        assert suite["values"] == {"sum_squares_1_to_24": "4900",
                                   "j_coefficient_squares_mod_70": "42",
                                   "360+256": "616", "120+2*248": "616"}
        assert [suite[key]["compared"] for key in ("sum_squares_1_to_24",
                "j_coefficient_squares_mod_70", "census_sums")] == [1, 1, 2]
        assert suite["ok"] and suite["replicable_function_census"] == {
            "count": 616, "provenance": "quoted"}


class TestVerify:
    @pytest.mark.parametrize("suite", ["faber", "grunsky", "replicable",
                                       "basis", "hecke", "mahler", "degree24"])
    def test_each_suite(self, capsys, suite):
        code, payload, _ = run(capsys, "verify", suite)
        assert code == 0 and payload["status"] == "verified"
        assert payload["suites"][suite]["ok"]

    def test_all(self, capsys):
        code, payload, _ = run(capsys, "verify", "all")
        assert code == 0 and len(payload["suites"]) == 9

    def test_sizes_at_the_defaults(self, capsys):
        code, payload, _ = run(capsys, "verify", "all")
        sizes = {name: suite["sizes"] for name, suite in payload["suites"].items()}
        assert code == 0 and sizes == {
            "faber": {"trunc": 24, "n_max": 8, "randoms": 4},
            "grunsky": {"grade": 23},
            "replicable": {"grade": 16, "perturbations": 0, "trunc": 9, "ks": [2, 3],
                           "route_ks": [2, 3]},
            "mod2_congruence": {"bound": 20},
            "basis": {"grade": 60, "trunc": 30},
            "hecke": {"trunc": 31, "randoms": 10, "families": list(HAUPTMODULN),
                      "faber_trunc": 24},
            "mahler": {"trunc": 31, "order": 23},
            "degree24": {"bound": 100},
            "numerology": {},
        }

    def test_one_suite_per_registry_check(self):
        # each suite runs the function of replicaq.checks named after it
        assert set(SUITES) == {"mahler", "faber", "grunsky", "replicable", "mod2_congruence",
                               "basis", "hecke", "degree24", "numerology"}
        for name, sizes in SUITES.items():
            assert isinstance(getattr(checks, name)(**sizes(10, 2)), dict), name

    @pytest.mark.parametrize("argv, key, size", [
        (("grunsky",), "grade", 23), (("replicable", "--grade", "2"), "grade", 7),
        (("degree24", "--grade", "2"), "bound", 100), (("mahler", "--trunc", "10"), "order", 15)])
    def test_sizes_show_the_clamps(self, capsys, argv, key, size):
        code, payload, _ = run(capsys, "verify", *argv)
        assert code == 0 and payload["suites"][argv[0]]["sizes"][key] == size

    @pytest.mark.parametrize("argv", [("faber", "--trunc", "2"), ("hecke", "--trunc", "0"),
                                      ("all", "--trunc", "9"), ("basis", "--grade", "1")])
    def test_sizes_that_compare_nothing_rejected(self, capsys, argv):
        code, payload, _ = run(capsys, "verify", *argv)
        assert code == 2 and payload["status"] == "error"
        assert "must be >=" in payload["error"]

    @pytest.mark.parametrize("argv", [("faber", "--trunc", "10"), ("basis", "--grade", "2")])
    def test_size_floors_accepted(self, capsys, argv):
        code, payload, _ = run(capsys, "verify", *argv)
        assert code == 0 and payload["status"] == "verified"

    @pytest.mark.parametrize("suite", ["replicable", "all"])
    @pytest.mark.parametrize("grade", ["2", "3", "6"])
    def test_low_grades_compare_a_replicability_pair(self, capsys, suite, grade):
        code, payload, _ = run(capsys, "verify", suite, "--grade", grade)
        assert code == 0 and payload["status"] == "verified"
        assert payload["suites"]["replicable"]["replicability_ok"]["compared"] >= 1

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_every_report_compares_something_at_the_floor(self, capsys, suite):
        code, payload, _ = run(capsys, "verify", suite, "--trunc", "10", "--grade", "2")
        assert code == 0

        def reports(tree):
            for value in tree.values():
                if isinstance(value, dict):
                    yield from ([value] if "compared" in value else reports(value))

        found = list(reports(payload["suites"][suite]))
        assert found and all(r["ok"] and r["compared"] >= 1 for r in found)

    def test_unknown_suite(self, capsys):
        code, payload, _ = run(capsys, "verify", "bogus")
        assert code == 2 and payload["status"] == "error"

    def test_injected_bug_falsifies(self, capsys, monkeypatch):
        # mutation control: corrupt the oracle seen by one suite, which takes
        # J from the function-to-family map
        import replicaq.functions as functions
        import replicaq.qseries as qs
        real = qs.j_int_coeffs

        def corrupted(n):
            c = real(n)
            if len(c) > 3:
                c[3] += 1  # perturbs a_2
            return c

        monkeypatch.setattr(functions, "j_oracle",
                            lambda t: qs.QSeries(-1, 1, corrupted(int(t) + 2), t))
        code, payload, _ = run(capsys, "verify", "replicable")
        assert code == 1 and payload["status"] == "falsified"


def test_report_that_compares_nothing_is_not_ok():
    assert not checks.CheckReport("empty", 0).ok
    assert not checks.CheckReport("bad", 3, ("x", 1, 2)).ok
    assert checks.CheckReport("one", 1).ok


def test_result_known_past_the_requested_order_is_a_mismatch(monkeypatch):
    # agree alone would pass: each stand-in is J itself, known to q^40
    monkeypatch.setattr(checks, "replicate", lambda f, k, trunc: checks.j_oracle(40))
    out = checks.replicable(7, 0, 9, (2,), (2,))
    assert not out["replicate_fixes_j"].ok
    monkeypatch.setattr(checks, "reconstruct_by_grunsky", lambda v, trunc: checks.j_oracle(40))
    out = checks.basis(2, 30)
    assert out["reconstruction_ok"].ok and not out["reconstruction_routes_agree"].ok


def test_series_counts_the_exponents_up_to_the_mismatch():
    J = j_oracle(50)
    bent = J + QSeries(7, 1, [1], 50)
    a_7 = J.coeff(7)
    assert checks._series("x", [("f", J, J, 50)]) == checks.CheckReport("x", 51)
    # q^-1 .. q^7: nine exponents, the mismatch among them
    assert checks._series("x", [("f", J, bent, 50)]) == checks.CheckReport(
        "x", 9, ("f", 7, a_7, a_7 + 1))
    assert checks._series("x", [("e", J, J, 50), ("f", J, bent, 50)]).compared == 60


# one fault per comparison that a check no longer repeats: the sub-check that
# makes the comparison still catches it (for mahler's bent J, see
# test_hecke.py's TestMahler::test_check_reports_the_first_rule_failure)
@pytest.mark.parametrize("n", [2, 5])
def test_uv_route_fault_fails_tn_routes(monkeypatch, n):
    real = checks.hecke_Tn_via_uv

    def off_by_q(f, k):
        g = real(f, k)
        return g + QSeries(1, 1, [1], g.trunc) if k == n else g

    monkeypatch.setattr(checks, "hecke_Tn_via_uv", off_by_q)
    c = checks.hecke_Tn(j_oracle(31), n).coeff(1)
    report = checks.hecke(31, 0, (), 10)["tn_routes_ok"]
    assert report.first_mismatch == (("J", n), 1, c, c + 1)


def test_grunsky_route_fault_fails_power_map_classes(monkeypatch):
    real = checks.replicate_by_grunsky
    monkeypatch.setattr(checks, "replicate_by_grunsky",
                        lambda f, k, trunc: real(f, k, trunc) + QSeries(3, 1, [1], trunc))
    out = checks.replicable(7, 0, 9, (2, 3), (2, 3))
    assert out["replicate_fixes_j"].ok
    report = out["replicates_are_power_map_classes"]
    assert report.first_mismatch[:2] == (("j", "k=2", "replicate_by_grunsky"), 3)


def test_faber_table_fault_fails_routes_agree(monkeypatch):
    real = checks.grunsky_from_faber

    def bumped(f, grade):
        t = real(f, grade)
        return GrunskyTable(t.grade_bound, {**t.entries, (2, 5): t.entries[(2, 5)] + 1})

    monkeypatch.setattr(checks, "grunsky_from_faber", bumped)
    out = checks.grunsky(12)
    h = real(j_oracle(12), 12).get(2, 5)
    assert out["routes_agree"].first_mismatch == ((2, 5), h, h + 1)
    assert out["bivariate_ok"].ok and out["denominator_bound_ok"].ok


def test_family_too_short_for_the_hecke_faber_order_is_a_mismatch():
    # n = 6 below q^20 reads the family past q^120
    short = checks._hecke_faber(replication_family("j", 119), 20)
    full = checks._hecke_faber(replication_family("j", 120), 20)
    assert not short.ok and short.compared == 0 and "q^20" in short.first_mismatch[0]
    assert full.ok and full.compared == sum(n + 20 for n in range(1, 7))


def test_invalid_reducing_pair_is_a_mismatch(monkeypatch):
    real = checks.exhaustive_reducing_pair
    monkeypatch.setattr(checks, "find_reducing_pair",
                        lambda N: real(N) and real(N)._replace(to_pair=(1, 1)))
    report = checks.basis(7, 30)["reducing_pairs_ok"]
    assert report.first_mismatch[1:] == ((7, False), (7, True))


class TestOutputContract:
    def test_json_on_stdout_summary_on_stderr(self, capsys):
        code = main(["verify", "numerology"])
        out = capsys.readouterr()
        json.loads(out.out)
        assert out.err.strip() != ""
        assert "{" not in out.err


# every way a run exits 2, from the parser and from a command
EXIT_2_ARGV = {
    "no command": (),
    "unknown command": ("bogus",),
    "missing spec": ("coeffs",),
    "missing suite": ("verify",),
    "terms not an int": ("coeffs", "j", "--terms", "abc"),
    "terms floor - 1": ("coeffs", "j", "--terms", "0"),
    "bound floor - 1": ("classify24", "--bound", "99"),
    "trunc floor - 1": ("verify", "faber", "--trunc", "9"),
    "grade floor - 1": ("verify", "basis", "--grade", "1"),
    "unknown suite": ("verify", "bogus"),
    "unknown method": ("coeffs", "j", "--method", "nope"),
    "empty method": ("coeffs", "j", "--method", " , "),
    "repeated method": ("coeffs", "j", "--method", "oracle,recurrence,oracle"),
    "bad spec": ("coeffs", "nonsense"),
    "no family": ("coeffs", "eta:3^8/6^8", "--method", "recurrence"),
    "not normalized": ("coeffs", "eta:1^8/4^8+7"),
    "fiction out of range": ("coeffs", "fiction:c=2"),
    "not a simple pole": ("coeffs", "eta:1^24"),
}


class TestExitPaths:
    @pytest.mark.parametrize("argv", EXIT_2_ARGV.values(), ids=EXIT_2_ARGV)
    def test_every_error_is_one_json_line_and_one_stderr_line(self, capsys, argv):
        code = main(list(argv))
        out = capsys.readouterr()
        assert code == 2
        assert out.out.count("\n") == 1 and out.out.endswith("\n")
        payload = json.loads(out.out)
        assert payload["schema"] == 1 and payload["status"] == "error"
        assert out.err.count("\n") == 1 and out.err == payload["error"] + "\n"

    @pytest.mark.parametrize("method, error", [
        ("basis,nope", "unknown method 'nope'"), ("basis,basis", "repeated method 'basis'"),
        ("oracle, oracle", "repeated method 'oracle'"), (",", "no method given")])
    def test_method_checked_before_any_work(self, capsys, monkeypatch, method, error):
        def no_work(*args):
            raise AssertionError("work started before --method was checked")

        for name in ("realize", "reconstruct_from_basis", "replication_family"):
            monkeypatch.setattr(cli, name, no_work)
        code, payload, _ = run(capsys, "coeffs", "j", "--terms", "600", "--method", method)
        assert code == 2 and payload["error"] == error

    def test_floors_in_the_error_text(self, capsys):
        for argv, error in ((("coeffs", "j", "--terms", "0"), "argument --terms: must be >= 1"),
                            (("classify24", "--bound", "5"), "argument --bound: must be >= 100"),
                            (("verify", "faber", "--trunc", "2"),
                             "argument --trunc: must be >= 10")):
            code, payload, _ = run(capsys, *argv)
            assert code == 2 and payload["error"] == error

    @pytest.mark.parametrize("argv, code", [(("verify", "bogus"), 2), (("--help",), 0)])
    def test_process_exit_codes(self, argv, code):
        src = pathlib.Path(cli.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-m", "replicaq.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code
        if code:
            assert json.loads(done.stdout)["status"] == "error"
            assert done.stderr.count("\n") == 1
        else:
            assert done.stdout.startswith("usage: replicaq") and done.stderr == ""
