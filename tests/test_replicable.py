"""Replicability, replicates, reducing pairs and basis reconstruction."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import replicaq.faber as faber
import replicaq.grunsky as grunsky
from replicaq import checks
import replicaq.replicable as replicable
from replicaq.qseries import QSeries, TruncationError, j_oracle, j_int_coeffs
from replicaq.grunsky import GrunskyCalculator, grunsky_by_recursion, grunsky_from_faber
from replicaq.replicable import (NORTON_BASIS, IRREDUCIBLE_GRADES,
                                 DescentError, ReducingPair, ReplicabilityReport,
                                 ReplicationFamily, is_replicable, replicate,
                                 replicate_by_grunsky, inverse_identity_sum,
                                 mod_p_residues, find_reducing_pair,
                                 exhaustive_reducing_pair,
                                 reconstruct_from_basis, reconstruct_by_grunsky,
                                 _descend)
import replicaq.functions as functions
from replicaq.functions import (HAUPTMODULN, fiction_series, parse_function_spec, realize,
                                replication_family, tb2_family)

# J and six eta-quotient hauptmoduln: 2B, 3B, 4C, 5B, 7B, 13B
SEVEN = ("j", "eta:1^24/2^24+24", "eta:1^12/3^12+12", "eta:1^8/4^8+8",
         "eta:1^6/5^6+6", "eta:1^4/7^4+4", "eta:1^2/13^2+2")
FICTIONS = ("fiction:c=1", "fiction:c=-1")
REPLICATE_KS = (1, 2, 3, 4, 5, 6, 8, 10, 12)
REPLICATE_TS = (1, 2, 3, 5)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
integers = st.integers(-9, 9).map(Fraction)


def j_to(trunc):
    return QSeries(-1, 1, j_int_coeffs(trunc + 2), trunc)


class TestIsReplicable:
    def test_j_grade_24(self):
        J = j_to(60)
        a = [J.coeff(k) for k in range(1, 60)]
        rep = is_replicable(grunsky_by_recursion(a, 24))
        assert rep.ok and rep.counterexample is None and rep.checked_pairs > 0

    def test_perturbations_falsify(self):
        J = j_to(60)
        base = [J.coeff(k) for k in range(1, 60)]
        for i in range(6):
            a = base[:]
            a[i] += 1
            rep = is_replicable(grunsky_by_recursion(a, 24))
            assert not rep.ok, f"perturbing a_{i + 1} went undetected"
            assert rep.counterexample is not None

    def test_grade_below_the_first_pair_raises(self):
        # (2, 3) against (6, 1) is the first pair and needs grade 7
        a = j_to(10).coeff_range(1, 9)
        with pytest.raises(ValueError, match="at least 7"):
            is_replicable(grunsky_by_recursion(a, 6))
        rep = is_replicable(grunsky_by_recursion(a, 7))
        assert rep.ok and rep.checked_pairs == 1

    def test_fiction_replicable(self):
        f = fiction_series(1, 40)
        a = [f.coeff(k) for k in range(1, 40)]
        assert is_replicable(grunsky_by_recursion(a, 16)).ok


class TestReplicate:
    def test_k1_identity(self):
        J = j_to(40)
        assert replicate(J, 1, 20) == J.truncate(20)

    def test_j_self_replicate(self):
        J = j_to(600)
        for k in (2, 3, 4):
            assert replicate(J, k, 30) == J.truncate(30)

    def test_prime_case_formula(self):
        # h_n^(p) = p h_{pn,p} - p a_{p^2 n}
        J = j_to(80)
        calc = GrunskyCalculator(J.coeff_range(1, 79))
        f2 = replicate(J, 2, 4)
        for n in (1, 2, 3):
            assert f2.coeff(n) == 2 * calc.h(2 * n, 2) - 2 * J.coeff(4 * n)

    @pytest.mark.parametrize("route", [replicate, replicate_by_grunsky])
    def test_refuses_a_series_that_is_not_normalized(self, route):
        J = j_to(40)
        q2 = QSeries(-2, 1, [1, 0, 0] + J.coeff_range(1, 39), 40)
        for f in (J * 2, q2, J + 1):
            with pytest.raises(ValueError, match="normalized"):
                route(f, 2, 5)

    def test_insufficient_truncation(self):
        with pytest.raises(TruncationError):
            replicate(j_to(20), 3, 10)

    # (k, T) -> top = max over mu(d) != 0 of k/d + dk(T - 1) - 1, the last
    # coefficient the Moebius sum reads; k^2 T would overstate it
    TOPS = {(1, 3): 2, (2, 5): 16, (3, 2): 9, (4, 1): 3, (6, 3): 72,
            (4, 5): 33, (2, 10): 36}

    @pytest.mark.parametrize("k,T", list(TOPS))
    def test_truncation_boundary(self, k, T):
        top = self.TOPS[k, T]
        J = j_to(top + 1)
        for route in (replicate, replicate_by_grunsky):
            with pytest.raises(TruncationError, match=f"reads a_{top},"):
                route(J.truncate(top), k, T)
            assert route(J, k, T) == J.truncate(T)


class TestReplicateRoutes:
    """Faber-row replicate against the Moebius formula over Norton's recursion."""

    @pytest.mark.parametrize("spec", SEVEN + FICTIONS)
    def test_faber_rows_match_grunsky(self, spec):
        top = max(REPLICATE_TS)
        f = realize(parse_function_spec(spec), max(REPLICATE_KS) ** 2 * top + 1)
        for k in REPLICATE_KS:
            # each coefficient of the formula is independent of trunc, so the
            # shorter results are prefixes of the longest oracle result
            want = replicate_by_grunsky(f, k, top)
            for T in REPLICATE_TS:
                assert replicate(f, k, T) == want.truncate(T), (spec, k, T)

    @PROPERTY
    @given(data=st.data(), k=st.integers(1, 6), T=st.integers(1, 4), integral=st.booleans())
    def test_random_series(self, data, k, T, integral):
        n = k * k * T
        a = data.draw(st.lists(integers if integral else rationals, min_size=n, max_size=n))
        f = QSeries(-1, 1, [1, 0] + a, n + 1)
        assert replicate(f, k, T) == replicate_by_grunsky(f, k, T)

    @pytest.mark.parametrize("route", [replicate, replicate_by_grunsky])
    @pytest.mark.parametrize("spec", ["j", "eta:1^24/2^24+24"])
    def test_integral_input_runs_in_ints(self, route, spec, monkeypatch):
        """On J and 2B neither engine builds a Fraction, and the replicate
        stores int coefficients."""
        def refuse(*args):
            raise AssertionError("a Fraction was built on integral input")

        f = realize(parse_function_spec(spec), 6 * 6 * 8 + 1)
        monkeypatch.setattr(faber, "Fraction", refuse)
        monkeypatch.setattr(grunsky, "Fraction", refuse)
        for k in (2, 3, 4, 6):
            g = route(f, k, 8)
            assert g.coeffs and all(type(c) is int for c in g.coeffs), (spec, k)


class TestPowerMapTable:
    """f^(a) of a class g of order N is the row that g's power map names at
    gcd(a, N), or g's own row when that gcd is 1.  The rule the maps replaced,
    f^(a) is the row of order N / gcd(a, N), is kept here as the oracle."""

    ORDERS = {"j": 1, "2b": 2, "3b": 3, "4c": 4, "5b": 5, "7b": 7, "13b": 13}

    def test_power_maps_are_consistent(self):
        assert list(HAUPTMODULN) == list(self.ORDERS)
        for name, (powers, _) in HAUPTMODULN.items():
            N = self.ORDERS[name]
            assert set(powers) == {d for d in range(2, N + 1) if N % d == 0}, name
            # g^d is a row of the table, of order N / d, and g^N is the identity class
            assert all(self.ORDERS[row] == N // d for d, row in powers.items()), name
            assert N == 1 or powers[N] == "j"

    def test_families_match_the_order_rule(self):
        by_order = {self.ORDERS[name]: realize(spec, 30) for name, (_, spec) in HAUPTMODULN.items()}
        for name, N in self.ORDERS.items():
            fam = replication_family(name, 30)
            assert fam.base == by_order[N]
            for a in range(2, 13):
                assert fam.power(a) == by_order[N // gcd(a, N)], (name, a)

    def test_two_classes_of_one_order_get_their_own_families(self, monkeypatch):
        # 2A's McKay-Thompson series, cut after q^3: a second class of order 2
        spec = parse_function_spec("explicit:4372,96256,1240002")
        tb2 = replication_family("2b", 4)
        monkeypatch.setitem(functions.HAUPTMODULN, "2a", ({2: "j"}, spec))
        fam = replication_family("2a", 4)
        assert replication_family(spec, 4) == fam and fam.base == realize(spec, 4)
        assert all(fam.power(a) == (j_oracle(4) if a % 2 == 0 else fam.base)
                   for a in range(2, 13))
        assert replication_family("2b", 4) == tb2
        assert replication_family(HAUPTMODULN["2b"][1], 4) == tb2

    def test_replicates_are_the_powers_classes(self):
        fam = replication_family("4c", 20)
        by_spec = {spec: realize(parse_function_spec(spec), 20) for spec in SEVEN[:4]}
        assert fam.base == by_spec["eta:1^8/4^8+8"]
        assert all(fam.power(a) == by_spec["eta:1^8/4^8+8"] for a in (3, 5, 7, 9, 11))
        assert all(fam.power(a) == by_spec["eta:1^24/2^24+24"] for a in (2, 6, 10))
        assert all(fam.power(a) == by_spec["j"] for a in (4, 8, 12))
        assert all(replication_family("13b", 20).power(a) == realize(
            parse_function_spec(SEVEN[-1]), 20) for a in range(2, 13))

    def test_each_function_is_realized_once(self, monkeypatch):
        calls = []
        real = functions.realize
        monkeypatch.setattr(functions, "realize",
                            lambda spec, trunc: calls.append(str(spec)) or real(spec, trunc))
        replication_family("4c", 10)
        assert sorted(calls) == ["eta:1^24/2^24+24", "eta:1^8/4^8+8", "j"]

    @pytest.mark.parametrize("name", HAUPTMODULN)
    def test_fixed_point_rule_fails_where_an_index_shares_a_factor(self, monkeypatch, name):
        # f^(a) = f for every a: wrong for 2B, 3B and 4C at k in (2, 3, 4), and
        # indistinguishable there for J and for 5B, 7B and 13B
        def fixed(function, trunc):
            f = replication_family(function, trunc).base
            return ReplicationFamily(f, {a: f for a in range(2, 13)})

        monkeypatch.setattr(checks, "HAUPTMODULN", {name: HAUPTMODULN[name]})
        monkeypatch.setattr(checks, "replication_family", fixed)
        report = checks.replicable(7, 0, 3, (2,), (2, 3, 4))["replicates_are_power_map_classes"]
        assert report.ok == (name not in ("2b", "3b", "4c")), report


def identity_failures(fam, t, bound):
    """Pairs of t with gcd <= bound where h_{m,n} differs from the inverse-identity sum."""
    return [(m, n) for m, n in t.pairs()
            if gcd(m, n) <= bound and t.get(m, n) != inverse_identity_sum(fam, m, n)]


class TestInverseIdentity:
    def test_j_family(self):
        J = j_to(80)
        fam = ReplicationFamily(J, {d: J for d in (2, 3, 4)})
        a = [J.coeff(k) for k in range(1, 80)]
        t = grunsky_by_recursion(a, 9)
        assert identity_failures(fam, t, 4) == []

    def test_tampered_family(self):
        J = j_to(80)
        wrong = J + QSeries(2, 1, [1], 80)
        fam = ReplicationFamily(J, {2: wrong, 3: J, 4: J})
        a = [J.coeff(k) for k in range(1, 80)]
        t = grunsky_by_recursion(a, 9)
        # h^(2)_2 enters only the pair (2, 4)
        assert identity_failures(fam, t, 4) == [(2, 4)]

    def test_gcd_one_is_plain_coefficient(self):
        J = j_to(30)
        fam = ReplicationFamily(J, {})
        a = [J.coeff(k) for k in range(1, 30)]
        t = grunsky_by_recursion(a, 8)
        assert identity_failures(fam, t, 1) == []


def residues(f, fp, p, bound):
    return [r for _, r in mod_p_residues(f, fp, p, bound)]


class TestModPCongruence:
    def test_equal_series(self):
        J = j_to(30)
        assert residues(J, J, 5, 25) == [0] * 25

    def test_2b_family(self):
        fam = tb2_family(55)
        assert residues(fam.base, fam.power(2), 2, 50) == [0] * 50

    def test_violation(self):
        J = j_to(30)
        assert residues(J, J + QSeries(1, 1, [1], 30), 2, 10) == [1] + [0] * 9

    def test_non_integral_rejected_even_when_the_difference_is_integral(self):
        f = j_to(30) + QSeries(1, 1, [Fraction(1, 2)], 30)
        with pytest.raises(ValueError):
            residues(f, f, 2, 10)

    @pytest.mark.parametrize("wrong", ["2b", "3b"])
    def test_check_compares_2b_with_j_whatever_its_family_says(self, monkeypatch, wrong):
        # a family whose duplicate is 2B itself made every residue 0
        def family(name, trunc):
            bad = replication_family(wrong, trunc).base
            return ReplicationFamily(replication_family(name, trunc).base,
                                     {a: bad for a in range(2, 13)})

        seen = []
        real = checks.mod_p_residues
        monkeypatch.setattr(checks, "replication_family", family)
        monkeypatch.setattr(checks, "mod_p_residues",
                            lambda f, fp, p, bound: seen.append((f, fp)) or real(f, fp, p, bound))
        report = checks.mod2_congruence(50)["mod_2_congruence_ok"]
        assert report.ok and report.compared == 50
        assert seen == [(realize(HAUPTMODULN["2b"][1], 51), j_oracle(51))]

    @pytest.mark.parametrize("other, index", [("3b", 3), ("5b", 1)])
    def test_check_falsified_for_a_function_not_congruent_to_j(self, monkeypatch, other, index):
        monkeypatch.setattr(checks, "replication_family",
                            lambda name, trunc: replication_family(other, trunc))
        report = checks.mod2_congruence(50)["mod_2_congruence_ok"]
        assert not report.ok and report.first_mismatch == (index, 1, 0)


class TestReducingPairs:
    def test_known_cases(self):
        p16 = find_reducing_pair(16)
        assert (p16.from_pair, p16.to_pair) == ((1, 15), (3, 5))
        p40 = find_reducing_pair(40)
        assert (p40.from_pair, p40.to_pair) == ((1, 39), (3, 13))

    def test_validity(self):
        assert ReducingPair(16, (1, 15), (3, 5)).valid
        assert not ReducingPair(17, (1, 15), (3, 5)).valid  # r + s is not the grade
        assert not ReducingPair(8, (3, 5), (1, 15)).valid  # r' + s' is not smaller
        assert not ReducingPair(16, (1, 15), (1, 14)).valid  # lcm differs
        assert not ReducingPair(16, (2, 14), (1, 14)).valid  # gcd differs

    def test_irreducible_grades(self):
        got = tuple(N for N in range(2, 25) if find_reducing_pair(N) is None)
        assert got == (2, 3, 4, 5, 6, 8, 9, 10, 12, 18, 20, 24)
        assert got == IRREDUCIBLE_GRADES
        assert NORTON_BASIS == tuple(N - 1 for N in got)

    def test_valid_pair_for_every_reducible_grade_to_2000(self):
        for N in range(2, 2001):
            pair = find_reducing_pair(N)
            assert (pair is None) == (N in IRREDUCIBLE_GRADES), N
            if pair is not None:
                assert pair.valid and pair.grade == sum(pair.from_pair) == N, pair

    def test_case_analysis_alone_covers_every_reducible_grade_to_3000(self):
        for N in range(2, 3001):
            if N not in IRREDUCIBLE_GRADES:
                pair = replicable._case_reducing_pair(N)
                assert pair is not None and pair.valid and pair.grade == N, N

    def test_gap_in_case_analysis_is_reported_not_filled(self, monkeypatch):
        real = replicable._case_reducing_pair
        monkeypatch.setattr(replicable, "_case_reducing_pair",
                            lambda N: None if N == 26 else real(N))
        report = checks.basis(30, 20)["reducing_pairs_ok"]
        assert report.first_mismatch == ((26, "reducible"), False, True)
        J = j_to(30)
        with pytest.raises(DescentError, match="grade 26"):
            reconstruct_from_basis({k: J.coeff(k) for k in NORTON_BASIS}, 30)

    def test_invalid_case_pair_is_descent_error(self, monkeypatch):
        monkeypatch.setattr(replicable, "_case_reducing_pair",
                            lambda N: ReducingPair(N, (1, N - 1), (1, 1)))
        with pytest.raises(DescentError):
            find_reducing_pair(16)

    def test_agrees_with_exhaustive_oracle_to_500(self):
        for N in range(2, 501):
            mine = find_reducing_pair(N)
            oracle = exhaustive_reducing_pair(N)
            assert (mine is None) == (oracle is None), N
            if mine is not None:
                r, s = mine.from_pair
                rp, sp = mine.to_pair
                assert r + s == N and rp + sp < N
                assert gcd(r, s) == gcd(rp, sp) and lcm(r, s) == lcm(rp, sp)


ENGINES = {"faber": faber._FaberRows, "grunsky": GrunskyCalculator}


class TestEngineContract:
    """Both h_{r,s} engines over [a_1, ..., a_top] answer h and correction in
    either argument order, as Fractions, and b_{r,s} = r h_{r,s}.  The correction is what each descent
    step solves with at grade N: h_{r,s} less a_{N-1}, from a_1..a_{N-2}
    alone, so an engine over a list one short raises if it reads a_{N-1}."""

    @pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES.keys())
    @PROPERTY
    @given(data=st.data())
    def test_correction_is_h_less_the_top(self, engine, data):
        N = data.draw(st.integers(2, 30))
        coeff = data.draw(st.sampled_from([st.integers(-9, 9), rationals]))
        a = data.draw(st.lists(coeff, min_size=N - 1, max_size=N - 1))
        full, short = engine(a), engine(a[:-1])
        for r in range(1, N):
            h = full.h(r, N - r)
            assert type(h) is Fraction and h == full.h(N - r, r)
            assert short.correction(r, N - r) == short.correction(N - r, r) == h - a[-1], r

    @pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES.keys())
    @PROPERTY
    @given(data=st.data())
    def test_b_is_r_times_h(self, engine, data):
        """b_{r,s} = r h_{r,s} in both argument orders, r > s among them, and
        an int exactly when the coefficients are integral."""
        N = data.draw(st.integers(2, 24))
        coeff = data.draw(st.sampled_from([st.integers(-9, 9), rationals]))
        a = data.draw(st.lists(coeff, min_size=N - 1, max_size=N - 1))
        e = engine(a)
        integral = all(Fraction(v).denominator == 1 for v in a)
        for r in range(1, N):
            s = N - r
            b = e.b(r, s)
            assert b == r * e.h(r, s) and e.b(s, r) == s * e.h(r, s), (r, s)
            assert type(b) is int if integral else type(b) in (int, Fraction)

    @pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES.keys())
    def test_index_below_one_rejected(self, engine):
        e = engine([j_to(12).coeff(k) for k in range(1, 12)])
        for r, s in ((0, 3), (3, 0), (-1, 4)):
            for method in (e.b, e.h, e.correction):
                with pytest.raises(ValueError, match="indices start at 1"):
                    method(r, s)


class TestRouteIndependence:
    """Each route of ``verify replicable|basis`` runs its own engine only."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("constructed by the other route")

    def test_faber_routes_build_no_grunsky_calculator(self, monkeypatch):
        monkeypatch.setattr(GrunskyCalculator, "__init__", self.refuse)
        J = j_to(80)
        basis = {k: J.coeff(k) for k in NORTON_BASIS}
        assert replicate(J, 4, 5) == J.truncate(5)
        assert reconstruct_from_basis(basis, 30) == J.truncate(30)

    def test_grunsky_routes_build_no_faber_rows(self, monkeypatch):
        monkeypatch.setattr(faber._FaberRows, "__init__", self.refuse)
        J = j_to(80)
        basis = {k: J.coeff(k) for k in NORTON_BASIS}
        assert replicate_by_grunsky(J, 4, 5) == J.truncate(5)
        assert reconstruct_by_grunsky(basis, 30) == J.truncate(30)


class TestReconstruction:
    def test_random_basis_values_are_rejected(self, monkeypatch):
        report = checks.basis(2, 20)["random_bases_rejected"]
        assert report.ok and report.compared == 5
        # J's values pass at grade 24, and so does J with a_23 + 1: a_23 first
        # enters h_{1,23}, which no pair at that grade compares
        J = j_to(30)
        for bump in (0, 1):
            values = {k: J.coeff(k) + (bump if k == 23 else 0) for k in NORTON_BASIS}
            assert is_replicable(grunsky_from_faber(reconstruct_from_basis(values, 25), 24)).ok
        # mutation: a replicability test that accepts every table
        monkeypatch.setattr(checks, "is_replicable",
                            lambda t: ReplicabilityReport(True, t.grade_bound, 0))
        report = checks.basis(2, 20)["random_bases_rejected"]
        assert report.first_mismatch == ("random 0", True, False)

    def test_j_from_basis_50_terms(self):
        J = j_to(60)
        basis = {k: J.coeff(k) for k in NORTON_BASIS}
        rebuilt = reconstruct_from_basis(basis, 50)
        assert rebuilt == J.truncate(50)

    def test_j_from_basis_200_terms(self):
        J = j_oracle(200)
        basis = {k: J.coeff(k) for k in NORTON_BASIS}
        assert reconstruct_from_basis(basis, 200) == J

    def test_fiction_from_basis(self):
        basis = {k: Fraction(1 if k == 1 else 0) for k in NORTON_BASIS}
        rebuilt = reconstruct_from_basis(basis, 20)
        assert rebuilt == fiction_series(1, 20)

    @pytest.mark.parametrize("spec", SEVEN)
    def test_faber_rows_match_grunsky_descent(self, spec):
        f = realize(parse_function_spec(spec), 60)
        basis = {k: f.coeff(k) for k in NORTON_BASIS}
        assert reconstruct_from_basis(basis, 60) == f
        assert reconstruct_by_grunsky(basis, 60) == f

    @PROPERTY
    @given(values=st.lists(rationals, min_size=len(NORTON_BASIS), max_size=len(NORTON_BASIS)))
    def test_random_bases_match_grunsky_descent(self, values):
        basis = dict(zip(NORTON_BASIS, values))
        assert reconstruct_from_basis(basis, 35) == reconstruct_by_grunsky(basis, 35)

    def test_non_integral_descent_rejected(self, monkeypatch):
        # a wrong pair at grade 7: h_{2,2} = a_3 + a_1^2 / 2 is not integral for odd a_1
        real = replicable.find_reducing_pair
        monkeypatch.setattr(replicable, "find_reducing_pair",
                            lambda N: ReducingPair(7, (6, 1), (2, 2)) if N == 7 else real(N))
        basis = {k: 1 for k in NORTON_BASIS}
        for route in (reconstruct_from_basis, reconstruct_by_grunsky):
            with pytest.raises(ValueError, match="non-integral coefficient a_6 = "):
                route(basis, 10)

    def test_missing_pair_is_descent_error(self, monkeypatch):
        monkeypatch.setattr(replicable, "find_reducing_pair", lambda N: None)
        basis = {k: 0 for k in NORTON_BASIS}
        for route in (reconstruct_from_basis, reconstruct_by_grunsky):
            with pytest.raises(DescentError, match="grade 7"):
                route(basis, 10)

    def test_missing_value_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_from_basis({1: Fraction(196884)}, 10)

    def test_grade_7_descent_matches_a6(self):
        J = j_to(60)
        basis = {k: J.coeff(k) for k in NORTON_BASIS}
        rebuilt = reconstruct_from_basis(basis, 8)
        assert rebuilt.coeff(6) == J.coeff(6)
        # and the descent value is h_{6,1} = h_{3,2} + corrections
        calc = GrunskyCalculator(J.coeff_range(1, 59))
        assert calc.h(6, 1) == J.coeff(6)

    # The odd-level economy: a descent from a_1, a_2, a_3, a_5 alone.  It
    # stops at grade 5, the first grade that is neither given nor reducible.
    def test_odd_level_experiment_reports_not_raises(self):
        J = j_to(40)
        given = {k: J.coeff(k) for k in (1, 2, 3, 5)}
        a, blocked = _descend(given, 30, faber._FaberRows)
        assert blocked == 5 and a == [0] + [J.coeff(k) for k in (1, 2, 3)]

    def test_odd_level_experiment_below_first_block(self):
        J = j_to(40)
        given = {k: J.coeff(k) for k in (1, 2, 3, 5)}
        a, blocked = _descend(given, 4, faber._FaberRows)
        assert blocked is None and a == [0] + [J.coeff(k) for k in (1, 2, 3)]
