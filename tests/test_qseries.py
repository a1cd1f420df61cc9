"""Exact q-expansions: frozen low-order coefficients and numeric cross-checks."""

import random
from fractions import Fraction

import pytest

from mockchar.appell import a1, aK
from mockchar.domain import AlgebraParams, AtypicalWLabel
from mockchar.errors import NonRationalExponents, UnsupportedObject
from mockchar.kernel import eta, theta1
from mockchar.qseries import GRat, SparseSeries, appell_series, eta3_inverse_qcoeffs, qexpand, theta1_series
from mockchar.suites import DEFAULT_GRID

import qseries_reference as ref

F = Fraction


def test_theta1_series_frozen_through_9_8():
    # -i sum (-1)^n q^{(n+1/2)^2/2} z^{n+1/2}: four terms survive at order 9/8
    series = theta1_series(F(9, 8))
    want = {
        (F(1, 8), F(1, 2), F(0)): GRat(F(0), F(-1)),
        (F(1, 8), F(-1, 2), F(0)): GRat(F(0), F(1)),
        (F(9, 8), F(3, 2), F(0)): GRat(F(0), F(1)),
        (F(9, 8), F(-3, 2), F(0)): GRat(F(0), F(-1)),
    }
    assert dict(series.sorted_items()) == want


def test_theta1_series_has_no_even_halves():
    series = theta1_series(F(4))
    for (qe, zp, yp), _ in series.sorted_items():
        assert zp.denominator == 2  # only odd half-integer z powers
        assert yp == 0
        assert qe == zp * zp / 2


def test_grat_str_forms():
    assert str(GRat(F(1, 2), F(3, 4))) == "1/2+3/4i"
    assert str(GRat(F(0), F(-1))) == "-1i"
    assert str(GRat(F(2), F(0))) == "2"
    assert str(GRat(F(0), F(0))) == "0"
    assert str(GRat(F(-1, 3), F(1))) == "-1/3+1i"


def test_series_eval_matches_theta1():
    series = qexpand("theta1", F(6))
    for u, tau in ((0.2 + 0.25j, 1.4j), (-0.1 + 0.3j, 0.2 + 1.6j)):
        got = series.eval_at(u, 0.0, tau)
        assert abs(got - theta1(u, tau)) < 1e-10


def test_appell_series_matches_a1_inside_window():
    series = qexpand("ak", F(5), level=1)
    # |q| < |z| < 1 needs 0 < Im u < Im tau
    for u, v, tau in ((0.11 + 0.2j, 0.05j, 1.5j), (-0.2 + 0.3j, 0.4 - 0.05j, 0.1 + 1.8j)):
        got = series.eval_at(u, v, tau)
        assert abs(got - a1(u, v, tau)) < 1e-9


def test_appell_series_level3():
    series = qexpand("a_k", F(4), level=3)
    u, v, tau = 0.15 + 0.22j, 0.31, 1.6j
    assert abs(series.eval_at(u, v, tau) - aK(3, u, v, tau)) < 1e-9


def test_theta1_over_eta3_series():
    series = qexpand("theta1_over_eta3", F(3))
    u, tau = 0.21 + 0.18j, 1.7j
    want = theta1(u, tau) / eta(tau) ** 3
    assert abs(series.eval_at(u, 0.0, tau) - want) < 1e-9


def test_vacuum_character_integer_coefficients():
    pr = AlgebraParams(0, 1)
    series = qexpand("chi_atypical", F(3), params=pr, label=AtypicalWLabel(0, 0))
    items = series.sorted_items()
    assert items, "empty expansion"
    for (qe, zp, yp), coeff in items:
        assert coeff.im == 0
        assert coeff.re.denominator == 1
        assert qe.denominator == 1 and zp.denominator == 1 and yp.denominator == 1


def test_vacuum_character_leading_terms():
    pr = AlgebraParams(0, 1)
    series = qexpand("chi_atypical", F(1), params=pr, label=AtypicalWLabel(0, 0))
    terms = dict(series.sorted_items())
    assert terms[(F(0), F(0), F(0))] == GRat(F(1), F(0))


def test_sparse_series_add_term_merges():
    s = SparseSeries(F(2))
    s.add_term(F(1, 2), F(0), F(0), GRat(F(1), F(0)))
    s.add_term(F(1, 2), F(0), F(0), GRat(F(2), F(0)))
    s.add_term(F(3), F(0), F(0), GRat(F(5), F(0)))  # beyond order: dropped
    items = s.sorted_items()
    assert items == [((F(1, 2), F(0), F(0)), GRat(F(3), F(0)))]


def test_qexpand_unsupported_object():
    with pytest.raises(UnsupportedObject):
        qexpand("eta", F(2))


def test_qexpand_needs_level_for_appell():
    with pytest.raises(Exception):
        qexpand("ak", F(2))


def test_qexpand_nonrational_label_rejected():
    pr = AlgebraParams(1, 1)
    with pytest.raises(NonRationalExponents):
        qexpand("chi_atypical", F(2), params=pr, label=AtypicalWLabel(0.1, 0))


def test_chi_atypical_series_matches_numeric():
    pr = AlgebraParams(1, 1)
    label = AtypicalWLabel(F(1, 2), 0)
    series = qexpand("chi_atypical", F(3), params=pr, label=label)
    from mockchar.characters import chi_w_atypical

    u, v, tau = 0.13 + 0.21j, 0.29 + 0.04j, 1.9j
    got = series.eval_at(u, v, tau)
    want = chi_w_atypical(pr, AtypicalWLabel(0.5, 0), u, v, tau)
    assert abs(got - want) / abs(want) < 1e-7


def test_chi_atypical_series_past_empty_pass():
    # with ell' = -1 the first pass of the j loop places no term, but later
    # passes do: the expansion starts at q^0 and must not come back empty
    from mockchar.characters import chi_w_atypical

    pr = AlgebraParams(2, 1)
    series = qexpand("chi_atypical", F(2), params=pr, label=AtypicalWLabel(F(0), -1))
    assert dict(series.sorted_items())[(F(0), F(0), F(0))] == GRat(F(1), F(0))
    u, v, tau = 0.13 + 0.21j, 0.29 + 0.04j, 1.9j
    got = series.eval_at(u, v, tau)
    want = chi_w_atypical(pr, AtypicalWLabel(0, -1), u, v, tau)
    assert abs(got - want) / abs(want) < 1e-7


def naive_mul(a: SparseSeries, b: SparseSeries, z_window) -> SparseSeries:
    """Reference product: the Fraction/GRat pair loop through add_term."""
    out = SparseSeries(min(a.order, b.order))
    for (qa, za, ya), ca in a.terms.items():
        for (qb, zb, yb), cb in b.terms.items():
            if qa + qb <= out.order and abs(za + zb) <= z_window:
                out.add_term(qa + qb, za + zb, ya + yb, ca * cb)
    return out


def assert_same_series(got: SparseSeries, want: SparseSeries):
    # equal as dicts and in insertion order, with Fraction keys and GRat values
    assert got.order == want.order
    assert list(got.terms.items()) == list(want.terms.items())
    for key, coeff in got.terms.items():
        assert all(type(x) is Fraction for x in key)
        assert type(coeff.re) is Fraction and type(coeff.im) is Fraction


COEFFS = (F(0), F(1), F(-1), F(1, 3), F(-1, 3), F(1, 8), F(-5, 6), F(5, 6), F(2))


def random_series(rng: random.Random, order, n_terms: int) -> SparseSeries:
    s = SparseSeries(order)
    for _ in range(n_terms):
        den = rng.choice((1, 2, 3, 8))
        coeff = GRat(rng.choice(COEFFS), rng.choice(COEFFS))
        if not coeff.is_zero:
            # a coarse grid, so that products collide
            s.add_term(F(rng.randint(0, 2 * den), den), F(rng.randint(-3, 3), rng.choice((1, 2, 8))),
                       F(rng.randint(-1, 1), rng.choice((1, 3))), coeff)
    return s


@pytest.mark.parametrize("seed", range(12))
def test_mul_matches_fraction_pair_loop(seed):
    rng = random.Random(seed)
    a = random_series(rng, F(7, 3), rng.randint(20, 40))
    b = random_series(rng, F(5, 2), rng.randint(20, 40))
    for _ in range(4):
        # x * (-t m) and (x m) * t land on one key and cancel
        (qx, zx, yx), cx = rng.choice(list(a.terms.items()))
        (qt, zt, yt), ct = rng.choice(list(b.terms.items()))
        qm, zm = F(1, rng.choice((2, 3))), F(rng.randint(-1, 1), 2)
        a.add_term(qx + qm, zx + zm, yx, cx)
        b.add_term(qt + qm, zt + zm, yt, -ct)
    window = rng.choice((1, 2, F(5, 2), 3))
    assert_same_series(a.mul(b, window), naive_mul(a, b, window))
    assert_same_series(b.mul(a, window), naive_mul(b, a, window))


def test_mul_keeps_boundary_terms_and_pops_cancelled_ones():
    def series(order, *terms):
        s = SparseSeries(order)
        for q, z, y, re, im in terms:
            s.add_term(q, z, y, GRat(F(re), F(im)))
        return s

    c = series(F(2), (F(0), F(0), F(0), 1, 0), (F(1), F(0), F(0), 1, 0), (F(0), F(1), F(0), 1, 0))
    d = series(F(2), (F(1), F(1), F(0), 1, 0), (F(0), F(1), F(0), -1, 0), (F(1), F(0), F(0), 1, 0))
    got = c.mul(d, 2)
    assert_same_series(got, naive_mul(c, d, 2))
    # (q, z) is added, cancelled by q * (-z), then added again by z * q: it
    # comes back at the end of the dict
    assert list(got.terms)[-1] == (F(1), F(1), F(0))
    # exactly at the order and at |z| == z_window: kept; past either: dropped
    e = series(F(2), (F(1), F(1), F(0), 1, 0), (F(1), F(-1), F(0), 1, 0))
    f = series(F(3), (F(1), F(1), F(0), 1, 0), (F(1, 2), F(-2), F(0), 1, 0))
    got = e.mul(f, 2)
    assert_same_series(got, naive_mul(e, f, 2))
    assert (F(2), F(2), F(0)) in got.terms and (F(3, 2), F(-3), F(0)) not in got.terms
    assert (F(2), F(0), F(0)) in got.terms
    assert e.mul(f, 1).terms.keys() == {(F(3, 2), F(-1), F(0)), (F(2), F(0), F(0))}
    g = series(F(1), (F(1, 2), F(0), F(0), 1, 0))
    assert (F(3, 2), F(1), F(0)) not in e.mul(g, 2).terms


def test_mul_with_an_empty_operand():
    a = random_series(random.Random(7), F(3), 20)
    for got in (a.mul(SparseSeries(F(2)), 4), SparseSeries(F(2)).mul(a, 4)):
        assert got.terms == {} and got.order == F(2)


@pytest.mark.parametrize("cell", DEFAULT_GRID)
def test_character_products_match_fraction_pair_loop(cell, monkeypatch):
    products = []
    real_mul = SparseSeries.mul

    def checked_mul(self, other, z_window):
        got = real_mul(self, other, z_window)
        assert_same_series(got, naive_mul(self, other, z_window))
        products.append(len(got))
        return got

    monkeypatch.setattr(SparseSeries, "mul", checked_mul)
    for n2 in (-1, 0, 1, 2):
        for ell_prime in (-1, 0, 1):
            label = AtypicalWLabel(F(n2, 2), ell_prime)
            qexpand("chi_atypical", F(3), params=AlgebraParams(*cell), label=label)
    assert len(products) == 12 and sum(products) > 0


def test_appell_series_keeps_only_the_window():
    narrow = appell_series(2, F(3), z_window=3)
    wide = appell_series(2, F(3))
    assert narrow.terms and all(abs(z) <= 3 for _, z, _ in narrow.terms)
    assert list(narrow.terms.items()) == [kv for kv in wide.terms.items() if abs(kv[0][1]) <= 3]


def test_cached_atypical_lead_gives_the_uncached_series(monkeypatch):
    # two labels at one order share the cached -i theta1/eta^3; each result,
    # dict order included, equals the series built with a fresh lead
    from mockchar import qseries

    order = F(9, 2)
    pr = AlgebraParams(1, 1)
    labels = (AtypicalWLabel(F(1, 2), 0), AtypicalWLabel(F(-1, 2), 1))
    qseries._atypical_lead.cache_clear()
    cached = [qexpand("chi_atypical", order, params=pr, label=lb) for lb in labels]
    assert qseries._atypical_lead.cache_info().hits == 1
    fresh_lead = qseries.theta1_over_eta3_series(order).scaled(qseries.MINUS_I)
    assert_same_series(qseries._atypical_lead(order), fresh_lead)  # not mutated by use
    monkeypatch.setattr(qseries, "_atypical_lead", qseries._atypical_lead.__wrapped__)
    for label, got in zip(labels, cached):
        assert_same_series(got, qexpand("chi_atypical", order, params=pr, label=label))


# ---------------------------------------------------------------------------
# integer expansions against the Fraction ones of qseries_reference

# the orders and labels of the expand workload's deck (perfbench/workloads.py)
DECK_ORDERS = tuple(F(k, 2) for k in range(4, 17))  # 2, 5/2, ..., 8
DECK_LABELS = tuple(AtypicalWLabel(F(n2, 2), lp) for n2 in (-1, 0, 1, 2) for lp in (-1, 0, 1))


@pytest.mark.parametrize("seed", range(4))
def test_integer_terms_add_and_pop_as_add_term(seed):
    # keys on a small grid collide and cancel; both paths keep the same terms
    # in the same order, and the integer one shares equal Fractions and GRats
    from mockchar import qseries

    rng = random.Random(seed)
    acc: dict = {}
    want = SparseSeries(F(3))
    for _ in range(400):
        q, z, y, c = rng.randint(0, 9), rng.randint(-3, 3), rng.randint(-1, 1), rng.randint(-2, 2)
        qseries._add(acc, (q, z, y), c)
        want.add_term(F(q, 3), F(z, 2), F(y), GRat(F(c), F(0)))
    got = SparseSeries._of(F(3), {k: (c, 0) for k, c in acc.items()}, 3, 2, 1)
    assert_same_series(got, want)
    assert len({id(c) for c in got.terms.values()}) == len(set(got.terms.values()))


def test_eta3_inverse_coefficients_are_the_fraction_ones_as_int():
    got = eta3_inverse_qcoeffs(40)
    assert all(type(c) is int for c in got)
    assert got == ref.eta3_inverse_qcoeffs(40)
    assert eta3_inverse_qcoeffs(0) == [1]


@pytest.mark.parametrize("order", DECK_ORDERS + (F(7, 3), F(1, 8), F(0), F(-1, 2)))
def test_theta_expansions_match_fraction_reference(order):
    assert_same_series(qexpand("theta1", order), ref.theta1_series(order))
    assert_same_series(qexpand("theta1_over_eta3", order), ref.theta1_over_eta3_series(order))


@pytest.mark.parametrize("level", range(1, 8))
def test_appell_expansion_matches_fraction_reference(level):
    for order in DECK_ORDERS + (F(7, 3),):
        assert_same_series(qexpand("ak", order, level=level), ref.appell_series(level, order))
    for window in (0, 1, 3):
        assert_same_series(appell_series(level, F(7, 3), window), ref.appell_series(level, F(7, 3), window))


@pytest.mark.parametrize("cell", DEFAULT_GRID)
def test_atypical_expansion_matches_fraction_reference_on_the_deck(cell):
    params = AlgebraParams(*cell)
    for order in DECK_ORDERS:
        for label in DECK_LABELS:
            got = qexpand("chi_atypical", order, params=params, label=label)
            assert_same_series(got, ref.chi_w_atypical_series(params, label, order))


@pytest.mark.parametrize("cell", DEFAULT_GRID)
def test_atypical_expansion_matches_fraction_reference_off_the_deck(cell):
    # n' with denominator 4 and 8, an order with denominator 3, narrow windows
    params = AlgebraParams(*cell)
    for n_prime, ell_prime, order, window in (
        (F(1, 4), 0, F(7, 3), None),
        (F(-3, 4), 1, F(7, 3), 3),
        (F(3, 8), -1, F(9, 4), None),
        (F(5, 2), 1, F(7, 3), 2),
        (F(-9, 4), -1, F(3), 0),
    ):
        label = AtypicalWLabel(n_prime, ell_prime)
        got = qexpand("chi_atypical", order, params=params, label=label, z_window=window)
        assert_same_series(got, ref.chi_w_atypical_series(params, label, order, window))


# ---------------------------------------------------------------------------
# the integer form and its exact view

VIEW_ORDERS = (F(2), F(7, 2), F(8))


def every_object(order):
    """(name, series) for every object qexpand knows, at one order."""
    yield "theta1", qexpand("theta1", order)
    yield "theta1_over_eta3", qexpand("theta1_over_eta3", order)
    for level in range(1, 8):
        yield "ak%d" % level, qexpand("ak", order, level=level)
    for cell in DEFAULT_GRID:
        for label in DECK_LABELS + (AtypicalWLabel(F(2, 3), 1), AtypicalWLabel(F(-3, 8), 0)):
            yield "chi%s%s" % (cell, label), qexpand("chi_atypical", order, params=AlgebraParams(*cell), label=label)


def test_qexpand_builds_no_fraction_until_the_terms_are_read(monkeypatch):
    from mockchar import qseries

    made = []

    class Meta(type):
        def __instancecheck__(cls, obj):
            return isinstance(obj, Fraction)

        def __call__(cls, *args):
            made.append(args)
            return Fraction(*args)

    monkeypatch.setattr(qseries, "Fraction", Meta("CountedFraction", (), {}))
    qseries._atypical_lead.cache_clear()
    for order in VIEW_ORDERS:
        built = list(every_object(order))
        assert not made, made[:5]
        for name, series in built[:3] + built[-3:]:
            items = series.sorted_items()
            # each distinct exponent once, each distinct coefficient's two parts once
            assert items and 0 < len(made) <= 5 * len(items), name
            made.clear()
            view = series.terms
            assert dict(items) == view and made, name
            made.clear()
            assert series.terms is view and not made, name  # built on the first read only
    qseries._atypical_lead.cache_clear()


def fraction_view_sum(series: SparseSeries, u, v, tau) -> complex:
    """eval_at as it read the Fraction terms: the reference for the integer one."""
    import cmath

    from mockchar.domain import TWO_PI_I

    acc = 0.0 + 0.0j
    for (qe, zp, yp), coeff in series.terms.items():
        acc += coeff.to_complex() * cmath.exp(TWO_PI_I * (float(qe) * tau + float(zp) * u + float(yp) * v))
    return acc


def test_eval_at_is_bit_identical_to_the_fraction_view_sum():
    points = ((0.11 + 0.2j, 0.05 + 0.01j, 0.1 + 1.5j), (-0.23 + 0.3j, 0.31 - 0.05j, -0.3 + 2.2j))
    rng = random.Random(5)
    a = random_series(rng, F(7, 3), 40)
    b = random_series(rng, F(5, 2), 40)
    extra = [("random", a), ("product", a.mul(b, F(5, 2))), ("scaled", b.scaled(GRat(F(2, 3), F(-1, 5))))]
    for order in VIEW_ORDERS:
        for name, series in list(every_object(order)) + extra:
            for u, v, tau in points:
                got, want = series.eval_at(u, v, tau), fraction_view_sum(series, u, v, tau)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), name


def test_add_term_widens_the_scales_and_keeps_the_view_current():
    s = SparseSeries(F(3))
    s.add_term(F(1), F(1), F(0), GRat(F(1), F(0)))
    assert s.terms == {(F(1), F(1), F(0)): GRat(F(1), F(0))}
    s.add_term(F(1, 3), F(-1, 2), F(1, 5), GRat(F(1, 7), F(-2, 9)))
    s.add_term(F(1), F(1), F(0), GRat(F(-1), F(0)))  # cancels the first term
    assert (s.dq, s.dz, s.dy, s.dc) == (3, 2, 5, 63)
    assert list(s.terms.items()) == [((F(1, 3), F(-1, 2), F(1, 5)), GRat(F(1, 7), F(-2, 9)))]
    with pytest.raises(TypeError):
        s.terms[(F(0), F(0), F(0))] = GRat(F(1))  # the view is read-only
    # equal series on different scales compare equal; a different one does not
    t = SparseSeries(F(3), {(F(1, 3), F(-1, 2), F(1, 5)): GRat(F(1, 7), F(-2, 9))})
    assert s == t and len(s) == len(t) == 1
    t.add_term(F(2), F(0), F(0), GRat(F(1, 2)))
    t.add_term(F(2), F(0), F(0), GRat(F(-1, 2)))
    assert s == t and (t.dq, t.dc) == (3, 126)
    t.add_term(F(2), F(0), F(0), GRat(F(1, 2)))
    assert s != t


@pytest.mark.parametrize("cell", DEFAULT_GRID)
def test_exact_rational_labels_match_the_fraction_reference(cell):
    # n' = 2/3 and friends stay Fractions on the label, so their exponents stay exact
    params = AlgebraParams(*cell)
    for n_prime in (F(2, 3), F(-1, 3), F(5, 6), F(-7, 5)):
        for ell_prime in (-1, 0, 1):
            label = AtypicalWLabel(n_prime, ell_prime)
            assert label.n_prime is n_prime
            for order in (F(2), F(7, 2)):
                got = qexpand("chi_atypical", order, params=params, label=label)
                assert_same_series(got, ref.chi_w_atypical_series(params, label, order))
