import random
from fractions import Fraction as F

import pytest

from waring.exactla import ExactMatrix
from waring.flattenings import cat_border_rank_lb, cat_matrix
from waring.forms import (
    LinearForm,
    parse_polynomial,
    power_form,
    random_power_sum,
    zero_form,
)
from waring.invariants import (
    aronhold,
    aronhold_rank_test,
    certify,
    sextic_det33,
    strategy,
)
from waring.youngflat import (
    symmetric_twisted_flattening,
    yf_border_rank_lb,
    young_flattening,
)


def test_aronhold_vanishes_on_low_rank():
    assert aronhold(parse_polynomial("x0^3", nvars=3)) == 0
    assert aronhold(parse_polynomial("x0^3 + x1^3 + x2^3")) == 0
    for seed in range(10):
        phi, _ = random_power_sum(3, 3, 3, seed=200 + seed)
        assert aronhold(phi) == 0


def test_aronhold_nonzero_off_the_hypersurface():
    four = parse_polynomial("x0^3 + x1^3 + x2^3") + power_form(
        LinearForm((F(1), F(1), F(1))), 3
    )
    assert aronhold(four) != 0
    phi, _ = random_power_sum(3, 3, 4, seed=7)
    assert aronhold(phi) != 0


def test_aronhold_degree_four_homogeneity():
    phi, _ = random_power_sum(3, 3, 4, seed=7)
    base = aronhold(phi)
    for t in (F(2), F(-1, 3), F(7, 5)):
        assert aronhold(phi.scale(t)) == t**4 * base


def test_aronhold_wrong_shape():
    with pytest.raises(ValueError):
        aronhold(parse_polynomial("x0^4", nvars=3))
    with pytest.raises(ValueError):
        aronhold(parse_polynomial("x0^3", nvars=2))


def test_principal_pfaffians_proportional():
    values = []
    for seed in range(8):
        phi, _ = random_power_sum(3, 3, 5, seed=300 + seed)
        m = young_flattening(phi).matrix
        values.append(
            [
                m.principal_submatrix([i for i in range(9) if i != k]).pfaffian()
                for k in range(9)
            ]
        )
    # as vectors over many forms, the nine Pfaffians span one dimension
    assert ExactMatrix(values).rank() == 1


def test_aronhold_rank_test():
    phi3, _ = random_power_sum(3, 3, 3, seed=5)
    assert aronhold_rank_test(phi3)
    phi4, _ = random_power_sum(3, 3, 4, seed=5)
    assert not aronhold_rank_test(phi4)
    assert aronhold_rank_test(zero_form(3, 3))


def test_sextic_det33():
    phi9, _ = random_power_sum(3, 6, 9, seed=1)
    assert sextic_det33(phi9) == 0
    phi10, _ = random_power_sum(3, 6, 10, seed=1)
    assert sextic_det33(phi10) != 0
    l = LinearForm((F(2), F(3), F(-1)))
    assert sextic_det33(power_form(l, 6)) == 0
    with pytest.raises(ValueError):
        sextic_det33(parse_polynomial("x0^5", nvars=3))


def test_sextic_det33_degree_ten():
    phi, _ = random_power_sum(3, 6, 10, seed=2)
    base = sextic_det33(phi)
    t = F(3, 2)
    assert sextic_det33(phi.scale(t)) == t**10 * base


def test_strategy_chart_rows():
    row = strategy(2, 5, 6)
    assert row.status == "scheme"
    assert row.tests[0].threshold == 12
    assert "14" in row.tests[0].label

    row = strategy(2, 6, 9)
    assert row.status == "ideal"
    assert row.tests[0].invariant == "det33"

    row = strategy(5, 2, 4)
    assert row.status == "ideal"
    assert row.tests[0].threshold == 4 and row.tests[0].a == 1

    row = strategy(2, 3, 3)
    assert row.status == "ideal"
    assert row.tests[0].invariant == "aronhold"

    row = strategy(3, 7, 2)
    assert row.status == "ideal"
    assert len(row.tests) == 2

    row = strategy(2, 7, 7)
    assert "sub-Pfaffians" in row.tests[0].label
    assert row.tests[0].threshold == 14


def test_strategy_not_known_sharp():
    row = strategy(2, 7, 11)
    assert not row.known_sharp
    assert any("NOT-KNOWN-SHARP" in note for note in row.notes)
    sharp = strategy(2, 5, 6)
    assert sharp.known_sharp


def test_strategy_generic_fallback():
    row = strategy(3, 5, 4)
    assert row.source == "generic flattening pair"
    kinds = {t.kind for t in row.tests}
    assert "cat" in kinds


def test_certify_excludes_seven_quintic_powers_from_sigma6():
    phi, _ = random_power_sum(3, 5, 7, seed=4)
    report = certify(phi, 6)
    assert report.verdict == "EXCLUDED"
    assert report.border_rank_lb == 7
    yf_result = [t for t in report.results if t.kind == "yf"][0]
    assert yf_result.rank == 14 and yf_result.threshold == 12


def test_certify_consistent_on_power():
    l = LinearForm((F(1), F(2), F(1)))
    report = certify(power_form(l, 4), 1)
    assert report.verdict == "CONSISTENT"
    assert not report.excluded


def test_certify_cubic_rank3_reports_aronhold():
    phi, _ = random_power_sum(3, 3, 3, seed=9)
    report = certify(phi, 3)
    assert report.verdict == "CONSISTENT"
    aron = [t for t in report.results if t.invariant_name == "aronhold"][0]
    assert aron.invariant_value == 0


def test_certify_soundness_never_excludes_true_sums():
    cases = [(2, 4, 3), (2, 5, 5), (2, 6, 7), (1, 6, 2), (3, 3, 4), (2, 3, 2)]
    for i, (n, d, r) in enumerate(cases):
        phi, _ = random_power_sum(n + 1, d, r, seed=400 + i)
        report = certify(phi, r)
        assert report.verdict == "CONSISTENT", (n, d, r)


def test_certificate_json_shape():
    phi, _ = random_power_sum(3, 6, 9, seed=3)
    report = certify(phi, 9)
    obj = report.to_json()
    assert obj["verdict"] == "CONSISTENT"
    assert obj["consistent_is_not_membership_proof"] is True
    for t in obj["tests"]:
        assert isinstance(t["rank"], int)
        assert isinstance(t["threshold"], int)
    det_entries = [t for t in obj["tests"] if "det33" in t]
    assert det_entries and det_entries[0]["det33"] == "0"



# (nvars, degree, r, seed): the Aronhold, quintic, twisted, det33, septic and
# five-variable rows of the strategy table
CERTIFY_ROWS = [
    (3, 3, 3, 11),
    (3, 5, 5, 12),
    (3, 6, 7, 13),
    (3, 6, 9, 14),
    (3, 7, 9, 15),
    (5, 5, 6, 16),
]


@pytest.mark.parametrize("nvars, d, r, seed", CERTIFY_ROWS)
def test_certify_ranks_each_matrix_once(monkeypatch, nvars, d, r, seed):
    ranked = []
    rank = ExactMatrix.rank

    def recording_rank(m):
        ranked.append((m.shape, m.rows))
        return rank(m)

    phi, _ = random_power_sum(nvars, d, r, seed=seed)
    monkeypatch.setattr(ExactMatrix, "rank", recording_rank)
    report = certify(phi, r)
    monkeypatch.undo()
    repeats = len(ranked) - len(set(ranked))
    assert repeats == 0, [shape for shape, _ in ranked]

    # the report equals one computed from freshly built flattenings
    n = nvars - 1
    for test, result in zip(strategy(n, d, r).tests, report.results, strict=True):
        if test.kind == "cat":
            fresh = cat_matrix(phi, test.a)
        elif test.kind == "yf":
            fresh = young_flattening(phi).matrix
        else:
            fresh = symmetric_twisted_flattening(phi, (d - 2) // 2)
        assert (result.shape, result.rank) == (fresh.shape, fresh.rank())
        assert result.excluded == (result.rank > test.threshold)
        if test.invariant == "det33":
            assert result.invariant_value == sextic_det33(phi)
        elif test.invariant == "aronhold":
            assert result.invariant_value == aronhold(phi)
    lb = cat_border_rank_lb(phi)
    if n == 2 or (n % 2 == 0 and d % 2 == 1):
        lb = max(lb, yf_border_rank_lb(phi))
    assert report.border_rank_lb == lb


def test_cubic_second_secant_ranks_one_catalecticant(monkeypatch):
    # the (2,1) catalecticant of a cubic is the transpose of the (1,2)
    row = strategy(3, 3, 2)
    assert [(t.kind, t.a) for t in row.tests] == [("cat", 1)]
    assert len(strategy(3, 4, 2).tests) == 2
    calls = []
    rank = ExactMatrix.rank

    def counting_rank(m):
        calls.append(m.shape)
        return rank(m)

    phi, _ = random_power_sum(4, 3, 2, seed=1)
    monkeypatch.setattr(ExactMatrix, "rank", counting_rank)
    report = certify(phi, 2)
    monkeypatch.undo()
    assert calls == [(10, 4)]
    assert [t.rank for t in report.results] == [2]
    assert report.verdict == "CONSISTENT"
    assert report.border_rank_lb == 2
