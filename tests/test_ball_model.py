import math

import numpy as np
import pytest

from padic_heat import BallModel, Constants, ball_model, coefficient_ap, lambda_value
from padic_heat.ball_model import freq_abs_table, point_abs_table, valuation_table

from tests.conftest import alarm


def brute_valuation(n, p, cap):
    # count base-p trailing zeros directly
    if n == 0:
        return cap
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_valuation_against_digit_count():
    for p in (2, 3, 5):
        model = BallModel(p, 1, 3)
        S = model.S
        for n in range(S):
            assert model.valuation(n) == brute_valuation(n, p, model.N + model.M)


def test_point_abs_values():
    model = BallModel(2, 1, 3)
    # x = n * p^-N; |x| = p^(N - v(n)), with 0 mapped to the 0.0 sentinel
    assert model.point_abs(0) == 0.0
    assert model.point_abs(1) == 2.0
    assert model.point_abs(2) == 1.0
    assert model.point_abs(4) == 0.5
    assert model.point_abs(8) == 0.25
    assert model.point_abs(3) == 2.0


def test_freq_abs_values():
    model = BallModel(2, 1, 3)
    assert model.freq_abs(0) == 0.0
    assert model.freq_abs(1) == 8.0
    assert model.freq_abs(2) == 4.0
    assert model.freq_abs(8) == 1.0


def test_tables_match_scalar_accessors(model_alpha):
    model, _ = model_alpha
    vt = valuation_table(model)
    pt = point_abs_table(model)
    ft = freq_abs_table(model)
    for n in range(model.S):
        assert vt[n] == model.valuation(n)
        assert pt[n] == model.point_abs(n)
        assert ft[n] == model.freq_abs(n)
    with pytest.raises(ValueError):
        vt[0] = 7  # read-only


def test_character_is_group_homomorphism():
    model = BallModel(3, 0, 3)
    S = model.S
    rng = np.random.default_rng(0)
    for _ in range(200):
        n1, n2, k = rng.integers(0, S, size=3)
        lhs = model.character(int((n1 + n2) % S), int(k))
        rhs = model.character(int(n1), int(k)) * model.character(int(n2), int(k))
        assert abs(lhs - rhs) < 1e-14


def test_character_orthogonality():
    # sum_n chi(n k) = S * [k == 0], to rounding
    for p, levels in ((2, 6), (3, 4)):
        model = BallModel(p, 0, levels)
        S = model.S
        n = np.arange(S)
        for k in range(S):
            total = sum(model.character(int(j), k) for j in n)
            expected = S if k == 0 else 0.0
            assert abs(total - expected) < 1e-11 * S


def test_ultrametric_inequality_exhaustive():
    model = BallModel(2, 0, 5)
    S = model.S
    pt = point_abs_table(model)
    for a in range(S):
        for b in range(S):
            assert pt[(a + b) % S] <= max(pt[a], pt[b]) + 1e-15


def test_lambda_closed_forms_agree():
    # (p-1)/(p^(alpha+1)-1) * p^(alpha(1-N))  ==  (1-1/p)/(1-p^(-alpha-1)) * p^(-alpha N)
    for p in (2, 3, 5, 7):
        for N in (-2, -1, 0, 1, 3):
            for alpha in (0.5, 1.0, 1.5, 2.0, 3.7):
                a = (p - 1) / (p ** (alpha + 1) - 1) * float(p) ** (alpha * (1 - N))
                b = (1 - 1 / p) / (1 - float(p) ** (-alpha - 1)) * float(p) ** (-alpha * N)
                lam = lambda_value(p, alpha, N)
                assert abs(lam - a) <= 1e-13 * abs(a)
                assert abs(lam - b) <= 1e-13 * abs(b)


def test_lambda_pinned_value():
    assert abs(lambda_value(2, 1.0, 0) - 2.0 / 3.0) < 1e-15


def test_coefficient_ap_sign_and_value():
    # (1 - p^alpha) / (1 - p^(-alpha-1)) is negative for alpha > 0
    for p in (2, 3, 5):
        for alpha in (0.5, 1.0, 2.0):
            a = coefficient_ap(p, alpha)
            assert a < 0
    assert abs(coefficient_ap(2, 1.0) - (1 - 2.0) / (1 - 0.25)) < 1e-15


def test_constants_container():
    c = Constants(2, 1.0, 0)
    assert abs(c.lam - 2.0 / 3.0) < 1e-15
    assert c.a_p == coefficient_ap(2, 1.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        BallModel(4, 0, 3)  # not prime
    with pytest.raises(ValueError):
        BallModel(2, 0, -1)  # N + M < 0
    with pytest.raises(ValueError):
        BallModel(2, 10, 30)  # exceeds order cap
    with pytest.raises(ValueError):
        lambda_value(2, 0.0, 0)
    with pytest.raises(ValueError):
        lambda_value(2, -1.0, 0)
    with pytest.raises(ValueError):
        coefficient_ap(2, 0.0)
    model = BallModel(2, 0, 3)
    with pytest.raises(IndexError):
        model.valuation(model.S)
    with pytest.raises(IndexError):
        model.valuation(-1)


@pytest.mark.parametrize("bad", [-1.5, -1.0, True])
def test_exponents_must_be_integers(bad):
    # N = 0.5 built a model of S = 11.31, and True read as N = 1
    for N, M in ((bad, 3), (0, bad)):
        with pytest.raises(ValueError, match="N and M must be integers"):
            BallModel(2, N, M)


def test_numpy_integer_exponents_give_the_int_model():
    model = BallModel(3, np.int64(-1), np.int64(4))
    assert model == BallModel(3, -1, 4) and model.S == 27
    assert np.array_equal(point_abs_table(model), point_abs_table(BallModel(3, -1, 4)))
    # the order is formed in Python ints: 3**40 in int64 wrapped to a
    # negative S, and 2**64 to 0, both under the cap
    for p, M in ((3, 40), (2, 64)):
        with pytest.raises(ValueError, match=rf"= {p ** M} exceeds the cap"):
            BallModel(p, np.int64(0), np.int64(M))


def test_an_order_past_the_cap_is_refused_before_p_is_tested(monkeypatch):
    # p**(N+M) of a huge N+M, and the trial division of a huge p, ran for
    # hours; an order past 4096 bits is named by its power, not formed
    tested = []
    monkeypatch.setattr(ball_model, "_is_prime", lambda n: tested.append(n) or True)
    for p, N, M in ((2, 10 ** 300, 0), (3, -5, 10 ** 18), (10 ** 300 + 7, 0, 5)):
        with pytest.raises(ValueError, match=rf"= {p}\*\*{N + M} exceeds the cap"):
            BallModel(p, N, M)
    for p, M in ((10 ** 300 + 7, 3), (2 ** 61 - 1, 1)):
        with pytest.raises(ValueError, match=rf"= {p ** M} exceeds the cap"):
            BallModel(p, 0, M)
    assert not tested
    # orders up to 4096 bits keep their message
    for p, N, M, order in ((2, 10, 30, 2 ** 40), (2, 0, 2000, 2 ** 2000), (1048583, 0, 1, 1048583)):
        with pytest.raises(ValueError) as err:
            BallModel(p, N, M)
        assert str(err.value) == f"group order p**(N+M) = {order} exceeds the cap 1048576"


def test_is_prime_gives_the_sieve_verdict_below_10_5():
    limit = 10 ** 5
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d::d] = False
    assert [ball_model._is_prime(n) for n in range(limit)] == sieve.tolist()


def test_huge_p_is_decided_without_trial_division():
    # trial division up to sqrt(p) ran for hours at p = 2**61 - 1
    mersenne = 2 ** 61 - 1
    with alarm(5):
        assert BallModel(mersenne, 1, -1).S == 1
        assert Constants(mersenne, 1.0, 0).p == mersenne
        assert ball_model._is_prime(2 ** 31 - 1) and ball_model._is_prime(10 ** 9 + 7)
        for composite in (2 ** 61 + 1, 2 ** 67 - 1, (2 ** 31 - 1) * (10 ** 9 + 7),
                          # strong pseudoprimes to the prime bases 2..23 and 2..37
                          3825123056546413051, 318665857834031151167461):
            assert not ball_model._is_prime(composite)
            with pytest.raises(ValueError, match="must be a prime"):
                BallModel(composite, 0, 0)
        with pytest.raises(ValueError, match="must be prime"):
            Constants(3.0, 1.0, 0)
        # the limit itself is a strong pseudoprime to all 13 bases
        for p in (ball_model._PRIME_TEST_LIMIT, 10 ** 300 + 7):
            with pytest.raises(ValueError, match="too large to test for primality"):
                BallModel(p, 0, 0)
            with pytest.raises(ValueError, match="too large to test for primality"):
                Constants(p, 1.0, 0)


def test_degenerate_single_point_model():
    model = BallModel(3, 2, -2)
    assert model.S == 1
    assert model.valuation(0) == 0
    assert model.point_abs(0) == 0.0


def test_model_is_hashable_and_frozen():
    m1 = BallModel(2, 0, 3)
    m2 = BallModel(2, 0, 3)
    assert m1 == m2
    assert hash(m1) == hash(m2)
    with pytest.raises(Exception):
        m1.p = 3
