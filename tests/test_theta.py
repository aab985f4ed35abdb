import cmath
import importlib
import random
import struct
from dataclasses import replace

import pytest

from ice_colors.theta import (_THETA_MEMO, ModelParams, NearSingularError,
                              OMEGA, ParamSampler, det_complex, partition_filali,
                              partition_transfer, resample, theta, turn_weight,
                              vertex_weight)
from ice_colors.verify import relerr

from oracles import brute_sum_per_state


def sampler():
    return ParamSampler(20240517)


def test_theta_zero_nome_is_linear():
    s = sampler()
    for x in [s.unit() for _ in range(10)] + [1.3e8 + 0j, 1 / 1.3e8, -2.5, 3j]:
        for p in (0j, 0, 0.0):
            assert theta(x, p) == 1 - x, (x, p)


def two_factor_theta(x, p):
    """theta as the product of both factors of each j, truncated as theta
    truncates: the form that theta's expanded factor replaced."""
    ap = abs(p)
    scale = ap * max(abs(x), 1 / abs(x), 1.0)
    result, pj = 1 + 0j, 1 + 0j
    for _ in range(2000):
        result *= (1 - pj * x) * (1 - pj * p / x)
        pj *= p
        if not scale >= 1e-17:
            break
        scale *= ap
    return result


def test_expanded_factor_matches_two_factor_product():
    # The sampler's boxes, their cubes as the triple-product and G-bridge
    # checks take them, and moduli out to 1.3e8 either way, as verify's
    # cubed exponentials reach, with |p| <= 0.3.
    s, rng = sampler(), random.Random(11)
    args = []
    for _ in range(400):
        x, p = s.unit(), s.nome()
        args += [(x, p), ((x * s.unit()) ** 3, p**3)]
    for _ in range(800):
        x = 10 ** rng.uniform(-8.12, 8.12) * cmath.exp(2j * cmath.pi * rng.random())
        args.append((x, rng.uniform(0, 0.3) * cmath.exp(2j * cmath.pi * rng.random())))
    args += [(x, 0.3 * u) for x in (1.3e8 + 0j, 1 / 1.3e8 + 0j, -1.3e8j)
             for u in (1, -1, 1j, OMEGA)]
    for x, p in args:
        assert relerr(theta.__wrapped__(x, p), two_factor_theta(x, p)) <= 1e-13, (x, p)


def test_theta_vanishes_at_one():
    s = sampler()
    for _ in range(10):
        assert abs(theta(1 + 0j, s.nome())) < 1e-14


def test_theta_domain_errors():
    with pytest.raises(ValueError):
        theta(0j, 0.1 + 0j)
    with pytest.raises(ValueError):
        theta(1 + 1j, 1.2 + 0j)


def test_theta_memo_is_bit_identical():
    # Draws from twice as many pairs as the memo holds: repeats come back
    # from it, and pairs it has let go are computed afresh; every value must
    # equal the product's own, to the bit.
    s, rng = sampler(), random.Random(5)
    pairs = [(s.unit(), s.nome()) for _ in range(2 * _THETA_MEMO)]

    def bits(z):
        return struct.pack("<dd", z.real, z.imag)

    theta.cache_clear()
    for _ in range(4000):
        x, p = rng.choice(pairs)
        assert bits(theta(x, p)) == bits(theta.__wrapped__(x, p))
    memo = theta.cache_info()
    assert memo.maxsize == _THETA_MEMO
    assert memo.hits > 1000 and memo.misses > len(pairs)


def test_theta_quasi_periodicity():
    s = sampler()
    for _ in range(100):
        x, p = s.unit(), s.nome()
        ref = -theta(x, p) / x
        assert relerr(theta(p * x, p), ref) < 1e-12
        assert relerr(theta(1 / x, p), ref) < 1e-12


def test_theta_truncation_stability():
    # the adaptive truncation agrees with a 400-factor product to 1e-12
    def long_product(x, p):
        result = 1 + 0j
        for j in range(400):
            result *= (1 - p**j * x) * (1 - p ** (j + 1) / x)
        return result

    s = sampler()
    for _ in range(50):
        x, p = s.unit(), s.nome()
        assert relerr(theta(x, p), long_product(x, p)) < 1e-12


def test_bracket_basics():
    s = sampler()
    params = s.params(2)
    assert abs(params.bracket(0)) < 1e-14
    assert abs(params.bracket(1)) > 1e-10
    for _ in range(100):
        x = s.exponent()
        assert relerr(params.bracket(x), -params.bracket(-x)) < 1e-12


def test_vertex_weight_examples():
    s = sampler()
    params = s.params(1)
    lam = s.exponent()
    for z in (-2, 0, 3):
        assert vertex_weight("a+", lam, z, params) == vertex_weight("a-", lam, z, params)
    assert abs(vertex_weight("b+", 0j, 1, params)) < 1e-13
    assert abs(vertex_weight("c+", 0j, 2, params) - 1) < 1e-13
    assert abs(turn_weight("k+", 0j, 0, params) - 1) < 1e-13
    assert abs(turn_weight("k-", 0j, 0, params) - 1) < 1e-13
    with pytest.raises(ValueError):
        vertex_weight("z+", lam, 0, params)


def test_turn_weight_negative_ignores_height():
    s = sampler()
    params = s.params(1)
    lam = s.exponent()
    assert turn_weight("k-", lam, 0, params) == turn_weight("k-", lam, 5, params)


def test_partition_transfer_n1_matches_hand_sum():
    # The two n=1 states written out directly in bracket form.
    s = sampler()
    params = s.params(1)
    br = params.bracket
    lam, mu = params.lam[0], params.mu[0]
    rho, zeta = params.rho, params.zeta
    negative_turn = (br(lam + mu) * br(rho - 1) * br(rho - lam + mu) * br(zeta - lam)
                     / (br(rho) ** 2 * br(1) * br(zeta + lam)))
    positive_turn = (br(rho + lam + mu) * br(lam - mu) * br(rho - 1)
                     * br(rho + zeta - lam)
                     / (br(rho) ** 2 * br(1) * br(rho + zeta + lam)))
    assert relerr(partition_transfer(1, params), negative_turn + positive_turn) < 1e-12


def sum_outcome(total, n, params):
    try:
        return total(n, params)
    except NearSingularError:
        return "near-singular"


def test_partition_transfer_matches_per_state_oracle():
    # The transfer evaluates the local weights of exactly the states' rows,
    # so it raises on exactly the draws where some used weight is
    # near-singular, and otherwise agrees with the per-state sum up to the
    # rounding of a different summation order.  An integer rho puts the
    # zero of [rho + z] on some face height, and zeta = -lambda_1 that of
    # the k- turn's denominator.  Each line is summed per (below, above)
    # before the product with the frontier value, so n = 4 gets two draws.
    s = ParamSampler(7)
    outcomes = []
    for n, count in ((1, 30), (2, 30), (3, 30), (4, 2)):
        for _ in range(count):
            params = s.params(n)
            draws = [params, replace(params, rho=0j), replace(params, rho=-1 + 0j),
                     replace(params, zeta=-params.lam[0])]
            for draw in draws:
                want = sum_outcome(brute_sum_per_state, n, draw)
                got = sum_outcome(partition_transfer, n, draw)
                if want == "near-singular":
                    assert got == want
                else:
                    assert got != "near-singular" and relerr(got, want) <= 1e-10
                outcomes.append(want)
    raised = outcomes.count("near-singular")
    assert raised > 0 and len(outcomes) - raised >= 90


def test_partition_filali_n1_structure():
    s = sampler()
    params = s.params(1)
    br = params.bracket
    lam, mu = params.lam[0], params.mu[0]
    rho, zeta = params.rho, params.zeta
    expected = (br(2 * lam) * br(zeta - mu) * br(rho + zeta + mu) * br(rho - 1)
                / (br(1) * br(zeta + lam) * br(rho + zeta + lam) * br(rho)))
    assert relerr(partition_filali(1, params), expected) < 1e-12


def test_partition_routes_agree():
    s = sampler()
    for n in (1, 2, 3):
        for _ in range(3):
            def draw(n=n):
                params = s.params(n)
                return relerr(partition_transfer(n, params), partition_filali(n, params))

            assert resample(draw) < 1e-8


def test_partition_symmetric_under_lambda_swap():
    s = sampler()

    def draw():
        params = s.params(2)
        swapped = ModelParams(params.p, params.eta,
                              (params.lam[1], params.lam[0]), params.mu,
                              params.rho, params.zeta)
        return (relerr(partition_transfer(2, params), partition_transfer(2, swapped)),
                relerr(partition_filali(2, params), partition_filali(2, swapped)))

    sum_gap, det_gap = resample(draw)
    assert sum_gap < 1e-10
    assert det_gap < 1e-8


def test_det_complex_small():
    assert det_complex([[2 + 0j]]) == 2 + 0j
    assert abs(det_complex([[1 + 0j, 2 + 0j], [3 + 0j, 4 + 0j]]) + 2) < 1e-14
    assert det_complex([[1 + 0j, 1 + 0j], [1 + 0j, 1 + 0j]]) == 0j


def test_det_complex_vs_product_of_eigen_structure():
    # triangular case: determinant is the diagonal product
    m = [[2 + 1j, 5 - 2j, 0.5j], [0j, 1 - 1j, 3 + 0j], [0j, 0j, -2 + 0.25j]]
    want = (2 + 1j) * (1 - 1j) * (-2 + 0.25j)
    assert relerr(det_complex(m), want) < 1e-14


def test_resample_gives_up():
    def always_bad():
        raise NearSingularError("no")

    with pytest.raises(NearSingularError):
        resample(always_bad, attempts=3)


def test_mismatched_parameter_count():
    s = sampler()
    with pytest.raises(ValueError):
        partition_transfer(2, s.params(1))


def test_bracket_evaluated_once_per_argument(monkeypatch):
    # One n = 3 state sum takes a few hundred local weights, but only a few
    # dozen distinct bracket arguments; each is evaluated once per draw.
    module = importlib.import_module("ice_colors.theta")
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return theta(*args, **kwargs)

    monkeypatch.setattr(module, "theta", counting)
    partition_transfer(3, sampler().params(3))
    assert 0 < calls < 200


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1.5 + 0j, 0.2, (0j,), (0j,), 0j, 0j)
    with pytest.raises(ValueError):
        ModelParams(0.1 + 0j, 0.2, (0j, 0j), (0j,), 0j, 0j)


def test_supersymmetric_params_shape():
    s = sampler()
    params = s.supersymmetric_params(3)
    assert params.eta == pytest.approx(-2 / 3)
    assert params.lam == (1 + 0j,) * 3
    assert params.mu[:2] == (0j, 0j)
    q = params.q_pow(0.25)
    assert relerr(q, -OMEGA) < 1e-12  # quarter point lands on -omega
    assert relerr(params.q_pow(1), cmath.exp(2j * cmath.pi / 3)) < 1e-12
