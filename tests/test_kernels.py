"""Kernel oracle tests: closed-form hand values and double-loop gram oracle."""

import json
import math

import numpy as np
import pytest

from congames.config import ConfigError, parse_kernel
from congames.game import generate_random_game
from congames.kernels import (
    KernelError,
    Matern,
    Polynomial,
    Product,
    SquaredExponential,
    cross,
    diag,
    evaluate,
    gram,
    kernel_to_config,
)
from congames.strategy import default_constraint_kernel, default_reward_kernel


def gram_oracle(spec, points):
    """Entrywise double-loop gram computation."""
    n = len(points)
    G = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            G[i, j] = evaluate(spec, points[i], points[j])
    return G


ALL_SPECS = [
    SquaredExponential(lengthscale=1.0),
    SquaredExponential(lengthscale=2.0),
    Matern(lengthscale=1.0, nu=0.5),
    Matern(lengthscale=0.7, nu=1.5),
    Matern(lengthscale=1.3, nu=2.5),
    Matern(lengthscale=1.0, nu=3.7),
    Polynomial(bias=1.0, lengthscale=2.0, degree=3),
    Product(
        left=SquaredExponential(lengthscale=2.0),
        right=SquaredExponential(lengthscale=0.5),
        split_index=2,
    ),
]


class TestEvaluateOracles:
    def test_se_self_is_one(self):
        spec = SquaredExponential(lengthscale=1.0)
        x = np.array([0.3, -1.2, 4.0])
        assert evaluate(spec, x, x) == pytest.approx(1.0, abs=1e-15)

    def test_se_hand_value(self):
        spec = SquaredExponential(lengthscale=2.0)
        got = evaluate(spec, [0.0], [2.0])
        assert got == pytest.approx(math.exp(-4.0 / 8.0), rel=1e-12)

    def test_polynomial_dot_product(self):
        spec = Polynomial(bias=0.0, lengthscale=1.0, degree=1)
        assert evaluate(spec, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)

    def test_product_factorwise(self):
        spec = Product(
            left=SquaredExponential(lengthscale=2.0),
            right=SquaredExponential(lengthscale=0.5),
            split_index=1,
        )
        got = evaluate(spec, [0.0, 0.0], [2.0, 0.0])
        assert got == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_matern_closed_forms(self):
        # nu=1/2: exp(-s/l); nu=3/2: (1+a)exp(-a), a=sqrt(3)s/l;
        # nu=5/2: (1+a+a^2/3)exp(-a), a=sqrt(5)s/l
        s, l = 1.7, 0.9
        x, y = np.array([0.0]), np.array([s])
        assert evaluate(Matern(lengthscale=l, nu=0.5), x, y) == pytest.approx(
            math.exp(-s / l), rel=1e-12
        )
        a = math.sqrt(3) * s / l
        assert evaluate(Matern(lengthscale=l, nu=1.5), x, y) == pytest.approx(
            (1 + a) * math.exp(-a), rel=1e-12
        )
        a = math.sqrt(5) * s / l
        assert evaluate(Matern(lengthscale=l, nu=2.5), x, y) == pytest.approx(
            (1 + a + a * a / 3) * math.exp(-a), rel=1e-12
        )

    def test_matern_general_nu_matches_half_integer(self):
        # the Bessel-function branch must agree with the closed forms
        rng = np.random.default_rng(0)
        for nu in (0.5, 1.5, 2.5):
            closed = Matern(lengthscale=1.1, nu=nu)
            general = Matern(lengthscale=1.1, nu=nu + 1e-9)
            for _ in range(10):
                x, y = rng.normal(size=2), rng.normal(size=2)
                assert evaluate(general, [x[0]], [y[0]]) == pytest.approx(
                    evaluate(closed, [x[0]], [y[0]]), rel=1e-5
                )

    def test_matern_self_is_one(self):
        for nu in (0.5, 1.5, 2.5, 3.3):
            spec = Matern(lengthscale=1.0, nu=nu)
            x = np.array([0.4, 1.0])
            assert evaluate(spec, x, x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.7])
    def test_matern_far_apart_is_zero_not_nan(self, nu):
        # a tiny lengthscale makes r overflow, and r^2 with it
        C = cross(Matern(lengthscale=1e-200, nu=nu), [[0.0], [1.0]], [[0.0], [1.0]])
        np.testing.assert_array_equal(C, np.eye(2))

    def test_matern_cap_changes_no_value(self):
        s = np.linspace(0.0, 800.0, 4001)
        r = s * math.sqrt(5.0)
        got = Matern(lengthscale=1.0, nu=2.5).pairwise(s[:, None], np.zeros((1, 1)))
        np.testing.assert_array_equal(got[:, 0], (1.0 + r + r**2 / 3.0) * np.exp(-r))

    def test_dimension_mismatch(self):
        with pytest.raises(KernelError):
            evaluate(SquaredExponential(lengthscale=1.0), [0.0], [0.0, 1.0])


class TestSymmetryAndBounds:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_symmetry(self, spec):
        rng = np.random.default_rng(1)
        dim = spec.split_index + 1 if isinstance(spec, Product) else 3
        for _ in range(20):
            x, y = rng.normal(size=dim), rng.normal(size=dim)
            assert evaluate(spec, x, y) == evaluate(spec, y, x)

    def test_se_matern_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for spec in ALL_SPECS[:6]:
            for _ in range(50):
                x, y = rng.normal(size=2) * 3, rng.normal(size=2) * 3
                v = evaluate(spec, x, y)
                assert 0.0 < v <= 1.0 + 1e-12


class TestGram:
    def test_single_point(self):
        G = gram(SquaredExponential(lengthscale=1.0), np.array([[0.5, 0.5]]))
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(1.0)

    def test_identical_points_rank_one(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0]])
        G = gram(SquaredExponential(lengthscale=1.0), pts)
        np.testing.assert_allclose(G, np.ones((2, 2)), atol=1e-15)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_matches_double_loop_oracle(self, spec):
        rng = np.random.default_rng(3)
        dim = spec.split_index + 1 if isinstance(spec, Product) else 2
        pts = rng.normal(size=(5, dim))
        np.testing.assert_allclose(gram(spec, pts), gram_oracle(spec, pts), atol=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_psd(self, spec):
        rng = np.random.default_rng(4)
        dim = spec.split_index + 1 if isinstance(spec, Product) else 3
        pts = rng.normal(size=(8, dim))
        eigs = np.linalg.eigvalsh(gram(spec, pts))
        assert eigs.min() > -1e-8

    def test_exact_symmetry(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(10, 3))
        G = gram(SquaredExponential(lengthscale=1.3), pts)
        assert np.array_equal(G, G.T)

    def test_cross_matches_evaluate(self):
        rng = np.random.default_rng(6)
        spec = Matern(lengthscale=1.0, nu=1.5)
        X, Y = rng.normal(size=(4, 2)), rng.normal(size=(6, 2))
        C = cross(spec, X, Y)
        for i in range(4):
            for j in range(6):
                assert C[i, j] == pytest.approx(evaluate(spec, X[i], Y[j]), abs=1e-12)


class TestConfigRoundtrip:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_roundtrip(self, spec):
        assert parse_kernel(kernel_to_config(spec), "") == spec

    def test_unknown_type(self):
        with pytest.raises(ConfigError, match=r"^\.type: must be one of squared_exponential, "
                           r"matern, polynomial, product$"):
            parse_kernel({"type": "laplacian"}, "")

    def test_generated_game_kernels_roundtrip(self):
        game = generate_random_game(0, num_players=2, num_actions=3, num_contexts=2)
        metadata = json.loads(game.to_json())["metadata"]
        for key, spec in (("reward_kernel", default_reward_kernel(2)),
                          ("constraint_kernel", default_constraint_kernel())):
            assert parse_kernel(metadata[key], "") == spec
            assert kernel_to_config(spec) == metadata[key]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_unknown_key(self, spec):
        obj = kernel_to_config(spec) | {"lengthscal": 9}
        with pytest.raises(ConfigError, match=r"^\.k\.lengthscal: unknown key$"):
            parse_kernel(obj, ".k")

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_product_missing_factor(self, side):
        se = {"type": "squared_exponential", "lengthscale": 1.0}
        obj = {"type": "product", "left": se, "right": se, "split_index": 1}
        del obj[side]
        with pytest.raises(ConfigError, match=rf"^\.k\.{side}: missing required key$"):
            parse_kernel(obj, ".k")

    def test_unknown_key_in_a_factor(self):
        se = {"type": "squared_exponential", "lengthscale": 1.0}
        obj = {"type": "product", "left": se, "right": se | {"nu": 3},
               "split_index": 1}
        with pytest.raises(ConfigError, match=r"^\.k\.right\.nu: unknown key$"):
            parse_kernel(obj, ".k")

    def test_polynomial_defaults(self):
        assert parse_kernel({"type": "polynomial", "degree": 2}, "") == Polynomial(
            degree=2, bias=0.0, lengthscale=1.0)

    @pytest.mark.parametrize("make", [
        lambda: SquaredExponential(lengthscale=1e200),  # 2 l^2 overflows
        lambda: SquaredExponential(lengthscale=1e-200),  # 2 l^2 vanishes
        lambda: SquaredExponential(lengthscale=float("nan")),
        lambda: Matern(lengthscale=float("nan"), nu=1.5),
        lambda: Matern(lengthscale=1.0, nu=float("inf")),
        lambda: Polynomial(bias=float("inf"), lengthscale=1.0, degree=2),
        lambda: Polynomial(bias=1.0, lengthscale=float("nan"), degree=2),
    ], ids=["se-huge", "se-tiny", "se-nan", "matern-nan-lengthscale", "matern-inf-nu",
            "polynomial-inf-bias", "polynomial-nan-lengthscale"])
    def test_non_finite_params(self, make):
        with pytest.raises(KernelError):
            make()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SquaredExponential(lengthscale=0.0)
        with pytest.raises(ValueError):
            Matern(lengthscale=1.0, nu=-1.0)
        with pytest.raises(ValueError):
            Polynomial(bias=1.0, lengthscale=1.0, degree=0)


class TestDiag:
    # general-nu Matern and a nested product on top of the shared specs
    SPECS = ALL_SPECS + [
        Matern(lengthscale=0.9, nu=3.5),
        Polynomial(bias=0.0, lengthscale=1.5, degree=2),
        Product(
            left=Product(
                left=Matern(lengthscale=1.0, nu=3.5),
                right=Polynomial(bias=0.5, lengthscale=2.0, degree=2),
                split_index=1,
            ),
            right=SquaredExponential(lengthscale=0.5),
            split_index=3,
        ),
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_evaluate(self, spec):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(9, 4))
        expected = [evaluate(spec, x, x) for x in X]
        np.testing.assert_allclose(diag(spec, X), expected, rtol=1e-13, atol=0)

    def test_single_vector_is_one_row(self):
        spec = Polynomial(bias=1.0, lengthscale=2.0, degree=3)
        x = np.array([1.0, -2.0])
        np.testing.assert_allclose(diag(spec, x), [evaluate(spec, x, x)])

    def test_product_needs_right_block(self):
        spec = Product(left=SquaredExponential(1.0), right=SquaredExponential(1.0),
                       split_index=2)
        with pytest.raises(KernelError):
            diag(spec, np.zeros((3, 2)))
