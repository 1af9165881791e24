import numpy as np
import pytest
from tape_ops import (
    DomainError,
    clamp,
    concat_rows,
    cosine_pairs,
    gather_pairs,
    log,
    relu,
    sigmoid,
    softplus,
    take_cols,
    tmax,
    tmean,
    transpose,
)

from cddet import diffcore as dc
from cddet.errors import (
    ContractError,
    DegenerateInputError,
    DimensionError,
)


class TestAffine:
    def test_identity(self):
        x = dc.Tensor(np.eye(2))
        w = dc.Tensor(np.eye(2))
        b = dc.Tensor(np.zeros(2))
        np.testing.assert_array_equal(dc.affine(x, w, b).data, np.eye(2))

    def test_hand_sum(self):
        x = dc.Tensor([[1.0, 2.0]])
        w = dc.Tensor([[1.0], [1.0]])
        b = dc.Tensor([3.0])
        np.testing.assert_array_equal(dc.affine(x, w, b).data, [[6.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dc.affine(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones(3)))

    def test_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x = dc.Tensor(rng.normal(size=(3, 4)))
        w0 = rng.normal(size=(4, 2))
        b = dc.Tensor(np.zeros(2))

        def f(w):
            return dc.tsum(dc.affine(x, w, b))

        assert dc.grad_check(f, dc.Tensor(w0), step=1e-5) < 1e-6


class TestActivations:
    def test_softmax_symmetry(self):
        out = dc.softmax(dc.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_sigmoid_zero(self):
        assert sigmoid(dc.Tensor(0.0)).item() == 0.5

    def test_softmax_closed_form(self):
        out = dc.softmax(dc.Tensor([2.0, 0.0]))
        expected = np.exp(2.0) / (np.exp(2.0) + 1.0)
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)
        assert round(out.data[0], 4) == 0.8808

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(1)
        z = rng.normal(scale=20.0, size=(40, 7))
        s = dc.softmax(dc.Tensor(z), axis=1).data
        assert np.all(s >= 0)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            log(dc.Tensor([1.0, 0.0]))

    def test_sigmoid_saturation_is_finite(self):
        out = sigmoid(dc.Tensor([-800.0, 800.0]))
        assert np.all(np.isfinite(out.data))


def _row_cosine(a, b):
    """Cosine of two vectors through the row-wise op."""
    return cosine_pairs(dc.Tensor([a]), dc.Tensor([b])).data[0]


class TestReductions:
    def test_cosine_self(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.normal(size=6)
            assert _row_cosine(v, v) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert _row_cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_cosine_half_overlap(self):
        got = _row_cosine([1.0, 1.0], [1.0, 0.0])
        assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert round(got, 4) == 0.7071

    def test_cosine_zero_norm(self):
        with pytest.raises(DegenerateInputError):
            _row_cosine([0.0, 0.0], [1.0, 0.0])

    def test_max_tie_routes_to_lowest_index(self):
        x = dc.Tensor([3.0, 7.0, 7.0, 1.0], requires_grad=True)
        tmax(x).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 0.0])

    def test_max_axis_tie_routes_to_lowest_index(self):
        x = dc.Tensor([[1.0, 5.0, 5.0], [2.0, 2.0, 0.0]], requires_grad=True)
        dc.tsum(tmax(x, axis=1)).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


class TestGradCheck:
    def test_square(self):
        def f(x):
            return dc.mul(x, x)

        x = dc.Tensor(np.asarray(3.0))
        assert dc.grad_check(f, x) < 1e-8

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            dc.grad_check(lambda t: t, dc.Tensor([1.0, 2.0]))

    def test_step_must_be_positive(self):
        with pytest.raises(ContractError):
            dc.grad_check(lambda t: dc.tsum(t), dc.Tensor([1.0]), step=0.0)


def _random_smooth_points(rng, n, shape):
    for _ in range(n):
        yield rng.normal(size=shape)


class TestPrimitiveGradients:
    """Analytic gradients of every primitive against central differences."""

    CASES = {
        "relu": lambda x: dc.tsum(relu(x)),
        "sigmoid": lambda x: dc.tsum(sigmoid(x)),
        "softplus": lambda x: dc.tsum(softplus(x)),
        "softmax": lambda x: dc.tsum(dc.mul(dc.softmax(x, axis=1), dc.softmax(x, axis=1))),
        "mean": lambda x: tmean(x),
        "mean_axis": lambda x: dc.tsum(tmean(x, axis=0)),
        "max_axis": lambda x: dc.tsum(tmax(x, axis=1)),
        "transpose": lambda x: dc.tsum(dc.mul(transpose(x), transpose(x))),
        "linear": lambda x: dc.tsum(dc.mul(dc.linear(x, x, dc.Tensor(np.ones(3))), dc.linear(x, x, dc.Tensor(np.ones(3))))),
        "affine_relu": lambda x: dc.tsum(dc.affine_relu(transpose(x), x, dc.Tensor(np.full(4, 0.5)))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_primitive(self, name):
        rng = np.random.default_rng(hash(name) % (2**32))
        f = self.CASES[name]
        worst = 0.0
        for point in _random_smooth_points(rng, 100, (3, 4)):
            if name == "relu":
                # keep away from the kink at zero
                point = point + np.sign(point) * 0.2
            if name == "affine_relu" and np.abs(point.T @ point + 0.5).min() < 0.05:
                continue
            worst = max(worst, dc.grad_check(f, dc.Tensor(point)))
        assert worst < 1e-6

    def test_log_gradient(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            point = rng.uniform(0.2, 3.0, size=(3, 3))
            assert dc.grad_check(lambda x: dc.tsum(log(x)), dc.Tensor(point)) < 1e-6

    def test_cosine_matrix_gradient(self):
        rng = np.random.default_rng(9)
        b = dc.Tensor(rng.normal(size=(4, 5)))
        for _ in range(20):
            a = rng.normal(size=(3, 5))
            f = lambda t: dc.tsum(dc.mul(dc.cosine_matrix(t, b), dc.cosine_matrix(t, b)))
            assert dc.grad_check(f, dc.Tensor(a)) < 1e-6
        w = dc.Tensor(rng.normal(size=(3, 5)))
        f2 = lambda t: dc.tsum(dc.cosine_matrix(w, t))
        assert dc.grad_check(f2, dc.Tensor(rng.normal(size=(4, 5)))) < 1e-6

    def test_cosine_pairs_gradient(self):
        rng = np.random.default_rng(10)
        b = dc.Tensor(rng.normal(size=(4, 6)))
        for _ in range(20):
            a = rng.normal(size=(4, 6))
            assert dc.grad_check(lambda t: dc.tsum(cosine_pairs(t, b)), dc.Tensor(a)) < 1e-6

    def test_gather_and_concat_gradients(self):
        rng = np.random.default_rng(11)
        rows = np.array([0, 1, 2, 0])
        cols = np.array([1, 0, 2, 2])

        def f(x):
            return dc.tsum(gather_pairs(x, rows, cols))

        assert dc.grad_check(f, dc.Tensor(rng.normal(size=(3, 3)))) < 1e-6

        other = dc.Tensor(rng.normal(size=(2, 3)))

        def g(x):
            joined = concat_rows(x, other)
            return dc.tsum(dc.mul(joined, joined))

        assert dc.grad_check(g, dc.Tensor(rng.normal(size=(3, 3)))) < 1e-6

    def test_take_cols_gradient(self):
        rng = np.random.default_rng(12)

        def f(x):
            return dc.tsum(take_cols(x, np.array([0, 2])))

        assert dc.grad_check(f, dc.Tensor(rng.normal(size=(3, 4)))) < 1e-6

    def test_clamp_gradient_inside_region(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            point = rng.uniform(0.2, 0.8, size=(3, 3))
            f = lambda x: dc.tsum(dc.mul(clamp(x, 0.0, 1.0), clamp(x, 0.0, 1.0)))
            assert dc.grad_check(f, dc.Tensor(point)) < 1e-6


class TestTape:
    def test_trace_is_topological(self):
        rng = np.random.default_rng(3)
        x = dc.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        y = dc.tsum(relu(dc.add(dc.mul(x, x), x)))
        tape = dc.Tape.trace(y)
        position = {id(node): i for i, node in enumerate(tape.nodes)}
        assert len(position) == len(tape.nodes) == 5
        for i, node in enumerate(tape.nodes):
            assert all(position[id(parent)] < i for parent in node._parents)

    def test_shared_subexpression_visited_once(self):
        x = dc.Tensor(np.asarray(2.0), requires_grad=True)
        s = dc.mul(x, x)
        y = dc.add(s, s)
        tape = dc.Tape.trace(y)
        assert sum(1 for node in tape.nodes if node is s) == 1
        tape.backward(y)
        # d/dx of 2*x^2 at x=2 is 8
        assert x.grad == pytest.approx(8.0)

    def test_backward_requires_scalar(self):
        x = dc.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            relu(x).backward()
