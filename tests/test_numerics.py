"""Kernels, reverse-mode gradients, and the optimizer.

Gradient correctness is judged against central finite differences computed
on float64 copies; nothing here trusts the tape to check the tape.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nulog import numerics
from nulog.errors import ShapeError, StaleGradientError, ValidationError
from nulog.model import Model, ModelConfig, train_epoch
from nulog.numerics import (OptimizerState, Tensor, add,
                            cross_entropy, embedding,
                            finite_difference_check, first_row,
                            layer_norm_rows, matmul, no_grad, rearrange,
                            relu, scale, softmax_rows, sum_all, transpose,
                            optimizer_step)


def param_set(**arrays) -> dict[str, Tensor]:
    return {name: Tensor(np.asarray(values, dtype=np.float64), requires_grad=True,
                         name=name)
            for name, values in arrays.items()}


class TestTensorBasics:
    def test_default_dtype_is_float32(self):
        assert Tensor([[1, 2]]).data.dtype == np.float32

    def test_float64_preserved(self):
        assert Tensor(np.zeros((2, 2), dtype=np.float64)).data.dtype == np.float64

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            add(t, t).backward()

    def test_backward_on_detached_value_rejected(self):
        with pytest.raises(ValidationError):
            Tensor(np.float32(3.0)).backward()


class TestKernelValues:
    def test_matmul_hand_example(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert matmul(a, b).data.tolist() == [[19.0, 22.0], [43.0, 50.0]]

    def test_matmul_identity(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        out = matmul(Tensor(np.eye(2, dtype=np.float32)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_matmul_empty_contraction(self):
        out = matmul(Tensor(np.zeros((1, 0))), Tensor(np.zeros((0, 1))))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 0.0

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"2.*3|3.*2"):
            matmul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3))))

    def test_matmul_2d_by_3d_rejected(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((4, 2, 2))))

    def test_softmax_uniform_row(self):
        out = softmax_rows(Tensor([[3.0, 3.0, 3.0, 3.0]]))
        assert np.allclose(out.data, 0.25)

    def test_softmax_hand_example(self):
        out = softmax_rows(Tensor([[0.0, math.log(3.0)]]))
        assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-6)

    def test_softmax_shift_invariance(self):
        row = np.array([[0.3, -1.2, 2.0, 0.0]], dtype=np.float32)
        plain = softmax_rows(Tensor(row)).data
        shifted = softmax_rows(Tensor(row + 1000.0)).data
        assert np.allclose(plain, shifted, atol=1e-6)

    def test_layer_norm_hand_example(self):
        out = layer_norm_rows(Tensor([[1.0, 3.0]]), Tensor([[1.0, 1.0]]),
                              Tensor([[0.0, 0.0]]))
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_layer_norm_constant_row_is_bias(self):
        out = layer_norm_rows(Tensor([[5.0, 5.0, 5.0]]),
                              Tensor([[1.0, 1.0, 1.0]]),
                              Tensor([[2.0, 2.0, 2.0]]))
        assert np.allclose(out.data, 2.0, atol=1e-3)

    def test_layer_norm_width_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm_rows(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 2))),
                            Tensor(np.zeros((1, 2))))

    @pytest.mark.parametrize("shape, split, axes, target", [
        ((2, 3, 8), (2, 3, 4, 2), (2, 0, 1, 3), (4, 6, 2)),
        ((6, 8), (6, 4, 2), (1, 2, 0), (4, 2, 6)),
        ((4, 6, 5), (2, 2, 6, 5), (1, 0, 2, 3), (2, 12, 5)),
    ])
    def test_rearrange_then_its_inverse_is_the_identity(self, shape, split, axes,
                                                        target):
        a = np.random.default_rng(3).normal(size=shape).astype(np.float32)
        out = rearrange(Tensor(a), split, axes, target)
        assert out.data.shape == target
        inverse = np.argsort(axes)
        back = rearrange(out, tuple(split[i] for i in axes), inverse, shape)
        assert np.array_equal(back.data, a)

    def test_rearrange_keeps_rank_two_or_three(self):
        with pytest.raises(ShapeError):
            rearrange(Tensor(np.zeros((2, 3, 4))), (2, 3, 4), (0, 1, 2), (2, 3, 2, 2))

    def test_first_row_takes_a_rank_three_batch_only(self):
        with pytest.raises(ShapeError):
            first_row(Tensor(np.zeros((3, 4))))

    def test_relu(self):
        assert relu(Tensor([[-1.0, 2.0]])).data.tolist() == [[0.0, 2.0]]

    def test_cross_entropy_uniform_is_log_n(self):
        loss = cross_entropy(Tensor([[0.0] * 7]), np.array([3]))
        assert math.isclose(float(loss.data), math.log(7.0), rel_tol=1e-6)

    def test_cross_entropy_saturated_correct_is_near_zero(self):
        logits = np.zeros((1, 5), dtype=np.float32)
        logits[0, 2] = 1000.0
        assert float(cross_entropy(Tensor(logits), np.array([2])).data) < 1e-6

    def test_cross_entropy_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor([[0.0, 1.0]]), np.array([5]))

    def test_cross_entropy_takes_rank_two_logits_and_one_target_per_row(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor([0.0, 1.0]), 1)
        with pytest.raises(ShapeError):
            cross_entropy(Tensor([[0.0, 1.0], [1.0, 0.0]]), np.array([[1], [0]]))

    def test_cross_entropy_batch_is_mean_of_singles(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 9)).astype(np.float64)
        targets = np.array([1, 0, 8, 3])
        batched = float(cross_entropy(Tensor(logits), targets).data)
        singles = [float(cross_entropy(Tensor(logits[i:i + 1]),
                                       targets[i:i + 1]).data)
                   for i in range(4)]
        assert math.isclose(batched, sum(singles) / 4, rel_tol=1e-9)

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60)
    def test_softmax_rows_sum_to_one(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        out = softmax_rows(Tensor(rng.normal(scale=5.0, size=(rows, cols))))
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
        assert (out.data >= 0).all()


class TestSharedWeightMatmul:
    """A (B, T, k) activation against a (k, n) weight runs as one GEMM on
    (B*T, k); each batch item must come out as its own product would."""

    @pytest.mark.parametrize("layout", ["contiguous", "transposed_a", "transposed_b"])
    def test_matches_per_matrix_products_bitwise(self, layout):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 7, 16)).astype(np.float32)
        w = rng.normal(size=(16, 9)).astype(np.float32)
        if layout == "transposed_a":
            x = np.ascontiguousarray(x.swapaxes(1, 2)).swapaxes(1, 2)
        elif layout == "transposed_b":
            w = np.ascontiguousarray(w.T).T
        g = rng.normal(size=(5, 7, 9)).astype(np.float32)
        out = matmul(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True))
        assert np.array_equal(out.data, np.stack([x[i] @ w for i in range(5)]))
        grad_a, grad_b = out._vjp(g)
        assert np.array_equal(grad_a, np.stack([g[i] @ w.T for i in range(5)]))
        assert np.allclose(grad_b, sum(x[i].T @ g[i] for i in range(5)), atol=1e-4)

    def test_one_row_batch_keeps_its_shape(self):
        x = np.arange(12, dtype=np.float32).reshape(3, 1, 4)
        w = np.ones((4, 2), dtype=np.float32)
        out = matmul(Tensor(x), Tensor(w))
        assert out.data.shape == (3, 1, 2)
        assert out.data[:, 0, 0].tolist() == [6.0, 22.0, 38.0]


class TestBackwardHandDerived:
    def test_sum_gradient_is_ones(self):
        a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3),
                   requires_grad=True)
        sum_all(a).backward()
        assert np.array_equal(a.grad, np.ones((2, 3)))

    def test_matmul_sum_gradient_is_transpose_rule(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        sum_all(matmul(a, b)).backward()
        ones = np.ones((3, 2))
        assert np.allclose(a.grad, ones @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ ones)

    def test_grad_accumulates_across_uses(self):
        a = Tensor(np.ones((2, 2), dtype=np.float64), requires_grad=True)
        sum_all(add(a, a)).backward()
        assert np.allclose(a.grad, 2.0)

    def test_no_grad_blocks_taping(self):
        a = Tensor(np.ones((2, 2), dtype=np.float64), requires_grad=True)
        with no_grad():
            out = sum_all(matmul(a, a))
        assert out._parents == ()
        with pytest.raises(ValidationError):
            out.backward()


def zero_then_add_backward(loss: Tensor) -> None:
    """backward() as it was before gradient adoption: every first
    contribution lands in a fresh zero array."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in seen)
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        for parent, contribution in zip(node._parents, node._vjp(node.grad)):
            if contribution is None:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
            parent.grad += contribution


def assert_grads_disjoint(tensors) -> None:
    for i, a in enumerate(tensors):
        for b in tensors[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad), (a, b)


class TestGradientOwnership:
    """backward() hands a fresh vjp output to its parent as the grad and
    copies views; the results must equal zero-then-add bit for bit, and no
    grad may share memory with another."""

    @staticmethod
    def leaves(rng, *shapes, dtype=np.float32):
        return [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                for shape in shapes]

    def both_ways(self, build, leaves):
        """Gradients of build(*leaves) from backward() and from the reference."""
        results = []
        for run in (Tensor.backward, zero_then_add_backward):
            for t in leaves:
                t.grad = None
            nodes = build(*leaves)
            run(nodes[-1])
            results.append([t.grad.copy() for t in (*leaves, *nodes[:-1])])
        return results

    def test_equal_shape_add_gives_each_parent_its_own_array(self):
        rng = np.random.default_rng(0)
        x, y = self.leaves(rng, (3, 4), (3, 4))
        s = add(x, y)
        cross_entropy(s, np.array([0, 3, 1])).backward()
        assert x.grad is not y.grad
        assert np.array_equal(x.grad, s.grad)
        assert np.array_equal(y.grad, s.grad)
        assert_grads_disjoint([x, y, s])

    def test_later_contribution_stays_in_its_own_grad(self):
        rng = np.random.default_rng(1)
        x, y = self.leaves(rng, (3, 4), (3, 4))
        z = add(x, y)
        out = add(z, x)
        cross_entropy(out, np.array([2, 2, 0])).backward()
        assert np.array_equal(z.grad, out.grad)
        assert np.array_equal(y.grad, out.grad)
        assert np.array_equal(x.grad, out.grad + out.grad)
        assert_grads_disjoint([x, y, z, out])

    def test_tensor_feeding_two_matmuls(self):
        rng = np.random.default_rng(2)
        leaves = self.leaves(rng, (2, 3, 4), (4, 5), (4, 5))

        def build(x, w1, w2):
            h = add(matmul(x, w1), matmul(x, w2))
            logits = first_row(h)
            return h, logits, cross_entropy(logits, np.array([4, 1]))

        new, old = self.both_ways(build, leaves)
        for a, b in zip(new, old):
            assert np.array_equal(a, b)
        assert_grads_disjoint(leaves)

    def test_repeated_leaf_and_transpose_chain(self):
        rng = np.random.default_rng(3)
        leaves = self.leaves(rng, (3, 6), (3, 6), (5, 6))

        def build(a, b, c):
            # a enters twice, so its second contribution is added onto its first
            joined = add(add(a, b), a)
            logits = matmul(joined, transpose(c))
            return joined, logits, cross_entropy(logits, np.array([0, 4, 2]))

        new, old = self.both_ways(build, leaves)
        for a, b in zip(new, old):
            assert np.array_equal(a, b)
        assert_grads_disjoint(leaves)

    def test_float64_contribution_keeps_a_float32_grad(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        y = Tensor(np.full((2, 3), 0.5), requires_grad=True)
        s = add(x, y)
        assert s.data.dtype == np.float64
        sum_all(relu(s)).backward()
        assert x.grad.dtype == np.float32
        assert y.grad.dtype == np.float64
        assert np.array_equal(x.grad, np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(6, 4), (3, 5, 4)])
    def test_shared_weight_matmul_grad_a_is_adopted(self, shape):
        rng = np.random.default_rng(5)
        x, w = self.leaves(rng, shape, (4, 7))
        out = matmul(x, w)
        returned = []
        vjp = out._vjp
        out._vjp = lambda g: returned.append(vjp(g)) or returned[-1]
        sum_all(out).backward()
        assert x.grad is returned[0][0]
        assert x.grad.flags.owndata and x.grad.shape == shape
        assert np.allclose(x.grad, np.ones(shape[:-1] + (7,)) @ w.data.T, atol=1e-5)

    def test_training_steps_match_zero_then_add_bitwise(self, monkeypatch):
        config = ModelConfig(vocab_size=20, frame_length=6, d=8, heads=2,
                             ffn_hidden=16, blocks=2, batch_size=4, seed=7)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, config.vocab_size, size=(10, config.frame_length))
        ids[:, 0] = 0
        targets = rng.integers(0, config.vocab_size, size=10)
        trained = []
        for run in (Tensor.backward, zero_then_add_backward):
            monkeypatch.setattr(Tensor, "backward", run)
            model = Model(config, rng=np.random.default_rng(0))
            opt = OptimizerState(model.params)
            for _ in range(3):
                train_epoch(model, opt, ids, targets)
            trained.append(model)
        new, old = trained
        for name, t in new.params.items():
            assert t.data.dtype == np.float32
            assert np.array_equal(t.data, old.params[name].data), name


def fd_case(build, **arrays):
    """Assert analytic gradients of build(params) match finite differences."""
    params = param_set(**arrays)
    error = finite_difference_check(lambda: build(params), params)
    assert error <= 1e-3, f"finite-difference mismatch {error:.2e}"


class TestFiniteDifferences:
    def test_add_with_broadcast(self):
        rng = np.random.default_rng(1)
        fd_case(lambda p: sum_all(relu(add(p["a"], p["bias"]))),
                a=rng.normal(size=(3, 4)), bias=rng.normal(size=(1, 4)))

    def test_matmul_chain(self):
        rng = np.random.default_rng(2)
        fd_case(lambda p: sum_all(matmul(matmul(p["a"], p["b"]), p["c"])),
                a=rng.normal(size=(2, 3)), b=rng.normal(size=(3, 3)),
                c=rng.normal(size=(3, 2)))

    def test_batched_matmul_with_shared_weight(self):
        rng = np.random.default_rng(3)
        fd_case(lambda p: sum_all(matmul(p["x"], p["w"])),
                x=rng.normal(size=(2, 3, 4)), w=rng.normal(size=(4, 2)))

    def test_softmax_composition(self):
        rng = np.random.default_rng(4)
        fd_case(lambda p: sum_all(matmul(softmax_rows(p["s"]), p["v"])),
                s=rng.normal(size=(3, 3)), v=rng.normal(size=(3, 2)))

    def test_attention_shaped_composition(self):
        rng = np.random.default_rng(5)

        def build(p):
            q = matmul(p["x"], p["wq"])
            k = matmul(p["x"], p["wk"])
            v = matmul(p["x"], p["wv"])
            scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(2.0))
            return sum_all(matmul(softmax_rows(scores), v))

        fd_case(build, x=rng.normal(size=(4, 4)),
                wq=rng.normal(size=(4, 2)), wk=rng.normal(size=(4, 2)),
                wv=rng.normal(size=(4, 2)))

    def test_reassociated_attention_composition(self):
        # the order Model.attention runs: two heads of width 2 over d = 4,
        # scores (q wk^T) x^T and output (p x) wv, heads in the batch axis
        rng = np.random.default_rng(12)
        B, T, H, w, d = 2, 3, 2, 2, 4

        def build(p):
            q = rearrange(matmul(p["x"], p["wq"]), (B, T, H, w), (2, 0, 1, 3),
                          (H, B * T, w))
            u = matmul(q, rearrange(p["wk"], (d, H, w), (1, 2, 0), (H, w, d)))
            u = rearrange(u, (H, B, T, d), (1, 0, 2, 3), (B, H * T, d))
            weights = softmax_rows(scale(matmul(u, transpose(p["x"])),
                                         1.0 / math.sqrt(w)))
            ctx = rearrange(matmul(weights, p["x"]), (B, H, T, d), (1, 0, 2, 3),
                            (H, B * T, d))
            out = matmul(ctx, rearrange(p["wv"], (d, H, w), (1, 0, 2), (H, d, w)))
            out = rearrange(out, (H, B, T, w), (1, 2, 0, 3), (B, T, d))
            return sum_all(matmul(relu(out), p["r"]))

        fd_case(build, x=rng.normal(size=(B, T, d)), r=rng.normal(size=(d, 1)),
                **{f"w{kind}": rng.normal(size=(d, H * w)) for kind in "qkv"})

    def test_rearrange_3d_to_3d(self):
        rng = np.random.default_rng(13)
        fd_case(lambda p: sum_all(matmul(softmax_rows(
            rearrange(p["a"], (2, 3, 2, 2), (2, 0, 1, 3), (2, 6, 2))), p["w"])),
            a=rng.normal(size=(2, 3, 4)), w=rng.normal(size=(2, 3)))

    def test_rearrange_2d_to_3d(self):
        rng = np.random.default_rng(14)
        fd_case(lambda p: sum_all(relu(matmul(
            rearrange(p["a"], (4, 2, 3), (1, 2, 0), (2, 3, 4)), p["w"]))),
            a=rng.normal(size=(4, 6)), w=rng.normal(size=(4, 2)))

    def test_layer_norm_gradients(self):
        rng = np.random.default_rng(6)
        fd_case(lambda p: sum_all(matmul(
            layer_norm_rows(p["x"], p["gain"], p["bias"]), p["w"])),
            x=rng.normal(size=(3, 4)), gain=rng.normal(size=(1, 4)),
            bias=rng.normal(size=(1, 4)), w=rng.normal(size=(4, 2)))

    def test_embedding_with_repeated_ids(self):
        rng = np.random.default_rng(7)
        ids = np.array([[0, 2, 0, 1]])
        fd_case(lambda p: sum_all(relu(embedding(p["table"], ids))),
                table=rng.normal(size=(4, 3)))

    def test_first_row_keeping_the_row_axis(self):
        rng = np.random.default_rng(9)
        fd_case(lambda p: sum_all(matmul(first_row(p["x"], keep_rows=True), p["w"])),
                x=rng.normal(size=(3, 4, 5)), w=rng.normal(size=(5, 2)))

    def test_first_row_dropping_the_row_axis(self):
        rng = np.random.default_rng(8)
        fd_case(lambda p: sum_all(matmul(first_row(p["x"]), p["w"])),
                x=rng.normal(size=(2, 3, 4)), w=rng.normal(size=(4, 2)))

    def test_cross_entropy_gradients(self):
        rng = np.random.default_rng(9)
        targets = np.array([2, 0])
        fd_case(lambda p: cross_entropy(matmul(p["x"], p["w"]), targets),
                x=rng.normal(size=(2, 3)), w=rng.normal(size=(3, 4)))

    def test_five_dim_random_composition(self):
        rng = np.random.default_rng(10)

        def build(p):
            h = relu(add(matmul(p["x"], p["w1"]), p["b1"]))
            h = layer_norm_rows(h, p["gain"], p["bias"])
            return cross_entropy(matmul(h, p["w2"]), np.array([1, 3]))

        fd_case(build, x=rng.normal(size=(2, 5)), w1=rng.normal(size=(5, 5)),
                b1=rng.normal(size=(1, 5)), gain=rng.normal(size=(1, 5)),
                bias=rng.normal(size=(1, 5)), w2=rng.normal(size=(5, 5)))


class TestEmbeddingScatter:
    def test_repeated_ids_accumulate(self):
        table = Tensor(np.zeros((3, 2), dtype=np.float64), requires_grad=True)
        ids = np.array([[1, 1, 1]])
        sum_all(embedding(table, ids)).backward()
        assert np.allclose(table.grad[1], 3.0)
        assert np.allclose(table.grad[0], 0.0)

    def test_out_of_range_id_rejected(self):
        with pytest.raises(IndexError):
            embedding(Tensor(np.zeros((3, 2))), np.array([[7]]))

    def test_flat_scatter_equals_the_row_wise_scatter_bitwise(self):
        rng = np.random.default_rng(12)
        table = Tensor(rng.normal(size=(9, 6)).astype(np.float32),
                       requires_grad=True)
        # CLS 0, MASK 1 and PAD 2 repeat as in framed batches, and so do
        # several vocabulary ids; magnitudes vary so the order of the
        # additions shows in the float32 sums
        ids = np.array([[0, 5, 1, 5, 7, 2, 2, 2, 2],
                        [0, 4, 4, 1, 8, 5, 2, 2, 2],
                        [0, 7, 5, 4, 1, 7, 4, 2, 2],
                        [0, 8, 8, 8, 5, 1, 2, 2, 2]])
        g = (rng.normal(size=(4, 9, 6))
             * 10.0 ** rng.integers(-4, 5, size=(4, 9, 6))).astype(np.float32)
        (grad,) = embedding(table, ids)._vjp(g)
        expected = np.zeros_like(table.data)
        np.add.at(expected, ids.reshape(-1), g.reshape(-1, 6))
        assert grad.dtype == np.float32
        assert np.array_equal(grad, expected)


class TestOptimizer:
    def test_zero_gradient_means_no_motion(self):
        params = param_set(w=np.array([[1.0, -2.0]]))
        state = OptimizerState(params)
        params["w"].grad = np.zeros((1, 2))
        optimizer_step(params, state)
        assert np.allclose(params["w"].data, [[1.0, -2.0]])

    def test_first_step_magnitude_is_learning_rate(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        params = param_set(w=np.array([[0.5, -0.5, 2.0]]))
        state = OptimizerState(params, learning_rate=1e-3)
        params["w"].grad = np.array([[0.3, -0.7, 0.001]])
        before = params["w"].data.copy()
        optimizer_step(params, state)
        step = params["w"].data - before
        assert np.allclose(np.abs(step), 1e-3, rtol=1e-4)
        assert np.all(np.sign(step) == -np.sign([[0.3, -0.7, 0.001]]))

    def test_stale_gradient_rejected(self):
        params = param_set(w=np.array([[1.0]]))
        state = OptimizerState(params)
        params["w"].grad = np.array([[1.0]])
        optimizer_step(params, state)
        with pytest.raises(StaleGradientError):
            optimizer_step(params, state)

    def test_quadratic_bowl_converges(self):
        params = param_set(theta=np.array([[3.0]]))
        state = OptimizerState(params, learning_rate=0.05)
        history = []
        for _ in range(200):
            loss = sum_all(matmul(params["theta"],
                                  transpose(params["theta"])))
            params["theta"].grad = None
            loss.backward()
            optimizer_step(params, state)
            history.append(abs(float(params["theta"].data[0, 0])))
        window = history[5:100]
        assert all(b <= a + 1e-12 for a, b in zip(window, window[1:]))
        assert history[-1] < 0.01

    def test_in_place_update_matches_the_out_of_place_formula_bitwise(self):
        rng = np.random.default_rng(5)
        params = {name: Tensor(rng.normal(size=shape).astype(np.float32),
                               requires_grad=True, name=name)
                  for name, shape in (("w", (40, 24)), ("b", (1, 24)))}
        state = OptimizerState(params, learning_rate=1e-2)
        b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.eps
        ref = {n: t.data.copy() for n, t in params.items()}
        m = {n: np.zeros_like(w) for n, w in ref.items()}
        v = {n: np.zeros_like(w) for n, w in ref.items()}
        for step in range(1, 6):
            grads = {n: rng.normal(size=w.shape).astype(np.float32)
                     for n, w in ref.items()}
            for name, t in params.items():
                t.grad = grads[name].copy()
            optimizer_step(params, state)
            bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            for name, g in grads.items():
                m[name] = m[name] * b1 + (1.0 - b1) * g
                v[name] = v[name] * b2 + (1.0 - b2) * np.square(g)
                ref[name] = ref[name] - (lr / bc1) * m[name] / (np.sqrt(v[name] / bc2) + eps)
        for name, t in params.items():
            assert t.data.dtype == np.float32
            assert np.array_equal(t.data, ref[name])
            assert np.array_equal(state.m[name], m[name])
            assert np.array_equal(state.v[name], v[name])

    def test_defaults_match_contract(self):
        state = OptimizerState(param_set(w=np.zeros((1, 1))))
        assert (state.learning_rate, state.beta1, state.beta2, state.eps) == \
            (1e-3, 0.9, 0.999, 1e-8)
