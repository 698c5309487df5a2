import math

import numpy as np
import pytest

from coleaf import numerics as nm
from coleaf.errors import ContractError, DimensionError
from coleaf.numerics import Tensor

from oracles import naive_attention, naive_bce, naive_matmul, relative_error


def test_matmul_identity():
    out = nm.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[3.0], [4.0]]


def test_matmul_forced_value():
    out = nm.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    out = nm.matmul(Tensor(a), Tensor(b))
    assert np.max(np.abs(out.data - naive_matmul(a, b))) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_softmax_symmetry():
    out = nm.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_forced_value():
    out = nm.softmax(Tensor([math.log(1.0), math.log(3.0)]), axis=0)
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_large_inputs_do_not_overflow():
    out = nm.softmax(Tensor([1000.0, 1000.0]), axis=0)
    assert np.allclose(out.data, [0.5, 0.5])
    assert np.all(np.isfinite(out.data))


def test_softmax_invalid_axis():
    with pytest.raises(DimensionError):
        nm.softmax(Tensor([1.0, 2.0]), axis=1)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-300.0, 300.0, size=(4, 5))
        out = nm.softmax(Tensor(x), axis=1).data
        assert np.all(out > 0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
    # beyond a spread of ~745 the smallest terms underflow to exactly 0,
    # but rows stay normalized and finite
    x = rng.uniform(-1e3, 1e3, size=(4, 5))
    out = nm.softmax(Tensor(x), axis=1).data
    assert np.all(out >= 0) and np.all(np.isfinite(out))
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12


def test_sigmoid_values():
    assert nm.sigmoid(Tensor(0.0)).item() == 0.5
    assert abs(nm.sigmoid(Tensor(50.0)).item() - 1.0) < 1e-12
    assert abs(nm.sigmoid(Tensor(-math.log(3.0))).item() - 0.25) < 1e-15


def test_bce_values():
    eps = 1e-7
    near_zero = nm.bce(Tensor(1.0), Tensor(1.0 - eps)).item()
    assert near_zero == pytest.approx(0.0, abs=1e-6)
    assert nm.bce(Tensor(1.0), Tensor(0.5)).item() == pytest.approx(math.log(2.0), rel=1e-12)


def test_bce_matches_scalar_loop():
    rng = np.random.default_rng(2)
    t = rng.integers(0, 2, size=(2, 3)).astype(float)
    p = rng.uniform(0.01, 0.99, size=(2, 3))
    out = nm.bce(Tensor(t), Tensor(p)).item()
    assert abs(out - naive_bce(t, p)) < 1e-12


def test_bce_shape_mismatch():
    with pytest.raises(DimensionError):
        nm.bce(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


def _attn_params(rng, d):
    return (rng.normal(size=(d, d)), rng.normal(size=(d, d)), rng.normal(size=(d, d)))


def test_attention_single_token_is_value_projection():
    rng = np.random.default_rng(3)
    d = 4
    wq, wk, wv = _attn_params(rng, d)
    token = rng.normal(size=(1, d))
    out = nm.attention(Tensor(token), Tensor(token), Tensor(wq), Tensor(wk), Tensor(wv))
    assert np.allclose(out.data, token @ wv, atol=1e-12)


def test_attention_zero_query_gives_uniform_average():
    rng = np.random.default_rng(4)
    d = 4
    _, wk, wv = _attn_params(rng, d)
    wq = np.zeros((d, d))
    query = rng.normal(size=(2, d))
    kv = rng.normal(size=(3, d))
    out = nm.attention(Tensor(query), Tensor(kv), Tensor(wq), Tensor(wk), Tensor(wv))
    expected = np.repeat((kv @ wv).mean(axis=0, keepdims=True), 2, axis=0)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_attention_matches_naive_formula():
    rng = np.random.default_rng(5)
    d = 4
    wq, wk, wv = _attn_params(rng, d)
    tokens = rng.normal(size=(3, d))
    out = nm.attention(Tensor(tokens), Tensor(tokens), Tensor(wq), Tensor(wk), Tensor(wv))
    assert np.max(np.abs(out.data - naive_attention(tokens, tokens, wq, wk, wv))) < 1e-10


def test_attention_dim_mismatch():
    with pytest.raises(DimensionError):
        nm.attention(
            Tensor(np.zeros((2, 3))),
            Tensor(np.zeros((2, 4))),
            Tensor(np.zeros((3, 3))),
            Tensor(np.zeros((3, 3))),
            Tensor(np.zeros((3, 3))),
        )


def test_backward_sigmoid_at_zero():
    x = Tensor(0.0, requires_grad=True)
    grads = nm.backward(nm.sigmoid(x))
    assert float(grads[x]) == pytest.approx(0.25, abs=1e-15)


def test_backward_matmul_sum():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    b = Tensor([[3.0], [4.0]])
    grads = nm.backward(nm.matmul(a, b).sum())
    assert grads[a].tolist() == [[3.0, 4.0]]


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        nm.backward(x * 2.0)


def test_backward_rejects_non_finite():
    x = Tensor(np.inf, requires_grad=True)
    with pytest.raises(ContractError):
        nm.backward(x * 1.0)


def test_detach_blocks_gradient():
    x = Tensor(2.0, requires_grad=True)
    grads = nm.backward((x.detach() * x).sum())
    assert float(grads[x]) == 2.0  # only the live path contributes


def test_gradient_accumulates_across_uses():
    x = Tensor(3.0, requires_grad=True)
    grads = nm.backward(x * x)
    assert float(grads[x]) == pytest.approx(6.0)


def _fd_scalar(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


@pytest.mark.parametrize("seed", range(5))
def test_finite_difference_composite(seed):
    """Random composite of every primitive against central differences."""
    rng = np.random.default_rng(seed)
    shapes = dict(a=(3, 4), b=(4, 2), c=(3, 2), t=(3, 2))
    base = {k: rng.uniform(-2, 2, s) for k, s in shapes.items()}
    base["t"] = rng.integers(0, 2, shapes["t"]).astype(float)

    def build(values):
        a = Tensor(values["a"], requires_grad=True)
        b = Tensor(values["b"], requires_grad=True)
        c = Tensor(values["c"], requires_grad=True)
        z = nm.matmul(a, b) + c
        z = nm.softmax(z, axis=1)
        mixed = nm.concat([z, nm.sigmoid(c)], axis=0)
        stacked = nm.stack([mixed[0:3], mixed[3:6]], axis=1)
        pooled = (stacked * stacked).sum(axis=1).mean(axis=1)
        probs = nm.sigmoid(pooled.reshape((3, 1)) + c * 0.1)
        loss = nm.bce(Tensor(values["t"][:, :1]), probs[:, :1]) + nm.log(
            nm.exp(pooled * 0.25).sum()
        )
        return loss, {"a": a, "b": b, "c": c}

    loss, tensors = build(base)
    grads = nm.backward(loss)
    for key, tensor in tensors.items():
        g = grads[tensor]
        for _ in range(3):
            idx = tuple(rng.integers(0, s) for s in tensor.shape)

            def f(v, key=key, idx=idx):
                values = {k: a.copy() for k, a in base.items()}
                values[key][idx] = v
                return build(values)[0].item()

            fd = _fd_scalar(f, base[key][idx])
            assert relative_error(float(g[idx]), fd) <= 1e-5


def _check_all_gradients(build, arrays):
    """Every entry's reverse-mode gradient of `build(*tensors)` against central differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    grads = nm.backward(build(*tensors))
    for i, (tensor, base) in enumerate(zip(tensors, arrays)):
        assert grads[tensor].shape == base.shape
        for idx in np.ndindex(base.shape):

            def f(v, i=i, idx=idx):
                values = [a.copy() for a in arrays]
                values[i][idx] = v
                return build(*[Tensor(x) for x in values]).item()

            fd = _fd_scalar(f, base[idx])
            assert relative_error(float(grads[tensor][idx]), fd) <= 1e-5


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [
        ((2, 3, 4), (2, 4, 5)),
        ((2, 3, 4), (4, 5)),
        ((3, 4), (2, 4, 5)),
        ((3, 2, 3, 4), (2, 4, 5)),
        ((3, 1, 3, 4), (2, 4, 5)),
        ((3, 2, 3, 4), (1, 4, 5)),
    ],
    ids=[
        "batched-batched",
        "batched-rank2",
        "rank2-batched",
        "batch-over-stacked",
        "batch-over-stacked-broadcast",
        "batch-over-one",
    ],
)
def test_batched_matmul_matches_slices_and_finite_differences(shape_a, shape_b):
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
    out = nm.matmul(Tensor(a), Tensor(b)).data
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a_all = np.broadcast_to(a, lead + a.shape[-2:])
    b_all = np.broadcast_to(b, lead + b.shape[-2:])
    for index in np.ndindex(lead):
        assert np.max(np.abs(out[index] - naive_matmul(a_all[index], b_all[index]))) < 1e-12
    weight = Tensor(rng.normal(size=out.shape))
    _check_all_gradients(lambda x, y: (nm.matmul(x, y) * weight).sum(), [a, b])


@pytest.mark.parametrize("axes", [None, (1, 0, 2), (2, 0, 1)])
def test_transpose_axes_values_and_gradient(axes):
    rng = np.random.default_rng(10)
    a = rng.normal(size=(2, 3, 4))
    want = np.swapaxes(a, 1, 2) if axes is None else np.transpose(a, axes)
    assert np.array_equal(nm.transpose(Tensor(a), axes).data, want)
    weight = Tensor(rng.normal(size=want.shape))
    _check_all_gradients(lambda x: (nm.transpose(x, axes) * weight).sum(), [a])


def test_batched_attention_slices_match_naive_and_finite_differences():
    rng = np.random.default_rng(11)
    d = 3
    query, kv = rng.normal(size=(2, 4, d)), rng.normal(size=(2, 5, d))
    wq, wk, wv = (rng.normal(size=(2, d, d)) for _ in range(3))
    arrays = [query, kv, wq, wk, wv]
    out = nm.attention(*[Tensor(x) for x in arrays]).data
    for i in range(2):
        want = naive_attention(query[i], kv[i], wq[i], wk[i], wv[i])
        assert np.max(np.abs(out[i] - want)) < 1e-10
    weight = Tensor(rng.normal(size=out.shape))
    _check_all_gradients(lambda *xs: (nm.attention(*xs) * weight).sum(), arrays)


def test_outputs_finite_for_bounded_inputs():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1e3, 1e3, size=(4, 4))
    checks = [
        nm.softmax(Tensor(x), axis=1).data,
        nm.sigmoid(Tensor(x)).data,
        nm.matmul(Tensor(x), Tensor(x)).data,
        nm.attention(Tensor(x), Tensor(x), Tensor(x / 1e3), Tensor(x / 1e3), Tensor(x / 1e3)).data,
        nm.bce(Tensor((x > 0).astype(float)), nm.sigmoid(Tensor(x)).data).data,
    ]
    for out in checks:
        assert np.all(np.isfinite(out))


def test_determinism_bit_identical():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(5, 5)), rng.normal(size=(5, 5))

    def run():
        t = nm.attention(Tensor(a), Tensor(b), Tensor(a * 0.1), Tensor(b * 0.1), Tensor(a * 0.2))
        return nm.softmax(t, axis=1).data

    first, second = run(), run()
    assert np.array_equal(first, second)


@pytest.mark.parametrize("axis", [-1, (-2, -1), 0])
def test_bce_over_axes_is_each_slice_mean_with_its_gradient(axis):
    rng = np.random.default_rng(31)
    t = rng.integers(0, 2, (3, 2, 4)).astype(float)
    p = rng.uniform(0.05, 0.95, (3, 2, 4))
    out = nm.bce(Tensor(t), Tensor(p), axis=axis)
    want = np.mean(-(t * np.log(p) + (1 - t) * np.log1p(-p)), axis=axis)
    assert out.shape == want.shape and np.max(np.abs(out.data - want)) < 1e-12
    weights = rng.normal(size=want.shape)
    prob = Tensor(p, requires_grad=True)
    grad = nm.backward((nm.bce(Tensor(t), prob, axis=axis) * weights).sum())[prob]
    for index in [(0, 0, 0), (2, 1, 3), (1, 0, 2)]:
        def f(value):
            q = p.copy()
            q[index] = value
            return float(np.sum(nm.bce(Tensor(t), Tensor(q), axis=axis).data * weights))

        fd = (f(p[index] + 1e-6) - f(p[index] - 1e-6)) / 2e-6
        assert relative_error(grad[index], fd) < 1e-6
