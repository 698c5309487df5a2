import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coleaf import numerics as nm
from coleaf.branches import init_branch_params
from coleaf.errors import ContractError, DimensionError
from coleaf.harness import TrainConfig, sample_losses
from coleaf.numerics import Tensor
from coleaf.synthdata import CorpusSpec, generate_corpus

from oracles import (
    central_difference,
    naive_attention,
    naive_bce,
    naive_matmul,
    oracle_backward,
    relative_error,
)


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


def test_bce_target_is_a_constant_and_never_a_graph_parent():
    t = np.array([[1.0, 0.0], [0.0, 1.0]])
    prob = Tensor([[0.8, 0.3], [0.4, 0.6]], requires_grad=True)
    out = nm.bce(t, prob)
    assert out._parents == (prob,)
    assert nm.backward(out)[prob].shape == (2, 2)
    assert nm.bce(Tensor(t), prob).item() == out.item()
    with pytest.raises(ContractError, match="bce's target is a constant"):
        nm.bce(Tensor(t, requires_grad=True), prob)


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

            fd = central_difference(f, base[key][idx])
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

            fd = central_difference(f, base[idx])
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


@st.composite
def _broadcast_shapes(draw):
    """Two shapes that broadcast together: each drops some leading axes of one
    common shape and sets some of the axes it keeps to 1."""
    common = draw(st.lists(st.integers(1, 3), max_size=3))

    def operand():
        kept = common[draw(st.integers(0, len(common))) :]
        return tuple(1 if draw(st.booleans()) else n for n in kept)

    return operand(), operand()


@settings(max_examples=80, deadline=None)
@given(
    shapes=_broadcast_shapes(),
    op=st.sampled_from([nm.add, nm.sub, nm.mul, nm.div]),
    seed=st.integers(0, 2**32 - 1),
)
def test_broadcast_gradients_match_finite_differences(shapes, op, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shapes[0])
    # the divisor keeps away from 0, where div's gradient blows up
    b = np.asarray(rng.uniform(0.5, 2.0, size=shapes[1]) * rng.choice((-1.0, 1.0), size=shapes[1]))
    weight = Tensor(rng.normal(size=np.broadcast_shapes(*shapes)))
    _check_all_gradients(lambda x, y: (op(x, y) * weight).sum(), [a, b])


@pytest.mark.parametrize(
    "axes", [None, (1, 0, 2), (2, 0, 1), (0, -1, 1), (-1, 0, 1), (-1, -3, -2), (-3, -2, -1)]
)
def test_transpose_axes_values_and_gradient(axes):
    rng = np.random.default_rng(10)
    a = rng.normal(size=(2, 3, 4))
    want = np.swapaxes(a, 1, 2) if axes is None else np.transpose(a, axes)
    assert np.array_equal(nm.transpose(Tensor(a), axes).data, want)
    weight = Tensor(rng.normal(size=want.shape))
    _check_all_gradients(lambda x: (nm.transpose(x, axes) * weight).sum(), [a])


@pytest.mark.parametrize("keepdims", [False, True], ids=["dropped", "kept"])
@pytest.mark.parametrize("axis", [None, 1, -1, (0, 2), (-3, -1), (2, 0, 1)])
def test_mean_over_axes_matches_numpy_and_finite_differences(axis, keepdims):
    rng = np.random.default_rng(32)
    a = rng.normal(size=(2, 3, 4))
    out = Tensor(a).mean(axis=axis, keepdims=keepdims)
    want = np.mean(a, axis=axis, keepdims=keepdims)
    assert out.shape == want.shape
    assert np.max(np.abs(out.data - want)) < 1e-15
    weight = Tensor(rng.normal(size=want.shape))
    _check_all_gradients(lambda x: (x.mean(axis=axis, keepdims=keepdims) * weight).sum(), [a])


@pytest.mark.parametrize("axis", [0, 1, 2, -1, -3])
def test_stack_gradient_is_a_view_of_each_slice(axis):
    rng = np.random.default_rng(33)
    arrays = [rng.normal(size=(3, 4)) for _ in range(3)]
    out = nm.stack([Tensor(a, requires_grad=True) for a in arrays], axis=axis)
    assert np.array_equal(out.data, np.stack(arrays, axis=axis))
    g = rng.normal(size=out.shape)
    for i, grad in enumerate(out._grad_fn(g)):
        assert np.array_equal(grad, np.take(g, i, axis=axis))
        assert np.shares_memory(grad, g)
    weight = Tensor(rng.normal(size=out.shape))
    _check_all_gradients(lambda *xs: (nm.stack(xs, axis=axis) * weight).sum(), arrays)


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


def _per_problem_weight_grad(a, g, shape):
    """The right operand's gradient as one product per problem, summed over the axes it lacks."""
    return nm._unbroadcast(np.swapaxes(a, -1, -2) @ g, shape)


def _unbroadcast_shapes(monkeypatch):
    """The shapes `_unbroadcast` is asked for from now on."""
    shapes, inner = [], nm._unbroadcast

    def recorded(grad, shape):
        shapes.append(tuple(shape))
        return inner(grad, shape)

    monkeypatch.setattr(nm, "_unbroadcast", recorded)
    return shapes


@pytest.mark.parametrize("shape_b", [(64, 80), (2, 64, 64)], ids=["2d-weight", "stacked-weight"])
def test_a_shared_weight_at_the_fold_size_gets_one_folded_product(monkeypatch, shape_b):
    """At K x N >= FOLD_MIN_WEIGHT a weight lacking the input's batch axes takes the fold,
    which agrees with the per-video product and with central differences."""
    assert shape_b[-2] * shape_b[-1] >= nm.FOLD_MIN_WEIGHT
    rng = np.random.default_rng(26)
    a = rng.normal(size=(3, 2, 4, 64))  # B x S x T x D
    b = rng.normal(size=shape_b) / 8.0
    weight = rng.normal(size=(3, 2, 4, shape_b[-1]))
    w = Tensor(b, requires_grad=True)
    shapes = _unbroadcast_shapes(monkeypatch)
    grad = nm.backward((nm.matmul(Tensor(a), w) * weight).sum())[w]
    assert shape_b not in shapes  # no per-video product was summed
    want = _per_problem_weight_grad(a, weight, shape_b)
    assert grad.shape == shape_b
    assert np.max(np.abs(grad - want)) <= 1e-9 * np.max(np.abs(want))
    # the loss is linear in the weight, so a wide step is exact but for rounding
    for idx in [tuple(rng.integers(0, n) for n in shape_b) for _ in range(24)]:

        def f(v, idx=idx):
            values = b.copy()
            values[idx] = v
            return float(np.sum((a @ values) * weight))

        assert relative_error(grad[idx], central_difference(f, b[idx], h=1e-3)) <= 1e-9


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((16, 2, 10, 16), (2, 16, 16)), ((16, 10, 2, 16), (16, 5)), ((16, 4, 10, 16), (4, 16, 16))],
    ids=["reference-attention", "anchor-classifier", "anchor-attention"],
)
def test_desk_weights_keep_the_per_video_product(monkeypatch, shape_a, shape_b):
    assert shape_b[-2] * shape_b[-1] < nm.FOLD_MIN_WEIGHT
    rng = np.random.default_rng(27)
    a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
    weight = rng.normal(size=shape_a[:-1] + shape_b[-1:])
    w = Tensor(b, requires_grad=True)
    shapes = _unbroadcast_shapes(monkeypatch)
    grad = nm.backward((nm.matmul(Tensor(a), w) * weight).sum())[w]
    assert shapes.count(shape_b) == 1
    assert np.array_equal(grad, _per_problem_weight_grad(a, weight, shape_b))


# each op with the gradient it gives each operand for an output gradient g
_TWO_SIDED = {
    "add": (nm.add, lambda g, a, b: g, lambda g, a, b: g),
    "sub": (nm.sub, lambda g, a, b: g, lambda g, a, b: -g),
    "mul": (nm.mul, lambda g, a, b: g * b, lambda g, a, b: g * a),
    "div": (nm.div, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)),
    "matmul": (
        nm.matmul,
        lambda g, a, b: g @ np.swapaxes(b, -1, -2),
        lambda g, a, b: np.swapaxes(a, -1, -2) @ g,
    ),
}
_OPERAND_SHAPES = {
    "elementwise": [((3, 4), (3, 4)), ((2, 3, 4), (4,)), ((2, 1, 4), (3, 1))],
    "matmul": [((3, 4), (4, 5)), ((2, 3, 4), (4, 5)), ((2, 3, 4), (2, 4, 5))],
}


@pytest.mark.parametrize(
    "name, shapes",
    [
        (name, shapes)
        for name in _TWO_SIDED
        for shapes in _OPERAND_SHAPES["matmul" if name == "matmul" else "elementwise"]
    ],
)
@pytest.mark.parametrize("constant", [0, 1], ids=["left-constant", "right-constant"])
def test_a_constant_operand_gets_no_gradient_formed(name, shapes, constant):
    op, *formulas = _TWO_SIDED[name]
    rng = np.random.default_rng(28)
    arrays = [rng.uniform(0.5, 2.0, size=s) for s in shapes]
    g = rng.normal(size=op(*arrays).shape)
    live = 1 - constant
    operands = [Tensor(x, requires_grad=(i == live)) for i, x in enumerate(arrays)]
    out = op(*operands)
    slots = out._grad_fn(g)
    assert slots[constant] is None
    want = nm._unbroadcast(formulas[live](g, *arrays), shapes[live])
    assert np.array_equal(slots[live], want)
    # the same as the operand's gradient when both sides carry one
    both = [Tensor(x, requires_grad=True) for x in arrays]
    assert np.array_equal(op(*both)._grad_fn(g)[live], want)
    grads = nm.backward((out * g).sum())
    assert operands[constant] not in grads and np.array_equal(grads[operands[live]], want)


@pytest.mark.parametrize(
    "index",
    [
        (Ellipsis, slice(None, 3), slice(None)),
        (Ellipsis, slice(3, None), slice(None)),
        (Ellipsis, 0, slice(None), slice(None)),
    ],
    ids=["segment-rows", "class-token-rows", "first-modality"],
)
def test_take_of_a_basic_index_matches_finite_differences(index):
    rng = np.random.default_rng(29)
    a = rng.normal(size=(2, 2, 5, 3))
    weight = Tensor(rng.normal(size=a[index].shape))
    _check_all_gradients(lambda x: (x[index] * weight).sum(), [a])


@pytest.mark.parametrize(
    "index",
    [np.array([0, 2, 0, 0]), (slice(None), np.array([1, 1])), np.array([True, False, True])],
    ids=["repeated-rows", "repeated-columns", "mask"],
)
def test_take_of_an_advanced_index_adds_up_repeated_entries(index):
    rng = np.random.default_rng(30)
    a = rng.normal(size=(3, 4))
    weight = rng.normal(size=a[index].shape)
    x = Tensor(a, requires_grad=True)
    grad = nm.backward((x[index] * weight).sum())[x]
    want = np.zeros_like(a)
    np.add.at(want, index, weight)
    assert np.array_equal(grad, want)
    _check_all_gradients(lambda t: (t[index] * Tensor(weight)).sum(), [a])


# ops over 3 x 4 values, each giving 3 x 4 values
_UNARY = [
    nm.sigmoid,
    lambda x: nm.exp(x * 0.3),
    lambda x: nm.log(nm.sigmoid(x)),
    lambda x: nm.softmax(x, axis=-1),
    lambda x: nm.transpose(nm.transpose(x) * 0.5),
    lambda x: x.sum(axis=0, keepdims=True) - x,
    lambda x: x.mean(axis=(0, 1)) * x,
    lambda x: nm.stack([x[0], x[2], x[1]]),
    lambda x: nm.stack([x[:, :2], x[:, 2:]], axis=-1).reshape((3, 4)),
    lambda x: nm.concat([x[:, 2:], x[:, :2]], axis=1),
    lambda x: -x,
]
_BINARY = [
    nm.add,
    nm.sub,
    nm.mul,
    lambda x, y: x / (nm.sigmoid(y) + 0.5),
    lambda x, y: nm.matmul(nm.matmul(x, nm.transpose(y)), x) * 0.1,
    lambda x, y: nm.stack([x, y], axis=-1).sum(axis=-1),
]


def _random_graph(rng, steps=16):
    """A random graph over 3 x 4 values and its scalar loss.

    A hub node gets a consumer every third step, so it has six consumers
    created among other nodes, and the last node joins two of them (a diamond).
    Operands are drawn from every node so far: the first leaf is used by the hub
    and by a node with the constant leaf, and the rest are used at random.
    """
    leaves = [Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(3)]
    constant = Tensor(rng.normal(size=(3, 4)))
    hub = leaves[0] * leaves[1]
    nodes = [*leaves, constant, hub, leaves[0] - constant]
    for step in range(steps):
        first = hub if step % 3 == 0 else nodes[rng.integers(len(nodes))]
        if rng.random() < 0.5:
            out = _UNARY[rng.integers(len(_UNARY))](first)
        else:
            out = _BINARY[rng.integers(len(_BINARY))](first, nodes[rng.integers(len(nodes))])
        nodes.append(out)
    nodes.append(nodes[6] * nodes[9])  # the hub's consumers of steps 0 and 3
    return sum((end * Tensor(rng.normal(size=(3, 4)))).sum() for end in nodes[-3:])


def _assert_same_gradients(grads, want):
    assert set(grads) == set(want)
    for tensor, grad in want.items():
        assert grads[tensor].shape == grad.shape
        assert np.array_equal(grads[tensor], grad)


@pytest.mark.parametrize("seed", range(12))
def test_backward_matches_the_two_pass_walk_bit_for_bit(seed):
    loss = _random_graph(np.random.default_rng(seed))
    _assert_same_gradients(nm.backward(loss), oracle_backward(loss))


def test_backward_adds_a_nodes_consumers_latest_created_first():
    """Three consumers of one node give three terms whose sum depends on its order."""
    x = Tensor(np.array([1.0]), requires_grad=True)
    loss = sum((x * v).sum() for v in (1.0, 1e16, -1e16))
    # latest first: (-1e16 + 1e16) + 1.0; earliest first would round 1e16 + 1.0 to 1e16
    assert nm.backward(loss)[x].tolist() == [1.0]
    _assert_same_gradients(nm.backward(loss), oracle_backward(loss))


def test_backward_of_a_desk_batch_matches_the_two_pass_walk_bit_for_bit():
    samples = generate_corpus(CorpusSpec(n_videos=16, seed=11)).samples
    params = init_branch_params(16, 5, 12)
    totals, _ = sample_losses(samples, params, TrainConfig())
    loss = totals.mean()
    _assert_same_gradients(nm.backward(loss), oracle_backward(loss))
