import itertools

import numpy as np
import pytest

from avenas import kernels
from avenas.tensor_core import (
    Graph, ShapeError, Tensor, backward,
    add, bilinear_sum, concat, conv2d, conv2d_heads, global_avg_pool, matmul,
    mixture, mse, record, resize_bilinear, scale, softmax, split,
)

from helpers import (
    autodiff_grads, check_gradients, exp, l2norm, mul, rand_tensor, ref_conv2d_forward,
    ref_conv2d_gather, ref_conv2d_grad_input, ref_conv2d_grad_input_scatter,
    ref_conv2d_grad_kernel, ref_conv2d_heads_grad_input, ref_pad,
    ref_resize_bilinear, ref_resize_bilinear_grad, relu, reshape, silu,
)


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

def test_tensor_data_is_a_c_contiguous_float64_array():
    base = np.arange(24).reshape(4, 6)
    t = Tensor(base[:, ::2])
    assert t.data.flags.c_contiguous and t.data.dtype == np.float64
    assert np.array_equal(t.data, base[:, ::2])
    assert Tensor(3.0).shape == () and Tensor(np.asarray(2.0)).shape == ()


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 5)))
    out = matmul(Tensor(np.eye(3)), x)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_all_ones():
    # 4x4 constant-1 input, single 3x3 all-ones kernel, stride 1, no padding:
    # every output entry is the sum of 9 ones
    x = Tensor(np.ones((1, 1, 4, 4)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, k, stride=1, padding=0)
    assert out.shape == (1, 1, 2, 2)
    np.testing.assert_allclose(out.data, 9.0)


def test_conv2d_output_size_rule():
    x = Tensor(np.zeros((2, 3, 11, 9)))
    k = Tensor(np.zeros((4, 3, 3, 3)))
    out = conv2d(x, k, stride=2, padding=1)
    assert out.shape == (2, 4, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)


def test_relu_negative_is_zero():
    out = relu(Tensor(np.array([-3.0, -0.5, 2.0])))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_softmax_sums_to_one():
    rng = np.random.default_rng(1)
    out = softmax(Tensor(rng.normal(size=(4, 7))))
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


def test_shape_errors_name_primitive():
    with pytest.raises(ShapeError, match="matmul"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError, match="conv2d"):
        conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))
    with pytest.raises(ShapeError, match="mse"):
        mse(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_backward_rejects_nonscalar_loss():
    with Graph() as g:
        out = add(Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3)))
    with pytest.raises(ShapeError, match="scalar"):
        backward(g, out)


# ---------------------------------------------------------------------------
# backward: trivial analytic cases
# ---------------------------------------------------------------------------

def test_sum_of_squares_gradient():
    # sum(x^2) expressed with the primitive set: scale(mse(x, 0), numel)
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with Graph() as g:
        loss = scale(mse(x, Tensor(np.zeros(3))), 3)
    backward(g, loss)
    np.testing.assert_allclose(g.grad(x), 2 * x.data, atol=1e-12)


def test_mse_self_gradient_zero():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Graph() as g:
        loss = mse(x, Tensor(x.data.copy()))
    backward(g, loss)
    np.testing.assert_array_equal(g.grad(x), 0.0)
    assert float(loss.data) == 0.0


def test_unused_leaf_gets_zero_gradient():
    # y is recorded before the loss node, z after it, where a sweep that
    # starts at the loss never looks
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(2), requires_grad=True)
    z = Tensor(np.ones(4), requires_grad=True)
    with Graph() as g:
        scale(y, 1.0)
        loss = mse(x, Tensor(np.zeros(3)))
        scale(z, 1.0)
    assert [node.outputs[0] is loss for node in g.nodes] == [False, True, False]
    backward(g, loss)
    np.testing.assert_array_equal(g.grad(y), np.zeros(2))
    np.testing.assert_array_equal(g.grad(z), np.zeros(4))


def test_gradients_kept_for_requires_grad_leaves_only():
    # a padded conv (non-contiguous input gradient), a 0-d leaf reached through
    # scalar arithmetic, a constant leaf and an unused leaf
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    s = Tensor(np.asarray(0.5), requires_grad=True)
    unused = Tensor(np.ones(4), requires_grad=True)
    const = Tensor(np.zeros((1, 3, 5, 5)))
    with Graph() as g:
        y = relu(conv2d(x, k, padding=1))
        loss = mul(scale(s, 2.0), mse(y, const))
        scale(unused, 1.0)
    backward(g, loss)
    leaves = [x, k, s, unused]
    assert list(g.gradients) == leaves
    for t in leaves:
        assert type(g.grad(t)) is np.ndarray and g.grad(t).shape == t.shape
    for t in (y, loss, const):
        assert g.grad(t) is None
    assert g.grad(Tensor(np.ones(2))) is None


def test_backward_into_writes_leaf_gradients_into_given_arrays():
    # the same graph swept with and without destinations; x reaches the
    # loss through two nodes, so its gradient is a sum
    def sweep(into=None):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        before, after, never = (Tensor(np.ones(n), requires_grad=True) for n in (2, 3, 4))
        with Graph() as g:
            scale(before, 1.0)
            y = add(conv2d(x, k, padding=1), scale(x, 0.5))
            loss = mse(y, Tensor(np.zeros(y.shape)))
            scale(after, 1.0)
        tensors = (x, k, before, after, never)
        dest = None
        if into:
            dest = {t: np.full(t.shape, np.nan) for t in tensors}
        backward(g, loss, into=dest)
        return g, tensors, dest

    g0, plain, _ = sweep()
    g1, tensors, dest = sweep(into=True)
    for t, t0 in zip(tensors[:2], plain[:2]):
        assert g1.grad(t) is dest[t]
        assert dest[t].tobytes() == g0.grad(t0).tobytes()
    for t in tensors[2:]:
        assert not dest[t].any()
    assert g1.grad(tensors[4]) is None


def test_second_backward_on_a_graph_raises():
    # each VJP closure is dropped once it has run: a second sweep would give
    # every leaf zeros, so it must fail and say why
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    k = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
    with Graph() as g:
        loss = mse(conv2d(reshape(x, (1, 1, 1, 2)), k, act="relu"),
                   Tensor(np.zeros((1, 1, 1, 2))))
    backward(g, loss)
    first = g.grad(x).copy()
    assert all(node.vjp is None for node in g.nodes)
    with pytest.raises(RuntimeError, match="already swept"):
        backward(g, loss)
    np.testing.assert_array_equal(g.grad(x), first)


# ---------------------------------------------------------------------------
# gradient checks vs central differences (the spec's 1e-4 bound, 20 draws)
# ---------------------------------------------------------------------------

N_DRAWS = 20
TOL = 1e-4


def _loss_of(x):
    return mse(x, Tensor(np.zeros(x.shape)))


@pytest.mark.parametrize("seed", range(N_DRAWS))
def test_gradcheck_matmul(seed):
    rng = np.random.default_rng(seed)
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (4, 2))
    check_gradients(lambda ts: _loss_of(matmul(ts[0], ts[1])), [a, b], tol=TOL)


@pytest.mark.parametrize("seed", range(N_DRAWS))
def test_gradcheck_conv2d(seed):
    rng = np.random.default_rng(100 + seed)
    x = rand_tensor(rng, (2, 2, 5, 5))
    k = rand_tensor(rng, (3, 2, 3, 3))
    stride = 1 + seed % 2
    pad = seed % 2
    check_gradients(
        lambda ts: _loss_of(conv2d(ts[0], ts[1], stride=stride, padding=pad)),
        [x, k], tol=TOL)


@pytest.mark.parametrize("op,seed", [(op, s) for op in ("relu", "silu", "exp")
                                     for s in range(N_DRAWS)])
def test_gradcheck_unary(op, seed):
    rng = np.random.default_rng(200 + seed)
    x = rand_tensor(rng, (4, 3), avoid_zero=0.05 if op == "relu" else None)
    fn = {"relu": relu, "silu": silu, "exp": exp}[op]
    check_gradients(lambda ts: _loss_of(fn(ts[0])), [x], tol=TOL)


@pytest.mark.parametrize("seed", range(N_DRAWS))
def test_gradcheck_add_mul_broadcast(seed):
    rng = np.random.default_rng(300 + seed)
    a = rand_tensor(rng, (2, 3, 4))
    b = rand_tensor(rng, (3, 1) if seed % 2 else (1, 1))
    check_gradients(lambda ts: _loss_of(add(ts[0], ts[1])), [a, b], tol=TOL)
    check_gradients(lambda ts: _loss_of(mul(ts[0], ts[1])), [a, b], tol=TOL)


@pytest.mark.parametrize("seed", range(N_DRAWS))
def test_gradcheck_concat_pool_reshape_scale(seed):
    rng = np.random.default_rng(400 + seed)
    a = rand_tensor(rng, (2, 3))
    b = rand_tensor(rng, (2, 5))
    check_gradients(lambda ts: _loss_of(concat([ts[0], ts[1]], axis=1)), [a, b], tol=TOL)
    x = rand_tensor(rng, (2, 3, 4, 4))
    check_gradients(lambda ts: _loss_of(global_avg_pool(ts[0])), [x], tol=TOL)
    check_gradients(lambda ts: _loss_of(reshape(ts[0], (2, 48))), [x], tol=TOL)
    check_gradients(lambda ts: _loss_of(scale(ts[0], -1.7)), [x], tol=TOL)


@pytest.mark.parametrize("seed", range(N_DRAWS))
def test_gradcheck_softmax_mse_l2norm(seed):
    rng = np.random.default_rng(500 + seed)
    x = rand_tensor(rng, (3, 6))
    t = Tensor(rng.normal(size=(3, 6)))
    check_gradients(lambda ts: mse(softmax(ts[0]), t), [x], tol=TOL)
    check_gradients(lambda ts: mse(ts[0], t), [x], tol=TOL)
    check_gradients(lambda ts: l2norm(ts[0]), [x], tol=TOL)
    w = rng.uniform(0.5, 2.0, size=3)
    check_gradients(lambda ts: mse(ts[0], t, sample_weights=w), [x], tol=TOL)


def _masks(rng, n_scales, c):
    return (rng.uniform(size=(n_scales, c)) < 0.6).astype(float)


@pytest.mark.parametrize("seed", range(N_DRAWS))
def test_gradcheck_index(seed):
    # the mixing primitive reads row i of both weight matrices: gradients
    # reach that row and no other
    rng = np.random.default_rng(700 + seed)
    cands = [rand_tensor(rng, (2, 3, 2, 2)) for _ in range(3)]
    w_op, w_ch = rand_tensor(rng, (4, 3)), rand_tensor(rng, (4, 5))
    masks = _masks(rng, 5, 3)
    i = seed % 4
    fn = lambda ts: _loss_of(mixture(ts[:3], ts[3], ts[4], i, masks))
    check_gradients(fn, [*cands, w_op, w_ch], tol=TOL)
    grads = autodiff_grads(fn, [*cands, w_op, w_ch])
    for g in grads[3:]:
        assert np.abs(g[i]).max() > 0
        assert not np.delete(g, i, axis=0).any()
    with pytest.raises(ShapeError, match="row"):
        mixture(cands, w_op, w_ch, 4, masks)


def test_mixture_matches_numpy():
    rng = np.random.default_rng(4)
    cands = [Tensor(rng.normal(size=(2, 3, 2, 2))) for _ in range(3)]
    w_op, w_ch = rng.uniform(size=(2, 3)), rng.uniform(size=(2, 4))
    masks = _masks(rng, 4, 3)
    out = mixture(cands, Tensor(w_op), Tensor(w_ch), 1, masks)
    want = sum(w * c.data for w, c in zip(w_op[1], cands)) \
        * (w_ch[1] @ masks)[:, None, None]
    np.testing.assert_allclose(out.data, want, atol=1e-15)
    with pytest.raises(ShapeError, match="mixture"):
        mixture(cands[:2], Tensor(w_op), Tensor(w_ch), 1, masks)


def _reference_grads(loss_fn, leaves):
    with Graph() as g:
        loss = loss_fn()
    backward(g, loss)
    return loss.data, [g.grad(t) for t in leaves]


@pytest.mark.parametrize("seed", range(4))
def test_mixture_bit_identical_to_primitive_chain(seed):
    # the chain of mul/add/matmul/reshape nodes the primitive replaced, in
    # the same order: values and gradients must agree to the last bit
    rng = np.random.default_rng(900 + seed)
    cands = [rand_tensor(rng, (3, 8, 5, 5)) for _ in range(3)]
    w_op = Tensor(rng.dirichlet(np.ones(3), size=6), requires_grad=True)
    w_ch = Tensor(rng.dirichlet(np.ones(11), size=6), requires_grad=True)
    masks = _masks(rng, 11, 8)
    t = Tensor(rng.normal(size=(3, 8, 5, 5)))
    row = seed + 1
    out, got = _reference_grads(
        lambda: mse(mixture(cands, w_op, w_ch, row, masks), t), [*cands, w_op, w_ch])
    ws = [Tensor(w_op.data[row, o:o + 1].reshape(1, 1), requires_grad=True)
          for o in range(3)]
    cw = Tensor(w_ch.data[row].copy(), requires_grad=True)

    def chain():
        mixed = mul(cands[0], ws[0])
        for c, w in zip(cands[1:], ws[1:]):
            mixed = add(mixed, mul(c, w))
        chan = matmul(reshape(cw, (1, 11)), Tensor(masks))
        return mse(mul(mixed, reshape(chan, (8, 1, 1))), t)

    want, ref = _reference_grads(chain, [*cands, *ws, cw])
    assert out.tobytes() == want.tobytes()
    for a, b in zip(got[:3], ref[:3]):
        assert a.tobytes() == b.tobytes()
    assert got[3][row].tobytes() == np.concatenate([g.ravel() for g in ref[3:6]]).tobytes()
    assert got[4][row].tobytes() == ref[6].tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_bilinear_sum_bit_identical_to_primitive_chain(seed):
    rng = np.random.default_rng(950 + seed)
    k, m, n = 40, 3, 11
    a = Tensor(rng.dirichlet(np.ones(m), size=k), requires_grad=True)
    b = Tensor(rng.dirichlet(np.ones(n), size=k), requires_grad=True)
    cost = rng.uniform(0.0, 0.2, size=(k, m, n))
    out, got = _reference_grads(lambda: scale(bilinear_sum(a, cost, b), 0.05), [a, b])
    rows_a = [Tensor(a.data[j].copy(), requires_grad=True) for j in range(k)]
    rows_b = [Tensor(b.data[j].copy(), requires_grad=True) for j in range(k)]

    def chain():
        total = None
        for j in range(k):
            row = matmul(reshape(rows_a[j], (1, m)), Tensor(cost[j].copy()))
            val = matmul(row, reshape(rows_b[j], (n, 1)))
            total = val if total is None else add(total, val)
        return scale(reshape(total, ()), 0.05)

    want, ref = _reference_grads(chain, rows_a + rows_b)
    assert out.tobytes() == want.tobytes()
    assert got[0].tobytes() == np.stack(ref[:k]).tobytes()
    assert got[1].tobytes() == np.stack(ref[k:]).tobytes()


def _chain_conv(x, k, b=None, stride=1, padding=0, act=None):
    """The conv, bias-add and activation nodes one fused conv2d replaces."""
    y = conv2d(x, k, stride=stride, padding=padding)
    if b is not None:
        y = add(y, b)
    return {"relu": relu, "silu": silu, None: lambda t: t}[act](y)


def test_fused_conv_bit_identical_to_primitive_chain():
    rng = np.random.default_rng(31)
    x = rand_tensor(rng, (2, 3, 7, 7))
    k3, k1 = rand_tensor(rng, (4, 3, 3, 3)), rand_tensor(rng, (4, 3, 1, 1))
    b = rand_tensor(rng, (4, 1, 1))
    for k, bias, stride, padding, act in [(k3, b, 2, 1, "relu"), (k3, b, 1, 1, "silu"),
                                          (k3, b, 1, 0, None), (k1, None, 2, 0, None)]:
        leaves = [x, k] + ([bias] if bias is not None else [])
        outs = []
        for conv in (conv2d, _chain_conv):
            with Graph() as g:
                y = conv(x, k, bias, stride=stride, padding=padding, act=act)
                loss = mse(y, Tensor(np.zeros(y.shape)))
            backward(g, loss)
            outs.append([y.data, loss.data] + [g.grad(t) for t in leaves])
        for got, want in zip(*outs):
            np.testing.assert_array_equal(got, want)

    # one input feeding fuse-mb, conv and skip in the supernet's operator
    # order, so x's gradient is accumulated over three conv nodes in turn
    expand, eb = rand_tensor(rng, (6, 3, 3, 3)), rand_tensor(rng, (6, 1, 1))
    project, pb = rand_tensor(rng, (4, 6, 1, 1)), rand_tensor(rng, (4, 1, 1))
    cands = [(expand, eb), (project, pb), (k3, b), (k1,)]
    w_op = Tensor(rng.dirichlet(np.ones(3), size=2), requires_grad=True)
    w_ch = Tensor(rng.dirichlet(np.ones(2), size=2), requires_grad=True)
    masks = _masks(rng, 2, 4)
    target = Tensor(rng.normal(size=(2, 4, 4, 4)))
    leaves = [x, w_op, w_ch] + [t for c in cands for t in c]
    outs = []
    for conv in (conv2d, _chain_conv):
        with Graph() as g:
            h = conv(x, expand, eb, stride=2, padding=1, act="silu")
            ops = [conv(h, project, pb),
                   conv(x, k3, b, stride=2, padding=1, act="relu"),
                   conv(x, k1, stride=2)]
            loss = mse(mixture(ops, w_op, w_ch, 1, masks), target)
        backward(g, loss)
        outs.append([loss.data] + [g.grad(t) for t in leaves])
    for got, want in zip(*outs):
        np.testing.assert_array_equal(got, want)


def test_fused_conv_rejects_bad_bias_and_activation():
    x, k = Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3)))
    with pytest.raises(ShapeError, match="conv2d: bias"):
        conv2d(x, k, bias=Tensor(np.zeros(3)))
    with pytest.raises(ValueError, match="conv2d: unknown activation 'tanh'"):
        conv2d(x, k, act="tanh")


@pytest.mark.parametrize("seed", range(N_DRAWS))
def test_gradcheck_bilinear_sum(seed):
    rng = np.random.default_rng(800 + seed)
    a, b = rand_tensor(rng, (4, 3)), rand_tensor(rng, (4, 5))
    cost = rng.uniform(size=(4, 3, 5))
    check_gradients(lambda ts: bilinear_sum(ts[0], cost, ts[1]), [a, b], tol=TOL)
    want = sum(a.data[k] @ cost[k] @ b.data[k] for k in range(4))
    assert float(bilinear_sum(a, cost, b).data) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ShapeError, match="bilinear_sum"):
        bilinear_sum(a, cost[:, :2], b)


@pytest.mark.parametrize("seed", range(N_DRAWS))
def test_gradcheck_resize_bilinear(seed):
    rng = np.random.default_rng(600 + seed)
    x = rand_tensor(rng, (1, 2, 6, 6))
    oh, ow = [(3, 3), (4, 5), (9, 8), (6, 6)][seed % 4]
    check_gradients(
        lambda ts: _loss_of(resize_bilinear(ts[0], oh, ow)), [x], tol=TOL)


def test_gradcheck_three_layer_network():
    # random 3-layer net: conv -> relu -> pool -> affine, vs finite differences
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 1, 6, 6)))
    k1 = rand_tensor(rng, (4, 1, 3, 3))
    b1 = rand_tensor(rng, (4, 1, 1))
    w2 = rand_tensor(rng, (4, 5))
    b2 = rand_tensor(rng, (5,))
    target = Tensor(rng.normal(size=(2, 5)))

    def fn(ts):
        h = relu(add(conv2d(x, ts[0], stride=2, padding=1), ts[1]))
        h = global_avg_pool(h)
        return mse(add(matmul(h, ts[2]), ts[3]), target)

    check_gradients(fn, [k1, b1, w2, b2], tol=TOL)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        with Graph() as g:
            loss = mse(silu(conv2d(x, k, stride=1, padding=1)),
                       Tensor(np.zeros((2, 3, 5, 5))))
        backward(g, loss)
        return loss.data.copy(), g.grad(x).copy(), g.grad(k).copy()

    l1, gx1, gk1 = run()
    l2, gx2, gk2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert gx1.tobytes() == gx2.tobytes()
    assert gk1.tobytes() == gk2.tobytes()


def test_backward_linearity():
    # grad of (a*f + b*g) == a*grad(f) + b*grad(g), elementwise, to 1e-12
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    t1 = Tensor(rng.normal(size=(4, 4)))
    t2 = Tensor(rng.normal(size=(4, 4)))
    a, b = 0.3, -1.7

    def f(ts):
        return mse(ts[0], t1)

    def h(ts):
        return l2norm(add(ts[0], t2))

    gf = autodiff_grads(f, [x])[0]
    gh = autodiff_grads(h, [x])[0]
    gc = autodiff_grads(lambda ts: add(scale(f(ts), a), scale(h(ts), b)), [x])[0]
    np.testing.assert_allclose(gc, a * gf + b * gh, atol=1e-12)


def test_graph_topological_by_construction():
    x = Tensor(np.ones(3), requires_grad=True)
    with Graph() as g:
        y = add(x, Tensor(np.ones(3)))
        z = mse(y, Tensor(np.zeros(3)))
    seen = set()
    for node in g.nodes:
        assert all(t is None or t in seen or t in node.leaves for t in node.inputs)
        seen.update(node.leaves, node.outputs)
    assert g.nodes[0].leaves == [x] and g.nodes[-1].outputs == (z,)


def test_leaves_holding_equal_arrays_get_a_gradient_each():
    # the tape keys each tensor by identity, not by the values it holds
    a, b = (Tensor(np.ones(3), requires_grad=True) for _ in range(2))
    with Graph() as g:
        loss = mse(add(scale(a, 2.0), b), Tensor(np.zeros(3)))
    backward(g, loss)
    assert list(g.gradients) == [a, b]
    np.testing.assert_array_equal(g.grad(a), np.full(3, 4.0))
    np.testing.assert_array_equal(g.grad(b), np.full(3, 2.0))


def test_one_tensor_as_both_inputs_of_a_node():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with Graph() as g:
        loss = mse(add(x, x), Tensor(np.zeros(3)))
    backward(g, loss)
    assert list(g.gradients) == [x]
    gy = 2.0 * (x.data + x.data) / 3
    assert g.grad(x).tobytes() == (gy + gy).tobytes()


def test_a_split_part_read_by_two_nodes():
    # the part's two gradients are summed under it before split's VJP runs
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Graph() as g:
        first, _ = split(x, 2)
        loss = add(mse(first, Tensor(np.zeros((1, 3)))),
                   mse(scale(first, 3.0), Tensor(np.zeros((1, 3)))))
    backward(g, loss)
    g_scaled = 2.0 * (3.0 * first.data) / 3
    g_first = 2.0 * first.data / 3
    assert g.grad(x)[:1].tobytes() == (g_scaled * 3.0 + g_first).tobytes()
    assert np.signbit(g.grad(x)[1:]).all() and not g.grad(x)[1:].any()


def test_no_graph_means_no_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    out = add(x, x)
    np.testing.assert_array_equal(out.data, 2.0)


def test_no_graph_gives_constants():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    out = add(x, x)
    parts = split(x, 2)
    assert not out.requires_grad and not any(p.requires_grad for p in parts)


def test_nested_graphs_record_on_the_innermost_only():
    x = Tensor(np.ones(3), requires_grad=True)
    with Graph() as outer:
        y = scale(x, 2.0)
        with Graph() as inner:
            z = add(y, x)
        w = add(y, x)
    assert [n.kind for n in outer.nodes] == ["scale", "add"]
    assert outer.nodes[0].outputs == (y,) and outer.nodes[1].outputs == (w,)
    assert [n.outputs for n in inner.nodes] == [(z,)]
    # y is no output of the inner graph, so there it is a leaf
    assert inner.nodes[0].leaves == [y, x]


def test_constant_inputs_record_nothing():
    c = Tensor(np.ones((2, 1, 4, 4)))
    with Graph() as g:
        out = add(c, c)
        parts = split(c, 2)
        heads = conv2d_heads(c, [(np.ones((2, 1, 3, 3)), None, "relu"),
                                 (np.ones((3, 1, 3, 3)), None, None)], padding=1)
    assert g.nodes == [] and not g._known
    assert not any(t.requires_grad for t in (out, *parts, *heads))


def test_record_gives_a_tensor_per_array_or_a_tuple_per_tuple():
    x = Tensor(np.arange(4.0), requires_grad=True)
    with Graph() as g:
        one = record("scale", (x,), x.data * 2.0, lambda gs: (gs[0] * 2.0,))
        two = record("split", (x,), (x.data[:2], x.data[2:]),
                     lambda gs: (np.concatenate(gs),))
    assert isinstance(one, Tensor) and one.requires_grad
    assert isinstance(two, tuple) and all(t.requires_grad for t in two)
    assert [n.outputs for n in g.nodes] == [(one,), two]


# ---------------------------------------------------------------------------
# kernels agree with the nested-loop reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b,ci,co,hp,wp,k,stride", [
    (2, 3, 4, 8, 8, 3, 2),      # batch > 1, even size, stride 2
    (1, 1, 5, 9, 7, 3, 1),      # one input channel, odd non-square size
    (3, 1, 2, 11, 11, 3, 2),    # one input channel, odd size, stride 2
    (2, 4, 3, 7, 9, 1, 1),      # 1x1 kernel
    (2, 2, 3, 9, 5, 1, 2),      # 1x1 kernel, stride 2, odd sizes
    (2, 3, 2, 10, 9, 3, 2),     # stride 2 leaving an unused last row
])
def test_kernels_match_reference(b, ci, co, hp, wp, k, stride):
    rng = np.random.default_rng(11)
    xp = rng.normal(size=(b, ci, hp, wp))
    kern = rng.normal(size=(co, ci, k, k))
    out, cols = kernels.conv2d_forward(xp, kern, stride)
    assert out.flags.c_contiguous
    tol = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out, ref_conv2d_forward(xp, kern, stride), **tol)
    g = rng.normal(size=out.shape)
    np.testing.assert_allclose(kernels.conv2d_grad_input(g, kern, stride, hp, wp),
                               ref_conv2d_grad_input(g, kern, stride, hp, wp), **tol)
    np.testing.assert_allclose(kernels.conv2d_grad_kernel(cols, g, stride, k, k),
                               ref_conv2d_grad_kernel(xp, g, stride, k, k), **tol)
    # resize: down in one axis and up in the other, then the reverse
    for oh, ow in ((max(1, hp // 2), wp + 3), (hp + 2, max(1, wp // 3))):
        np.testing.assert_allclose(kernels.resize_bilinear(xp, oh, ow),
                                   ref_resize_bilinear(xp, oh, ow), **tol)
        gg = rng.normal(size=(b, ci, oh, ow))
        np.testing.assert_allclose(kernels.resize_bilinear_grad(gg, hp, wp),
                                   ref_resize_bilinear_grad(gg, hp, wp), **tol)


@pytest.mark.parametrize("b", [1, 16])
@pytest.mark.parametrize("k,stride", list(itertools.product((1, 3), (1, 2))))
@pytest.mark.parametrize("ho,wo", [(1, 1), (2, 2), (3, 5), (4, 4), (8, 8)])
def test_grad_input_bit_identical_to_channel_first_scatter(b, k, stride, ho, wo):
    # the grid the windows exactly cover, then one with a last row (at
    # stride 2) and a last column that no window reaches
    rng = np.random.default_rng(ho * 100 + wo)
    ci, co = 3, 4
    for hp, wp in (((ho - 1) * stride + k, (wo - 1) * stride + k),
                   ((ho - 1) * stride + k + stride - 1, (wo - 1) * stride + k + 1)):
        gout = rng.normal(size=(b, co, ho, wo))
        kern = rng.normal(size=(co, ci, k, k))
        got = kernels.conv2d_grad_input(gout, kern, stride, hp, wp)
        assert got.shape == (b, ci, hp, wp) and got.flags.c_contiguous
        assert np.array_equal(got, ref_conv2d_grad_input_scatter(gout, kern, stride, hp, wp))


# ---------------------------------------------------------------------------
# conv2d_heads: convs of one input as one node with an output per head
# ---------------------------------------------------------------------------

def _heads(rng, ci, cos, acts=("silu", "relu", None, "relu")):
    return [(rand_tensor(rng, (co, ci, 3, 3)), rand_tensor(rng, (co, 1, 1)), act)
            for co, act in zip(cos, acts)]


def _heads_loss(ys, targets, used):
    losses = [mse(ys[j], targets[j]) for j in used]
    loss = losses[0]
    for more in losses[1:]:
        loss = add(loss, more)
    return loss


def _heads_run(x, heads, stride, targets, used, shared):
    """Outputs, loss and the gradients of x and of every kernel and bias,
    with the loss over the outputs of heads ``used``; one ``conv2d_heads``
    node if ``shared``, else one ``conv2d`` node per head."""
    with Graph() as g:
        if shared:
            ys = conv2d_heads(x, heads, stride=stride, padding=1)
        else:
            ys = [conv2d(x, k, b, stride=stride, padding=1, act=act)
                  for k, b, act in heads]
        loss = _heads_loss(ys, targets, used)
    backward(g, loss)
    leaves = [t for k, b, _ in heads for t in (k, b)]
    return [y.data for y in ys], loss.data, g.grad(x), [g.grad(t) for t in leaves]


def _pre_activation_grads(x, heads, stride, targets, used):
    """The gradient each head's conv output gets through its activation and
    the loss, from leaves holding those outputs."""
    pres = [Tensor(conv2d(x.data, k.data, b.data, stride=stride, padding=1).data,
                   requires_grad=True) for k, b, _ in heads]
    act_fn = {"relu": relu, "silu": silu, None: lambda t: scale(t, 1.0)}
    with Graph() as g:
        loss = _heads_loss([act_fn[act](p) for p, (_, _, act) in zip(pres, heads)],
                           targets, used)
    backward(g, loss)
    return [g.grad(p) for p in pres]


@pytest.mark.parametrize("b", [1, 16])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("cos", [(4,), (4, 5), (4, 5, 2), (4, 5, 2, 3)])
def test_conv2d_heads_keep_the_bits_of_a_conv2d_node_per_head(b, stride, cos):
    # outputs and kernel and bias gradients as separate nodes give them; the
    # input gradient is one scatter of the column gradients, summed in the
    # reference's order (which four heads tell apart from any other)
    rng = np.random.default_rng(b + 10 * stride + len(cos))
    x = rand_tensor(rng, (b, 3, 6, 5))
    heads = _heads(rng, 3, cos)
    targets = [Tensor(rng.normal(size=(b, co, 5 // stride + 1, 4 // stride + 1)))
               for co in cos]
    used = range(len(cos))
    got = _heads_run(x, heads, stride, targets, used, shared=True)
    want = _heads_run(x, heads, stride, targets, used, shared=False)
    for a, w in zip(got[0] + [got[1]] + got[3], want[0] + [want[1]] + want[3]):
        assert a.shape == w.shape and np.array_equal(a, w)
    gpre = _pre_activation_grads(x, heads, stride, targets, used)
    ref = ref_conv2d_heads_grad_input(gpre, [k.data for k, _, _ in heads], stride, 8, 7)
    assert np.array_equal(got[2], ref[:, :, 1:-1, 1:-1])
    np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("stride", [1, 2])
def test_gradcheck_conv2d_heads(stride):
    rng = np.random.default_rng(40 + stride)
    x = rand_tensor(rng, (2, 2, 5, 4))
    (k0, b0, a0), (k1, b1, a1) = _heads(rng, 2, (3, 2), acts=("silu", None))
    targets = [Tensor(rng.normal(size=(2, co, 4 // stride + 1, 3 // stride + 1)))
               for co in (3, 2)]

    def fn(ts):
        ys = conv2d_heads(ts[0], [(ts[1], ts[2], a0), (ts[3], ts[4], a1)],
                          stride=stride, padding=1)
        return _heads_loss(ys, targets, (0, 1))

    check_gradients(fn, [x, k0, b0, k1, b1], tol=TOL)


@pytest.mark.parametrize("live", [0, 1])
def test_conv2d_heads_head_outside_the_loss(live):
    # only one head reaches the loss: it scatters with its own kernel, so
    # every gradient is the one a lone conv2d node gives; the other head's
    # kernel and bias get zeros
    rng = np.random.default_rng(7 + live)
    x = rand_tensor(rng, (2, 3, 6, 6))
    heads = _heads(rng, 3, (4, 5))
    targets = [Tensor(rng.normal(size=(2, co, 3, 3))) for co in (4, 5)]
    got = _heads_run(x, heads, 2, targets, [live], shared=True)
    lone = _heads_run(x, [heads[live]], 2, [targets[live]], [0], shared=False)
    assert np.array_equal(got[0][live], lone[0][0])
    assert got[1] == lone[1]
    assert np.array_equal(got[2], lone[2])
    assert all(np.array_equal(a, w) for a, w in zip(got[3][2 * live:2 * live + 2], lone[3]))
    assert not any(g.any() for g in got[3][2 * (1 - live):2 * (1 - live) + 2])


def test_conv2d_heads_second_backward_raises():
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, (1, 2, 4, 4))
    heads = _heads(rng, 2, (3, 2))
    with Graph() as g:
        ys = conv2d_heads(x, heads, stride=1, padding=1)
        loss = _heads_loss(ys, [Tensor(np.zeros(y.shape)) for y in ys], (0, 1))
    # the one conv node, two mse and their add: x, kernels, biases and
    # targets are no nodes
    assert [node.kind for node in g.nodes] == ["conv2d", "mse", "mse", "add"]
    backward(g, loss)
    with pytest.raises(RuntimeError, match="already swept"):
        backward(g, loss)


def test_conv2d_heads_without_a_graph():
    rng = np.random.default_rng(9)
    x = rand_tensor(rng, (2, 3, 5, 5))
    heads = _heads(rng, 3, (4, 5))
    free = conv2d_heads(x, heads, stride=2, padding=1)
    with Graph():
        taped = conv2d_heads(x, heads, stride=2, padding=1)
    for y, t, (k, b, act) in zip(free, taped, heads):
        assert np.array_equal(y.data, t.data)
        assert np.array_equal(y.data, conv2d(x, k, b, stride=2, padding=1, act=act).data)
        assert not y.requires_grad and t.requires_grad


def test_conv2d_heads_rejects_mismatched_heads():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    k3, k1 = Tensor(np.zeros((3, 2, 3, 3))), Tensor(np.zeros((3, 2, 1, 1)))
    with pytest.raises(ShapeError, match="conv2d_heads: kernels"):
        conv2d_heads(x, [(k3, None, None), (k1, None, None)])
    with pytest.raises(ShapeError, match="conv2d_heads: bias"):
        conv2d_heads(x, [(k3, None, None), (k3, Tensor(np.zeros(3)), None)])
    with pytest.raises(ShapeError, match="conv2d_heads: incompatible"):
        conv2d_heads(x, [(Tensor(np.zeros((3, 4, 3, 3))), None, None)])
    with pytest.raises(ShapeError, match="at least one head"):
        conv2d_heads(x, [])


@pytest.mark.parametrize("co,ci,k,ho,wo", [(1, 1, 1, 1, 1), (4, 3, 3, 2, 3),
                                           (8, 8, 3, 8, 8), (16, 8, 1, 4, 4)])
def test_grad_kernel_at_batch_one_keeps_the_batch_sum_bits(co, ci, k, ho, wo):
    # the sum over one sample gives each -0.0 of the GEMM +0.0; the batch-1
    # path must return the same bits, zero signs included, whatever zero
    # signs the GEMM makes of the rows and columns that are zero
    rng = np.random.default_rng(co + ci + k)
    cols = rng.normal(size=(1, ci, k * k, ho * wo))
    gout = rng.normal(size=(1, co, ho, wo))
    gout[0, 0] = -0.0
    cols[0, -1] = 0.0
    cols[0, 0, 0] = -0.0
    got = kernels.conv2d_grad_kernel(cols, gout, 1, k, k)
    want = np.matmul(gout.reshape(1, co, ho * wo),
                     cols.reshape(1, ci * k * k, ho * wo).transpose(0, 2, 1)).sum(0)
    want = want.reshape(co, ci, k, k)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert not np.signbit(got[got == 0]).any()


# ---------------------------------------------------------------------------
# the conv path's padding and window gather keep their bits against np.pad,
# sliding_window_view and a transpose
# ---------------------------------------------------------------------------

def _conv_results(x, k, b, stride, padding, act):
    """Output and input, kernel and bias gradients of one conv2d node."""
    with Graph() as g:
        y = conv2d(x, k, b, stride=stride, padding=padding, act=act)
        target = Tensor(np.random.default_rng(0).normal(size=y.shape))
        loss = mse(y, target)
    backward(g, loss)
    return [y.data, g.grad(x), g.grad(k), g.grad(b)]


@pytest.mark.parametrize("shape", [(2, 3, 7, 5), (1, 2, 6, 9)])
@pytest.mark.parametrize("k,stride,padding,act", list(itertools.product(
    (1, 3), (1, 2), (0, 1, 2), (None, "relu", "silu"))))
def test_conv2d_bit_identical_to_reference_gather(monkeypatch, shape, k, stride,
                                                   padding, act):
    rng = np.random.default_rng(sum(shape) + 10 * k + stride + padding)
    x = rand_tensor(rng, shape)
    kern = rand_tensor(rng, (4, shape[1], k, k))
    bias = rand_tensor(rng, (4, 1, 1))
    got = _conv_results(x, kern, bias, stride, padding, act)
    # the reference: np.pad outside the node, the reference gather inside it
    monkeypatch.setattr(kernels, "conv2d_forward", ref_conv2d_gather)
    xp = Tensor(ref_pad(x.data, padding), requires_grad=True)
    want = _conv_results(xp, kern, bias, stride, 0, act)
    h, w = shape[2:]
    want[1] = want[1][:, :, padding:padding + h, padding:padding + w]
    for name, a, b in zip(("output", "grad x", "grad kernel", "grad bias"), got, want):
        assert a.shape == b.shape and np.array_equal(a, b), name


_COLUMN_CASES = [(3, 3, 1), (3, 3, 2), (1, 1, 1), (1, 1, 2), (3, 1, 2), (1, 3, 1)]


@pytest.mark.parametrize("kh,kw,stride", _COLUMN_CASES)
def test_conv2d_forward_columns_follow_docstring(kh, kw, stride):
    rng = np.random.default_rng(kh + 3 * kw + 7 * stride)
    xp = rng.normal(size=(2, 3, 7, 6))
    _, cols = kernels.conv2d_forward(xp, rng.normal(size=(4, 3, kh, kw)), stride)
    ho, wo = (7 - kh) // stride + 1, (6 - kw) // stride + 1
    assert cols.shape == (2, 3, kh * kw, ho * wo)
    for i, dy, dx, y, x in itertools.product(range(3), range(kh), range(kw),
                                             range(ho), range(wo)):
        assert np.array_equal(cols[:, i, dy * kw + dx, y * wo + x],
                              xp[:, i, y * stride + dy, x * stride + dx])


@pytest.mark.parametrize("kh,kw,stride", _COLUMN_CASES)
def test_conv2d_forward_columns_sharing_the_input_are_read_only(kh, kw, stride):
    rng = np.random.default_rng(5)
    xp = rng.normal(size=(2, 3, 7, 6))
    _, cols = kernels.conv2d_forward(xp, rng.normal(size=(4, 3, kh, kw)), stride)
    if np.shares_memory(cols, xp):
        assert not cols.flags.writeable
    # a 1x1 stride-1 conv's columns are the input itself, seen read-only
    assert np.shares_memory(cols, xp) == ((kh, kw, stride) == (1, 1, 1))


def test_conv2d_forward_input_stays_unwritable_through_its_columns():
    xp = np.arange(2 * 3 * 4 * 5, dtype=np.float64).reshape(2, 3, 4, 5)
    before = xp.copy()
    _, cols = kernels.conv2d_forward(xp, np.ones((2, 3, 1, 1)), 1)
    with pytest.raises(ValueError, match="read-only"):
        cols[0, 0, 0, 0] = -1.0
    assert np.array_equal(xp, before) and xp.flags.writeable


@pytest.mark.parametrize("view", ["transposed", "row-sliced", "strided"])
def test_conv2d_forward_rejects_non_contiguous_input(view):
    rng = np.random.default_rng(9)
    base = rng.normal(size=(2, 3, 8, 8))
    xp = {"transposed": base.transpose(0, 1, 3, 2), "row-sliced": base[:, :, 1:],
          "strided": base[:, :, ::2, ::2]}[view]
    assert not xp.flags.c_contiguous
    with pytest.raises(ValueError, match="not contiguous"):
        kernels.conv2d_forward(xp, rng.normal(size=(4, 3, 3, 3)), 1)


def test_conv2d_forward_fortran_ordered_input_keeps_its_values():
    # one block in memory, so numpy takes it; the windows follow its strides
    rng = np.random.default_rng(10)
    xp = rng.normal(size=(2, 3, 8, 7))
    kern = rng.normal(size=(4, 3, 3, 3))
    for stride in (1, 2):
        want = ref_conv2d_gather(xp, kern, stride)
        got = kernels.conv2d_forward(np.asfortranarray(xp), kern, stride)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# grouped nodes: one kernel, bias or weight row per equal batch slice
# ---------------------------------------------------------------------------

def _sweep(build, leaves):
    """Outputs, loss and the gradient of every leaf of the graph ``build()``
    records, which returns (outputs, loss)."""
    with Graph() as g:
        ys, loss = build()
    backward(g, loss)
    return [y.data for y in ys], loss.data, [g.grad(t) for t in leaves]


def _assert_same_bits(got, want):
    (ys, loss, grads), (ys_w, loss_w, grads_w) = got, want
    assert np.array_equal(loss, loss_w)
    for a, w in zip(ys + grads, ys_w + grads_w):
        assert a.shape == w.shape and np.array_equal(a, w)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("n_slices", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("cos,bias", [((4,), True), ((4,), False), ((4, 5), True)])
def test_conv2d_heads_per_slice_kernels_keep_the_bits_of_a_node_per_slice(
        n, n_slices, stride, cos, bias):
    # slice s of the stacked input through its own kernels and biases: the
    # outputs, the loss and the gradients of the input and of every kernel
    # and bias are those of one conv2d_heads node per slice
    rng = np.random.default_rng(100 * n + 10 * n_slices + stride + len(cos))
    xs = [rand_tensor(rng, (n, 3, 6, 5)) for _ in range(n_slices)]
    x = Tensor(np.concatenate([t.data for t in xs]), requires_grad=True)
    heads = [_heads(rng, 3, cos) for _ in range(n_slices)]
    if not bias:
        heads = [[(k, None, act) for k, _, act in hs] for hs in heads]
    targets = [Tensor(rng.normal(size=(n * n_slices, co, 5 // stride + 1, 4 // stride + 1)))
               for co in cos]
    leaves = [t for j in range(len(cos)) for hs in heads for t in hs[j][:2]
              if t is not None]

    def grouped():
        per_head = [([hs[j][0] for hs in heads],
                     None if not bias else [hs[j][1] for hs in heads], heads[0][j][2])
                    for j in range(len(cos))]
        ys = conv2d_heads(x, per_head, stride=stride, padding=1)
        return ys, _heads_loss(ys, targets, range(len(cos)))

    def per_slice():
        outs = [conv2d_heads(t, hs, stride=stride, padding=1) for t, hs in zip(xs, heads)]
        ys = [concat([o[j] for o in outs], axis=0) for j in range(len(cos))]
        return ys, _heads_loss(ys, targets, range(len(cos)))

    got = _sweep(grouped, [x] + leaves)
    want = _sweep(per_slice, xs + leaves)
    gx = np.concatenate(want[2][:n_slices])
    _assert_same_bits(got, (want[0], want[1], [gx] + want[2][n_slices:]))


def test_conv2d_heads_per_slice_one_head_is_one_node():
    rng = np.random.default_rng(11)
    x = rand_tensor(rng, (4, 2, 4, 4))
    ks = [rand_tensor(rng, (3, 2, 3, 3)) for _ in range(2)]
    with Graph() as g:
        (y,) = conv2d_heads(x, [(ks, None, "relu")], padding=1)
    assert [n.kind for n in g.nodes].count("conv2d") == 1
    for s, k in enumerate(ks):
        assert np.array_equal(y.data[2 * s:2 * s + 2],
                              conv2d(x.data[2 * s:2 * s + 2], k, padding=1, act="relu").data)


def test_conv2d_heads_rejects_mismatched_slices():
    x = Tensor(np.zeros((3, 2, 4, 4)))
    k, b = Tensor(np.zeros((3, 2, 3, 3))), Tensor(np.zeros((3, 1, 1)))
    with pytest.raises(ShapeError, match="conv2d_heads: batch 3"):
        conv2d_heads(x, [([k, k], None, None)])
    with pytest.raises(ShapeError, match="conv2d_heads: 2 kernels and 1 biases"):
        conv2d_heads(x, [([k, k], [b], None)])
    with pytest.raises(ShapeError, match="one of each per batch slice"):
        conv2d_heads(x, [([k, k], None, None), ([k], None, None)])
    with pytest.raises(ShapeError, match="of one head differ in shape"):
        conv2d_heads(x, [([k, Tensor(np.zeros((2, 2, 3, 3)))], None, None)])


@pytest.mark.parametrize("n,hw", [(1, 1), (3, 1), (1, 4), (3, 5)])
@pytest.mark.parametrize("rows", [(2, 0), (4, 1, 3)])
def test_mixture_per_slice_rows_keep_the_bits_of_a_node_per_row(n, hw, rows):
    # each slice mixed by its own row: the output, the loss and the gradients
    # of the candidates and of both weight matrices are those of one mixture
    # node per slice (1 x 1 maps and batch-1 slices included)
    rng = np.random.default_rng(50 + 7 * n + hw + len(rows))
    k = len(rows)
    cands = [rand_tensor(rng, (n * k, 8, hw, hw)) for _ in range(3)]
    w_op = Tensor(rng.dirichlet(np.ones(3), size=6), requires_grad=True)
    w_ch = Tensor(rng.dirichlet(np.ones(11), size=6), requires_grad=True)
    masks = _masks(rng, 11, 8)
    t = Tensor(rng.normal(size=(n * k, 8, hw, hw)))
    parts = [[Tensor(c.data[s * n:s * n + n], requires_grad=True) for c in cands]
             for s in range(k)]

    def grouped():
        y = mixture(cands, w_op, w_ch, list(rows), masks)
        return [y], mse(y, t)

    def per_row():
        y = concat([mixture(p, w_op, w_ch, r, masks) for p, r in zip(parts, rows)],
                   axis=0)
        return [y], mse(y, t)

    got = _sweep(grouped, [*cands, w_op, w_ch])
    want = _sweep(per_row, [c for p in parts for c in p] + [w_op, w_ch])
    joined = [np.concatenate([want[2][3 * s + o] for s in range(k)]) for o in range(3)]
    _assert_same_bits(got, (want[0], want[1], joined + want[2][-2:]))
    untouched = np.delete(np.arange(6), rows)
    assert not got[2][3][untouched].any() and not got[2][4][untouched].any()


def test_mixture_rejects_bad_rows():
    rng = np.random.default_rng(5)
    cands = [Tensor(rng.normal(size=(4, 3, 2, 2))) for _ in range(3)]
    w_op, w_ch = Tensor(rng.uniform(size=(3, 3))), Tensor(rng.uniform(size=(3, 4)))
    masks = _masks(rng, 4, 3)
    with pytest.raises(ShapeError, match="no row 3"):
        mixture(cands, w_op, w_ch, [0, 3], masks)
    with pytest.raises(ShapeError, match="rows \\[1, 1\\] repeat"):
        mixture(cands, w_op, w_ch, [1, 1], masks)
    with pytest.raises(ShapeError, match="3 rows"):
        mixture(cands, w_op, w_ch, [0, 1, 2], masks)


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_split(seed):
    rng = np.random.default_rng(300 + seed)
    x = rand_tensor(rng, (6, 2, 3))
    ws = [rand_tensor(rng, (2, 3), requires_grad=False) for _ in range(3)]

    def fn(ts):
        parts = split(ts[0], 3)
        loss = _loss_of(mul(parts[0], ws[0]))
        for p, w in zip(parts[1:], ws[1:]):
            loss = add(loss, _loss_of(mul(p, w)))
        return loss

    check_gradients(fn, [x], tol=TOL)


def test_split_parts_and_a_part_without_gradient():
    # a part that never reaches the loss gives -0.0, so a sum it joins keeps
    # the other reader's bits, -0.0 entries included
    data = np.arange(12.0).reshape(4, 3)
    data[2:, 1] = -0.0             # its difference from the target is -0.0
    x = Tensor(data, requires_grad=True)
    t = Tensor(data + np.array([1.0, 0.0, -1.0]))
    with Graph() as g:
        first, second = split(x, 2)
        loss = add(mse(x, t), mse(first, Tensor(np.zeros((2, 3)))))
    assert np.array_equal(first.data, x.data[:2]) and np.array_equal(second.data, x.data[2:])
    backward(g, loss)
    alone = 2.0 * (x.data - t.data) / 12
    assert np.array_equal(g.grad(x)[2:], alone[2:])
    assert np.signbit(g.grad(x)[2:, 1]).all()       # -0.0 + -0.0
    assert split(x, 1) == (x,)
    with pytest.raises(ShapeError, match="split: \\(4, 3\\) does not split into 3"):
        split(x, 3)


def test_split_into_one_part_takes_a_tensor():
    # one part is the input as a Tensor, whatever it was given as; a 0-d
    # tensor is one part but has no batch axis to cut
    (part,) = split(np.ones((2, 3)), 1)
    assert isinstance(part, Tensor) and np.array_equal(part.data, np.ones((2, 3)))
    scalar = Tensor(2.0)
    assert split(scalar, 1) == (scalar,)
    with pytest.raises(ShapeError, match="split: \\(\\) does not split into 2"):
        split(scalar, 2)


def test_concat_of_0d_tensors_raises_shape_error():
    with pytest.raises(ShapeError, match="concat: 0-d"):
        concat([Tensor(1.0), Tensor(2.0)])
    with pytest.raises(ShapeError, match="concat: shapes"):
        concat([Tensor(np.ones(2)), Tensor(2.0)])


def test_mse_keeps_the_bits_of_np_mean():
    rng = np.random.default_rng(12)
    for shape in [(1,), (5,), (3, 4), (2, 3, 4, 5)]:
        a, b = rand_tensor(rng, shape), rand_tensor(rng, shape, requires_grad=False)
        w = rng.uniform(size=shape[0])
        diff = a.data - b.data
        sq = (diff * diff).reshape(shape[0], -1)
        assert np.array_equal(mse(a, b).data, np.mean(diff * diff))
        assert np.array_equal(mse(a, b, sample_weights=w).data,
                              np.asarray((w * sq.mean(axis=1)).mean()))
