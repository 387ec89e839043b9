"""Shared test utilities: central-difference gradient oracle."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from avenas.tensor_core import Graph, Tensor, backward


def numeric_grad(fn, tensors, wrt, h=1e-5):
    """Central-difference gradient of scalar fn w.r.t. one input tensor.

    ``fn`` maps the tensor list to a scalar Tensor; evaluations run without a
    recording graph so they stay independent of the reverse-mode path.
    """
    t = tensors[wrt]
    g = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(fn(tensors).data)
        flat[i] = orig - h
        fm = float(fn(tensors).data)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def autodiff_grads(fn, tensors):
    with Graph() as g:
        loss = fn(tensors)
    backward(g, loss)
    return [g.grad(t) for t in tensors]


def rel_error(a, b):
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return np.abs(a - b).max(initial=0.0) / denom


def check_gradients(fn, tensors, tol=1e-4, h=1e-5):
    """Compare reverse-mode gradients against central differences."""
    got = autodiff_grads(fn, tensors)
    for i, t in enumerate(tensors):
        if not t.requires_grad:
            continue
        want = numeric_grad(fn, tensors, i, h=h)
        err = rel_error(got[i], want)
        assert err < tol, f"gradient mismatch on input {i}: rel err {err:.3e}"


def rand_tensor(rng, shape, requires_grad=True, lo=-1.0, hi=1.0, avoid_zero=None):
    data = rng.uniform(lo, hi, size=shape)
    if avoid_zero is not None:
        # keep activations away from their kink so finite differences are clean
        data = np.where(np.abs(data) < avoid_zero,
                        np.sign(data) * avoid_zero + (data == 0) * avoid_zero, data)
    return Tensor(data, requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# nested-loop reference kernels: the convolution and bilinear-resize sums
# written out element by element, independent of the vectorised kernels
# ---------------------------------------------------------------------------

def ref_conv2d_forward(xp, kern, stride):
    b, ci, hp, wp = xp.shape
    co, _, kh, kw = kern.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((b, co, ho, wo))
    for n in range(b):
        for o in range(co):
            for y in range(ho):
                for x in range(wo):
                    acc = 0.0
                    for i in range(ci):
                        for dy in range(kh):
                            for dx in range(kw):
                                acc += xp[n, i, y * stride + dy, x * stride + dx] \
                                    * kern[o, i, dy, dx]
                    out[n, o, y, x] = acc
    return out


def ref_conv2d_gather(xp, kern, stride):
    """``kernels.conv2d_forward`` built from numpy's window helper: the
    windows come from ``sliding_window_view``, a ``[::stride]`` slice and a
    transpose, then the same GEMM. Pair it with ``ref_pad``."""
    b, ci = xp.shape[:2]
    co, _, kh, kw = kern.shape
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = win.shape[2], win.shape[3]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(b, ci, kh * kw, ho * wo)
    out = kern.reshape(co, -1) @ cols.reshape(b, ci * kh * kw, ho * wo)
    return out.reshape(b, co, ho, wo), cols


def ref_pad(x, padding):
    """Zero padding of the two spatial axes with ``np.pad``."""
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def ref_conv2d_grad_input(gout, kern, stride, hp, wp):
    b, co, ho, wo = gout.shape
    _, ci, kh, kw = kern.shape
    gx = np.zeros((b, ci, hp, wp))
    for n in range(b):
        for o in range(co):
            for y in range(ho):
                for x in range(wo):
                    g = gout[n, o, y, x]
                    for i in range(ci):
                        for dy in range(kh):
                            for dx in range(kw):
                                gx[n, i, y * stride + dy, x * stride + dx] += \
                                    g * kern[o, i, dy, dx]
    return gx


def ref_conv2d_grad_kernel(xp, gout, stride, kh, kw):
    b, co, ho, wo = gout.shape
    ci = xp.shape[1]
    gk = np.zeros((co, ci, kh, kw))
    for n in range(b):
        for o in range(co):
            for y in range(ho):
                for x in range(wo):
                    g = gout[n, o, y, x]
                    for i in range(ci):
                        for dy in range(kh):
                            for dx in range(kw):
                                gk[o, i, dy, dx] += \
                                    g * xp[n, i, y * stride + dy, x * stride + dx]
    return gk


def _ref_sample(y, n_out, n_in):
    # half-pixel-centre source coordinate, clamped at the border
    s = min(max((y + 0.5) * (n_in / n_out) - 0.5, 0.0), n_in - 1.0)
    i0 = int(np.floor(s))
    return i0, min(i0 + 1, n_in - 1), s - i0


def ref_resize_bilinear(x, oh, ow):
    b, c, h, w = x.shape
    out = np.zeros((b, c, oh, ow))
    for y in range(oh):
        y0, y1, ty = _ref_sample(y, oh, h)
        for x_ in range(ow):
            x0, x1, tx = _ref_sample(x_, ow, w)
            for n in range(b):
                for ch in range(c):
                    out[n, ch, y, x_] = (x[n, ch, y0, x0] * (1 - ty) * (1 - tx)
                                         + x[n, ch, y0, x1] * (1 - ty) * tx
                                         + x[n, ch, y1, x0] * ty * (1 - tx)
                                         + x[n, ch, y1, x1] * ty * tx)
    return out


def ref_resize_bilinear_grad(gout, h, w):
    b, c, oh, ow = gout.shape
    gx = np.zeros((b, c, h, w))
    for y in range(oh):
        y0, y1, ty = _ref_sample(y, oh, h)
        for x_ in range(ow):
            x0, x1, tx = _ref_sample(x_, ow, w)
            for n in range(b):
                for ch in range(c):
                    g = gout[n, ch, y, x_]
                    gx[n, ch, y0, x0] += g * (1 - ty) * (1 - tx)
                    gx[n, ch, y0, x1] += g * (1 - ty) * tx
                    gx[n, ch, y1, x0] += g * ty * (1 - tx)
                    gx[n, ch, y1, x1] += g * ty * tx
    return gx
