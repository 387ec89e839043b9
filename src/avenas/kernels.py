"""Hot numeric kernels: 2-d convolution and bilinear resize, forward and
backward, in plain numpy.

Convolution is lowered to one BLAS matrix multiply per call (im2col / col2im,
Chellapilla et al. 2006): the strided ``kh x kw`` windows of the input are
gathered into a ``(b, ci*kh*kw, ho*wo)`` column matrix and contracted against
the kernel reshaped to ``(co, ci*kh*kw)``. Bilinear resize is separable, so it
is two small matrix multiplies with per-size interpolation matrices.

All kernels take pre-padded, C-contiguous float64 arrays; zero-padding is the
caller's job.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def active_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark metadata."""
    return "numpy"


def _im2col(xp, kh, kw, stride):
    """Columns ``(b, ci*kh*kw, ho*wo)``: row ``(i, dy, dx)``, column ``(y, x)``
    holds ``xp[:, i, y*stride + dy, x*stride + dx]``."""
    b, ci = xp.shape[:2]
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = win.shape[2], win.shape[3]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, ci * kh * kw, ho * wo), ho, wo


def conv2d_forward(xp, kern, stride):
    co, _, kh, kw = kern.shape
    cols, ho, wo = _im2col(xp, kh, kw, stride)
    return (kern.reshape(co, -1) @ cols).reshape(xp.shape[0], co, ho, wo)


def conv2d_grad_input(gout, kern, stride, hp, wp):
    b, co, ho, wo = gout.shape
    _, ci, kh, kw = kern.shape
    cols = (kern.reshape(co, -1).T @ gout.reshape(b, co, ho * wo)).reshape(
        b, ci, kh, kw, ho, wo)
    # col2im: scatter-add each kernel offset's columns back onto the input grid
    gx = np.zeros((b, ci, hp, wp))
    for dy in range(kh):
        for dx in range(kw):
            gx[:, :, dy:dy + stride * ho:stride, dx:dx + stride * wo:stride] += \
                cols[:, :, dy, dx]
    return gx


def conv2d_grad_kernel(xp, gout, stride, kh, kw):
    b, co, ho, wo = gout.shape
    cols, _, _ = _im2col(xp, kh, kw, stride)
    gk = np.matmul(gout.reshape(b, co, ho * wo), cols.transpose(0, 2, 1)).sum(0)
    return gk.reshape(co, xp.shape[1], kh, kw)


def _resize_coords(n_out, n_in):
    # half-pixel-centre sampling, clamped at the border
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    t = src - i0
    return i0, i1, t


@lru_cache(maxsize=64)
def _resize_matrix(n_out, n_in):
    """``(n_out, n_in)`` linear-interpolation matrix along one axis."""
    i0, i1, t = _resize_coords(n_out, n_in)
    r = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    r[rows, i0] += 1 - t
    r[rows, i1] += t
    r.flags.writeable = False
    return r


def resize_bilinear(x, oh, ow):
    _, _, h, w = x.shape
    return _resize_matrix(oh, h) @ x @ _resize_matrix(ow, w).T


def resize_bilinear_grad(gout, h, w):
    _, _, oh, ow = gout.shape
    return _resize_matrix(oh, h).T @ gout @ _resize_matrix(ow, w)
