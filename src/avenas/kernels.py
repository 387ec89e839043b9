"""Hot numeric kernels: direct 2-d convolution and bilinear resize, forward and
backward.

Two interchangeable implementations are provided: numba ``@njit`` loops and a
pure-numpy path. The active one is picked at import time from the
``AVENAS_BACKEND`` environment variable (``"numba"`` or ``"numpy"``; default is
numba when importable). ``get_backend()`` exposes both so they can be compared
directly, e.g. by ``benchmarks/kernel_bench.py``.

All kernels take pre-padded, C-contiguous float64 arrays; zero-padding is the
caller's job.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np


# ---------------------------------------------------------------------------
# pure-numpy implementation
# ---------------------------------------------------------------------------

def _np_conv2d_forward(xp, kern, stride):
    b, ci, hp, wp = xp.shape
    co, _, kh, kw = kern.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((b, co, ho, wo))
    # direct evaluation of the convolution sum, vectorised over one (dy, dx)
    # kernel offset at a time
    for dy in range(kh):
        for dx in range(kw):
            xs = xp[:, :, dy:dy + stride * ho:stride, dx:dx + stride * wo:stride]
            out += np.einsum("bihw,oi->bohw", xs, kern[:, :, dy, dx], optimize=True)
    return out


def _np_conv2d_grad_input(gout, kern, stride, hp, wp):
    b, co, ho, wo = gout.shape
    _, ci, kh, kw = kern.shape
    gx = np.zeros((b, ci, hp, wp))
    for dy in range(kh):
        for dx in range(kw):
            gx[:, :, dy:dy + stride * ho:stride, dx:dx + stride * wo:stride] += \
                np.einsum("bohw,oi->bihw", gout, kern[:, :, dy, dx], optimize=True)
    return gx


def _np_conv2d_grad_kernel(xp, gout, stride, kh, kw):
    b, co, ho, wo = gout.shape
    ci = xp.shape[1]
    gk = np.zeros((co, ci, kh, kw))
    for dy in range(kh):
        for dx in range(kw):
            xs = xp[:, :, dy:dy + stride * ho:stride, dx:dx + stride * wo:stride]
            gk[:, :, dy, dx] = np.einsum("bihw,bohw->oi", xs, gout, optimize=True)
    return gk


def _resize_coords(n_out, n_in):
    # half-pixel-centre sampling, clamped at the border
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    t = src - i0
    return i0, i1, t


def _np_resize_bilinear(x, oh, ow):
    _, _, h, w = x.shape
    y0, y1, ty = _resize_coords(oh, h)
    x0, x1, tx = _resize_coords(ow, w)
    ty = ty[:, None]
    tx = tx[None, :]
    a = x[:, :, y0[:, None], x0[None, :]]
    b = x[:, :, y0[:, None], x1[None, :]]
    c = x[:, :, y1[:, None], x0[None, :]]
    d = x[:, :, y1[:, None], x1[None, :]]
    return (a * (1 - ty) * (1 - tx) + b * (1 - ty) * tx
            + c * ty * (1 - tx) + d * ty * tx)


def _np_resize_bilinear_grad(gout, h, w):
    b, cch, oh, ow = gout.shape
    y0, y1, ty = _resize_coords(oh, h)
    x0, x1, tx = _resize_coords(ow, w)
    gx = np.zeros((b, cch, h, w))
    ty = ty[:, None]
    tx = tx[None, :]
    yy0 = np.broadcast_to(y0[:, None], (oh, ow))
    yy1 = np.broadcast_to(y1[:, None], (oh, ow))
    xx0 = np.broadcast_to(x0[None, :], (oh, ow))
    xx1 = np.broadcast_to(x1[None, :], (oh, ow))
    np.add.at(gx, (slice(None), slice(None), yy0, xx0), gout * (1 - ty) * (1 - tx))
    np.add.at(gx, (slice(None), slice(None), yy0, xx1), gout * (1 - ty) * tx)
    np.add.at(gx, (slice(None), slice(None), yy1, xx0), gout * ty * (1 - tx))
    np.add.at(gx, (slice(None), slice(None), yy1, xx1), gout * ty * tx)
    return gx


_NUMPY = SimpleNamespace(
    name="numpy",
    conv2d_forward=_np_conv2d_forward,
    conv2d_grad_input=_np_conv2d_grad_input,
    conv2d_grad_kernel=_np_conv2d_grad_kernel,
    resize_bilinear=_np_resize_bilinear,
    resize_bilinear_grad=_np_resize_bilinear_grad,
)


# ---------------------------------------------------------------------------
# numba implementation
# ---------------------------------------------------------------------------

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # numba is an optional extra; the numpy backend needs none
    _HAVE_NUMBA = False

if _HAVE_NUMBA:

    @njit(cache=True)
    def _nb_conv2d_forward(xp, kern, stride):
        b, ci, hp, wp = xp.shape
        co, _, kh, kw = kern.shape
        ho = (hp - kh) // stride + 1
        wo = (wp - kw) // stride + 1
        out = np.zeros((b, co, ho, wo))
        for n in range(b):
            for o in range(co):
                for i in range(ci):
                    for y in range(ho):
                        for x in range(wo):
                            acc = 0.0
                            for dy in range(kh):
                                for dx in range(kw):
                                    acc += xp[n, i, y * stride + dy, x * stride + dx] \
                                        * kern[o, i, dy, dx]
                            out[n, o, y, x] += acc
        return out

    @njit(cache=True)
    def _nb_conv2d_grad_input(gout, kern, stride, hp, wp):
        b, co, ho, wo = gout.shape
        ci = kern.shape[1]
        kh = kern.shape[2]
        kw = kern.shape[3]
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

    @njit(cache=True)
    def _nb_conv2d_grad_kernel(xp, gout, stride, kh, kw):
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

    @njit(cache=True)
    def _nb_resize_bilinear(x, oh, ow):
        b, c, h, w = x.shape
        out = np.empty((b, c, oh, ow))
        for y in range(oh):
            sy = (y + 0.5) * (h / oh) - 0.5
            if sy < 0.0:
                sy = 0.0
            if sy > h - 1.0:
                sy = h - 1.0
            y0 = int(np.floor(sy))
            y1 = min(y0 + 1, h - 1)
            ty = sy - y0
            for x_ in range(ow):
                sx = (x_ + 0.5) * (w / ow) - 0.5
                if sx < 0.0:
                    sx = 0.0
                if sx > w - 1.0:
                    sx = w - 1.0
                x0 = int(np.floor(sx))
                x1 = min(x0 + 1, w - 1)
                tx = sx - x0
                for n in range(b):
                    for ch in range(c):
                        out[n, ch, y, x_] = (
                            x[n, ch, y0, x0] * (1 - ty) * (1 - tx)
                            + x[n, ch, y0, x1] * (1 - ty) * tx
                            + x[n, ch, y1, x0] * ty * (1 - tx)
                            + x[n, ch, y1, x1] * ty * tx
                        )
        return out

    @njit(cache=True)
    def _nb_resize_bilinear_grad(gout, h, w):
        b, c, oh, ow = gout.shape
        gx = np.zeros((b, c, h, w))
        for y in range(oh):
            sy = (y + 0.5) * (h / oh) - 0.5
            if sy < 0.0:
                sy = 0.0
            if sy > h - 1.0:
                sy = h - 1.0
            y0 = int(np.floor(sy))
            y1 = min(y0 + 1, h - 1)
            ty = sy - y0
            for x_ in range(ow):
                sx = (x_ + 0.5) * (w / ow) - 0.5
                if sx < 0.0:
                    sx = 0.0
                if sx > w - 1.0:
                    sx = w - 1.0
                x0 = int(np.floor(sx))
                x1 = min(x0 + 1, w - 1)
                tx = sx - x0
                for n in range(b):
                    for ch in range(c):
                        g = gout[n, ch, y, x_]
                        gx[n, ch, y0, x0] += g * (1 - ty) * (1 - tx)
                        gx[n, ch, y0, x1] += g * (1 - ty) * tx
                        gx[n, ch, y1, x0] += g * ty * (1 - tx)
                        gx[n, ch, y1, x1] += g * ty * tx
        return gx

    _NUMBA = SimpleNamespace(
        name="numba",
        conv2d_forward=_nb_conv2d_forward,
        conv2d_grad_input=_nb_conv2d_grad_input,
        conv2d_grad_kernel=_nb_conv2d_grad_kernel,
        resize_bilinear=_nb_resize_bilinear,
        resize_bilinear_grad=_nb_resize_bilinear_grad,
    )


def available_backends() -> list[str]:
    names = ["numpy"]
    if _HAVE_NUMBA:
        names.append("numba")
    return names


def get_backend(name: str) -> SimpleNamespace:
    if name == "numpy":
        return _NUMPY
    if name == "numba":
        if not _HAVE_NUMBA:
            raise RuntimeError("numba backend requested but numba is not importable")
        return _NUMBA
    raise ValueError(f"unknown kernel backend {name!r} (expected 'numba' or 'numpy')")


def _select_default() -> SimpleNamespace:
    requested = os.environ.get("AVENAS_BACKEND", "").strip().lower()
    if requested:
        return get_backend(requested)
    return _NUMBA if _HAVE_NUMBA else _NUMPY


_ACTIVE = _select_default()


def active_backend() -> str:
    return _ACTIVE.name


def set_backend(name: str) -> None:
    """Switch the dispatch target at runtime (used by the kernel benchmark)."""
    global _ACTIVE
    _ACTIVE = get_backend(name)


def conv2d_forward(xp, kern, stride):
    return _ACTIVE.conv2d_forward(xp, kern, stride)


def conv2d_grad_input(gout, kern, stride, hp, wp):
    return _ACTIVE.conv2d_grad_input(gout, kern, stride, hp, wp)


def conv2d_grad_kernel(xp, gout, stride, kh, kw):
    return _ACTIVE.conv2d_grad_kernel(xp, gout, stride, kh, kw)


def resize_bilinear(x, oh, ow):
    return _ACTIVE.resize_bilinear(x, oh, ow)


def resize_bilinear_grad(gout, h, w):
    return _ACTIVE.resize_bilinear_grad(gout, h, w)
