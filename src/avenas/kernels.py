"""Hot numeric kernels: 2-d convolution and bilinear resize, forward and
backward, in plain numpy.

Convolution is lowered to one BLAS matrix multiply per call (im2col / col2im,
Chellapilla et al. 2006): the strided ``kh x kw`` windows of the input, one
strided view over the padded buffer, are gathered into
``(b, ci, kh*kw, ho*wo)`` columns and, viewed as
``(b, ci*kh*kw, ho*wo)``, contracted against the kernel reshaped to
``(co, ci*kh*kw)``. The forward pass returns those columns with its output,
and the kernel gradient reads them instead of gathering them again; a caller
that needs the kernel gradient keeps them until the backward pass. The input
gradient scatters its GEMM's columns back (col2im) on a channel-last grid.
Convs that share their input and kernel size share the columns: viewed as an
image ``(b, ci*kh*kw, ho, wo)``, they make any other such conv a 1x1 conv,
and its column gradient, passed as ``gcols``, joins one scatter.
Convs of equal shape over equal batch slices of one input (the views of a
group, each with its own kernel) run one call per slice; the forward pass and
the input gradient write into their slice of one buffer, passed as ``out``.
Bilinear resize is separable, so it is two small matrix multiplies with
per-size interpolation matrices.

All kernels take pre-padded, C-contiguous float64 arrays; zero-padding is the
caller's job. The forward kernel requires that layout rather than assuming
it: it builds the window view on the input's buffer, and numpy raises
``ValueError`` for an array that is not one contiguous block. Columns that
view the input (a 1x1 stride-1 kernel's) are read-only; copies are writeable.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark metadata."""
    return "numpy"


def conv2d_forward(xp, kern, stride, out=None):
    """Output ``(b, co, ho, wo)`` and the columns ``(b, ci, kh*kw, ho*wo)``:
    entry ``[:, i, dy*kw + dx, y*wo + x]`` holds
    ``xp[:, i, y*stride + dy, x*stride + dx]``. The output is written into
    ``out``, a C-contiguous array of its shape, if given.

    The windows are one ``(b, ci, kh, kw, ho, wo)`` view over ``xp``'s buffer
    with strides ``(s0, s1, s2, s3, s2*stride, s3*stride)``; reshaping it
    copies them into the columns, unless numpy can reshape it as a view, as
    for a 1x1 stride-1 kernel. Such columns are read-only like the window
    view; copied ones are writeable. ``xp`` must be C-contiguous: an array
    that is not one contiguous block raises ``ValueError``.
    """
    b, ci, hp, wp = xp.shape
    co, _, kh, kw = kern.shape
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    s0, s1, s2, s3 = xp.strides
    # np.ndarray over the buffer: as_strided's Python wrapper costs more per
    # call than a small conv's gather
    win = np.ndarray((b, ci, kh, kw, ho, wo), xp.dtype, xp, 0,
                     (s0, s1, s2, s3, s2 * stride, s3 * stride))
    win.flags.writeable = False
    cols = win.reshape(b, ci, kh * kw, ho * wo)
    if out is None:
        out = kern.reshape(co, -1) @ cols.reshape(b, ci * kh * kw, ho * wo)
        return out.reshape(b, co, ho, wo), cols
    np.matmul(kern.reshape(co, -1), cols.reshape(b, ci * kh * kw, ho * wo),
              out=out.reshape(b, co, ho * wo))
    return out, cols


def conv2d_grad_input(gout, kern, stride, hp, wp, gcols=None, out=None):
    """Input gradient ``(b, ci, hp, wp)`` on the padded grid, C-contiguous,
    written into ``out``, a C-contiguous array of that shape, if given.

    The GEMM ``kern^T gout`` gives the column gradient ``(b, ci*kh*kw,
    ho*wo)``; ``gcols``, if given, is another of that shape (another conv's
    over the same columns) and is added to it first, so both take one
    scatter. col2im adds each tap's columns onto its strided window of a
    zeroed grid in ``dy``, ``dx`` order, so every pixel sums its taps in one
    fixed order from zero. With more than one tap the grid is ``(hp, wp, b,
    ci)``: an add then runs ``b * ci`` elements per pixel rather than ``wo``
    per row. The copy back to ``(b, ci, hp, wp)`` keeps the layout that
    numpy's reductions over the result (a mixture's weight gradient) follow,
    and so their bits.
    """
    b, co, ho, wo = gout.shape
    _, ci, kh, kw = kern.shape
    cols = kern.reshape(co, -1).T @ gout.reshape(b, co, ho * wo)
    if gcols is not None:
        cols += gcols.reshape(cols.shape)
    if kh * kw == 1:      # one add: no loop to shorten, so no copy back
        cols = cols.reshape(b, ci, ho, wo)
        if (stride, hp, wp) == (1, ho, wo):
            # the grid is the window: a zeroed grid's sum, in place
            return np.add(cols, 0.0, out=cols if out is None else out)
        if out is None:
            out = np.zeros((b, ci, hp, wp))
        else:
            out.fill(0.0)
        out[:, :, :stride * ho:stride, :stride * wo:stride] += cols
        return out
    cols = cols.reshape(b, ci, kh, kw, ho, wo).transpose(2, 3, 4, 5, 0, 1)
    gx = np.zeros((hp, wp, b, ci))
    for dy in range(kh):
        for dx in range(kw):
            gx[dy:dy + stride * ho:stride, dx:dx + stride * wo:stride] += cols[dy, dx]
    if out is None:
        return np.ascontiguousarray(gx.transpose(2, 3, 0, 1))
    out[...] = gx.transpose(2, 3, 0, 1)
    return out


def conv2d_grad_kernel(cols, gout, stride, kh, kw):
    """Kernel gradient from the forward pass's ``cols``, which already hold
    the ``stride``.

    The batch's per-sample GEMMs are summed over the batch axis. At batch 1
    the one GEMM is the sum; ``+= 0.0`` gives its ``-0.0`` entries the
    ``+0.0`` that the sum over one sample would, without that full copy.
    """
    b, co, ho, wo = gout.shape
    ci = cols.shape[1]
    g2 = gout.reshape(b, co, ho * wo)
    c2 = cols.reshape(b, ci * kh * kw, ho * wo)
    if b == 1:
        gk = g2[0] @ c2[0].T
        gk += 0.0
    else:
        gk = np.add.reduce(np.matmul(g2, c2.transpose(0, 2, 1)), axis=0)
    return gk.reshape(co, ci, kh, kw)


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
