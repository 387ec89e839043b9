"""Minimal dense-tensor reverse-mode autodiff engine.

Graphs are define-by-run tapes: while a ``Graph`` is active (used as a context
manager), every primitive with an input that needs a gradient records a node;
with no active graph, or with only constant inputs, the primitives just
compute values, and the outputs are constants. A fresh graph is built per
forward pass, which keeps the contract trivial for a search loop whose
sampled structure changes every step.

Record contract: ``record`` is the one writer of a graph's nodes. Each
primitive, and any operation built outside this module, hands it its output
arrays and its VJP closure, and anything only the backward pass needs (a
relu mask, concat's split points) is computed inside that closure, so
unrecorded inference pays nothing for it. The tape holds operations only: a
requires-grad input that no node produced is a leaf, listed by the first
node that reads it, and a constant is not on it at all. A node has one
output or several, and its VJP gets a list with one gradient per output,
None where none arrived; a node that no gradient reached is skipped. The
VJP returns one gradient per input, None for an input it gives none; the
sweep sums every gradient under the tensor it belongs to, by identity, each
output its own key.
``backward`` keeps gradients for requires-grad leaves only, as plain arrays
or written into arrays the caller provides (a training loop's flat gradient
buffer); each intermediate gradient is dropped once its VJP has used it, and
each VJP closure once it has run, so a graph is single-use: a second
``backward`` on it raises.

``conv2d`` is one fused node for a whole layer: convolution, an optional
bias added in place and an optional relu or silu. Its VJP keeps the im2col
columns the forward pass built, which the kernel gradient reads instead of
gathering them again; the sweep frees them node by node. It computes the input
gradient only for an input that needs one, so a stem conv on a frame skips it.
``conv2d_heads`` is one node for several such layers on one input with
kernels of one size, stride and padding, an output each: one padded buffer,
one column gather and, in the backward pass, one col2im scatter. With one
head it is a ``conv2d`` node, and one VJP body serves both.

A batch can also stack independent, equal-shaped inputs, such as the views
of one resolution that the supernet runs as a group: ``conv2d_heads`` then
takes one kernel and bias per equal batch slice, ``mixture`` one weight row
per slice, and ``split`` hands each slice on as an output of its own. The
kernels still run once per slice, into slices of one output buffer; bias,
activation and their gradients run once over the batch. Every value and
gradient keeps the bits of one node per slice, with fewer nodes to record
and sweep.

Everything is float64. conv2d and resize_bilinear call the kernels module
(im2col + GEMM convolution, separable resize); the rest is plain numpy.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import kernels


class ShapeError(ValueError):
    """Raised when operands do not conform to a primitive's shape rule."""


class Tensor:
    """A dense float64 array plus a requires-grad flag.

    Tensors are plain value holders, each equal only to itself and hashed by
    identity: the recording ``Graph``, where graph membership lives, keys its
    leaves and gradients on them, so two tensors holding equal arrays get a
    gradient each.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        # note: ascontiguousarray would promote 0-d to 1-d, so go via asarray
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("kind", "inputs", "outputs", "leaves", "vjp")

    def __init__(self, kind, inputs, outputs, leaves, vjp):
        self.kind = kind
        self.inputs = inputs    # per input: the tensor, or None if it needs no gradient
        self.outputs = outputs  # the tensors its output gradients are summed under
        self.leaves = leaves    # the requires-grad leaves this node is the first to read
        self.vjp = vjp          # None once the sweep has run it


_GRAPH_STACK: list["Graph"] = []


class Graph:
    """Append-only tape of the operations a gradient can pass through. Node
    inputs always precede the node; ``record`` is what appends them."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.gradients: dict[Tensor, np.ndarray] = {}
        self._known: set[Tensor] = set()   # every output and leaf recorded so far
        self._swept = False

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _GRAPH_STACK.pop()
        assert popped is self

    def grad(self, t: Tensor) -> np.ndarray | None:
        """Gradient of a requires-grad leaf after ``backward``; None for any
        other tensor."""
        return self.gradients.get(t)


def backward(graph: Graph, loss: Tensor,
             into: dict[Tensor, np.ndarray] | None = None) -> dict[Tensor, np.ndarray]:
    """Reverse sweep from a scalar loss; returns and stores the leaf gradients.

    Every requires-grad leaf ends up with a gradient of its own shape (zeros
    when the leaf does not influence the loss); no other tensor keeps one.
    The sweep starts at the node that produced the loss: a loss that no
    recorded node produced, such as a constant, sweeps nothing and every
    leaf gets zeros. Each VJP closure is dropped once it has run, freeing
    what it saved (conv columns, activations) as the sweep moves on, so a
    graph can be swept once: a second ``backward`` raises ``RuntimeError``.

    ``into`` maps tensors to preallocated arrays of their shapes. A
    requires-grad leaf among them that a node before the loss first read has
    its gradient written into its array as soon as the sweep has passed that
    node, when every node reading it is swept and the gradient final, and
    that array is the gradient stored. Every other tensor among them, such
    as one this graph never reached, gets zeros.
    """
    if loss.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if graph._swept:
        raise RuntimeError("backward: this graph was already swept and its VJP "
                           "closures freed; record a new graph to differentiate again")
    graph._swept = True
    nodes = graph.nodes
    last = next((i for i in range(len(nodes) - 1, -1, -1) if loss in nodes[i].outputs), -1)
    dest = dict(into or {})
    # after the sweep only leaves are left in acc
    acc: dict[Tensor, np.ndarray] = {loss: np.ones(())} if last >= 0 else {}
    for i in range(last, -1, -1):
        node = nodes[i]
        if not acc.keys().isdisjoint(node.outputs):   # else no gradient reached it
            # one gradient per output, None where none arrived, in a list
            # that is the only holder of each gradient the VJP does not free
            # itself; the node holds the VJP and what it saved, and the loop
            # below each contribution, so all are freed once used up
            contribs = node.vjp([acc.pop(t, None) for t in node.outputs])
            node.vjp = None
            for t, contrib in zip(node.inputs, contribs):
                if t is None or contrib is None:
                    continue
                # out of place: one array can reach both inputs of an add
                acc[t] = acc[t] + contrib if t in acc else contrib
            del contribs
        for t in node.leaves:
            out = dest.pop(t, None)
            if out is not None:   # every node reading t is swept: its gradient is final
                out[...] = acc.pop(t, 0.0)
                acc[t] = out      # the array is the gradient kept
    for out in dest.values():
        out.fill(0.0)
    graph.gradients = {
        t: np.asarray(acc[t]) if t in acc else np.zeros(t.shape)
        for node in nodes for t in node.leaves}
    return graph.gradients


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def record(kind: str, inputs: Sequence[Tensor], out_data, vjp: Callable):
    """The output of one operation on ``inputs``, recorded as one node of
    kind ``kind`` on the innermost active graph unless no input needs a
    gradient; with no active graph, or only constant inputs, the output is a
    constant and nothing is recorded.

    ``out_data`` is one array, which gives one ``Tensor``, or a tuple (not a
    list) of arrays, which gives a tuple of tensors, one output each. ``vjp``
    takes the list of the outputs' gradients, None where none arrived, and
    returns one gradient per input, None for an input it gives none.
    """
    # an exact type test: isinstance took about 50 ns more a call, on every
    # primitive of LAteX's no-graph inference (1 BLAS thread, numpy 2.4.6)
    out = tuple(map(Tensor, out_data)) if type(out_data) is tuple else Tensor(out_data)
    if _GRAPH_STACK:
        grad_inputs = tuple([t if t.requires_grad else None for t in inputs])
        if grad_inputs.count(None) < len(grad_inputs):   # else constants out, no node
            graph = _GRAPH_STACK[-1]
            known, leaves = graph._known, []
            for t in grad_inputs:
                if t is not None and t not in known:
                    known.add(t)
                    leaves.append(t)
            outs = out if type(out) is tuple else (out,)
            for t in outs:
                known.add(t)
                t.requires_grad = True
            graph.nodes.append(_Node(kind, grad_inputs, outs, leaves, vjp))
    return out


def _reduce_broadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to a broadcast operand's shape."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = np.add.reduce(grad, axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = a.data @ b.data
    return record("matmul", (a, b), out, lambda gs: (gs[0] @ b.data.T, a.data.T @ gs[0]))


def _relu(pre: np.ndarray, out: np.ndarray | None = None):
    """relu of ``pre`` (into ``out`` if given) and its VJP w.r.t. ``pre``; the
    mask is read from the output (``out > 0`` iff ``pre > 0``), so ``pre``
    may be overwritten."""
    out = np.maximum(pre, 0.0, out=out)
    return out, lambda g: g * (out > 0)


def _silu(pre: np.ndarray):
    """silu of ``pre`` and its VJP w.r.t. ``pre``, which the VJP keeps."""
    sig = 1.0 / (1.0 + np.exp(-pre))
    out = pre * sig
    return out, lambda g: g * (sig * (1.0 + pre * (1.0 - sig)))


def _conv_head(x: Tensor, kern, bias, padding: int, act, what: str = "conv2d"):
    """``kern`` and ``bias`` as tensors, checked against the input ``x``."""
    kern = _as_tensor(kern)
    if x.data.ndim != 4 or kern.data.ndim != 4 or x.shape[1] != kern.shape[1]:
        raise ShapeError(f"{what}: incompatible shapes {x.shape} and {kern.shape}")
    co, _, kh, kw = kern.shape
    if x.shape[2] + 2 * padding < kh or x.shape[3] + 2 * padding < kw:
        raise ShapeError(f"{what}: kernel {kern.shape} larger than padded input "
                         f"{x.shape} (padding={padding})")
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (co, 1, 1):
            raise ShapeError(f"{what}: bias shape {bias.shape}, expected {(co, 1, 1)}")
    if act not in (None, "relu", "silu"):
        raise ValueError(f"{what}: unknown activation {act!r}; "
                         f"expected None, 'relu' or 'silu'")
    return kern, bias


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    if not padding:
        return x
    # a zeroed buffer and a centre copy: np.pad's per-call overhead is many
    # times this copy on the small maps of batch-1 inference
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + w] = x
    return xp


def _bias_act(out: np.ndarray, bias, act: str | None):
    """``act(out + bias)`` on the fresh conv output ``out``, and the
    activation's VJP (None without one). ``bias`` is None, one bias, or a
    list of one per equal batch slice of ``out``."""
    if isinstance(bias, list):
        grouped = out.reshape(len(bias), -1, *out.shape[1:])
        grouped += np.concatenate([b.data for b in bias]).reshape(len(bias), 1, -1, 1, 1)
    elif bias is not None:
        out += bias.data
    if act == "relu":
        return _relu(out, out=out)
    if act == "silu":
        return _silu(out)
    return out, None


def _bias_grads(g: np.ndarray, biases) -> list:
    """The gradient of each bias of ``biases``, one per equal batch slice of
    ``g``: each slice's batch sum, then its spatial sum, as the gradient of
    one conv node's bias sums them."""
    if len(biases) == 1:
        return [_reduce_broadcast(g, biases[0].shape)]
    per_slice = np.add.reduce(g.reshape(len(biases), -1, *g.shape[1:]), axis=1)
    return list(_reduce_broadcast(per_slice, (len(biases),) + biases[0].shape))


def _conv_vjp(gs, x, kerns, biases, act_vjps, cols, stride, padding, hp, wp):
    """The gradients of a conv node's inputs, ``x`` and then, head by head,
    its kernels and its biases, from the list ``gs`` of one gradient per
    head, which it overwrites so that each arriving gradient is freed once
    used: ``conv2d_heads``' VJP, and ``conv2d``'s with one head.

    ``kerns[j][s]`` is head ``j``'s kernel on batch slice ``s``, ``biases[j]``
    its biases per slice or None, and ``cols[s]`` slice ``s``'s columns. The
    kernels run once per slice, each input gradient into its slice of one
    buffer; activation and bias gradients run once over the whole batch.
    """
    live = []
    for j in range(len(gs)):
        if gs[j] is not None:
            if act_vjps[j] is not None:
                gs[j] = act_vjps[j](gs[j])
            live.append(j)
    n_slices = len(cols)
    n = x.shape[0] // n_slices
    _, ci, kh, kw = kerns[0][0].shape
    grads = [None]                # an input frame needs no gradient
    if x.requires_grad:
        first = live[0]
        ho, wo = gs[first].shape[2:]
        gx = None if n_slices == 1 else np.empty((x.shape[0], ci, hp, wp))
        for s in range(n_slices):
            part = slice(s * n, s * n + n)
            gcols = None
            for j in reversed(live[1:]):
                kern = kerns[j][s]
                flat = kern.data.reshape(kern.shape[0], ci * kh * kw, 1, 1)
                gcols = kernels.conv2d_grad_input(gs[j][part], flat, 1, ho, wo, gcols)
            out = kernels.conv2d_grad_input(gs[first][part], kerns[first][s].data, stride,
                                            hp, wp, gcols,
                                            out=None if gx is None else gx[part])
        if gx is None:
            gx = out
        if padding:
            gx = gx[:, :, padding:hp - padding, padding:wp - padding]
        grads[0] = gx
    for j in range(len(gs)):
        g = gs[j]
        for s in range(n_slices):
            grads.append(None if g is None else kernels.conv2d_grad_kernel(
                cols[s], g[s * n:s * n + n], stride, kh, kw))
        if biases[j] is not None:
            grads.extend([None] * n_slices if g is None else _bias_grads(g, biases[j]))
    return grads


def _conv(x: Tensor, kern: Tensor, bias, stride: int, padding: int, act) -> Tensor:
    """``conv2d`` after its checks. A fork of ``conv2d_heads``' general body
    kept on purpose, a measured batch-1 fast path: with a 3x3 kernel at
    stride 1 and padding 1 into 8 channels, ``conv2d`` took 32-34 us against
    46-52 us for ``conv2d_heads`` with one head of one slice on x (1, 8, 8, 8),
    and 15-17 us against 25-27 us on x (1, 1, 16, 16) (medians, 40
    alternating rounds, 1 BLAS thread)."""
    inputs = (x, kern) if bias is None else (x, kern, bias)
    kerns, biases = ((kern,),), (None if bias is None else (bias,),)
    xp = _pad(x.data, padding)
    hp, wp = xp.shape[2], xp.shape[3]
    out, cols = kernels.conv2d_forward(xp, kern.data, stride)
    out, act_vjp = _bias_act(out, bias, act)
    return record("conv2d", inputs, out,
                  lambda gs: _conv_vjp(gs, x, kerns, biases, (act_vjp,), (cols,), stride,
                                       padding, hp, wp))


def conv2d(x: Tensor, kern: Tensor, bias: Tensor | None = None, stride: int = 1,
           padding: int = 0, act: str | None = None) -> Tensor:
    """``act(conv(x, kern) + bias)`` as one node; ``bias`` is (co, 1, 1) and
    ``act`` is None, ``"relu"`` or ``"silu"``.

    The bias is added in place and the activation applied to the fresh
    output, with the numpy operations of the conv, add and activation chain
    this node replaces, so values and gradients keep their bits. The VJP
    keeps the forward pass's im2col columns for the kernel gradient, not the
    padded input.
    """
    x = _as_tensor(x)
    kern, bias = _conv_head(x, kern, bias, padding, act)
    return _conv(x, kern, bias, stride, padding, act)


def conv2d_heads(x: Tensor, heads: Sequence[tuple], stride: int = 1,
                 padding: int = 0) -> tuple[Tensor, ...]:
    """Several convs of one input as one node, an output per head.

    Each head is ``(kern, bias, act)`` as for ``conv2d``; the kernels share
    their input channels and their size, and all heads their stride and
    padding. A head's ``kern`` may also be a list of kernels of one shape,
    one per equal slice of ``x``'s batch (the views of a group, stacked),
    with its ``bias`` None or a list of one bias per slice; every head has
    the same number of slices. One head given as a tensor is a ``conv2d``
    node. Otherwise each slice is padded and its im2col columns gathered once, for
    the first head. Every other head is a 1x1 conv over that column image
    ``(b, ci*kh*kw, ho, wo)``, so its GEMM has the operands of its own
    ``conv2d`` node. Each kernel runs on its own slice, writing into the
    head's one output buffer, and bias and activation run once per head:
    outputs and kernel and bias gradients keep the bits of one ``conv2d``
    node per head and slice.

    The VJP gets one gradient per head, None for a head whose output never
    reached the loss. The input gradient is, per slice, one col2im scatter of
    the heads' column gradients ``k^T g``, summed from the last live head
    inward (each but the first live head's is its 1x1 grad-input), so it
    differs from the sum of separate ``conv2d`` nodes' input gradients in its
    last bits only.
    """
    x = _as_tensor(x)
    if not heads:
        raise ShapeError("conv2d_heads: needs at least one head")
    if len(heads) == 1 and not isinstance(heads[0][0], (list, tuple)):
        kern, bias, act = heads[0]
        kern, bias = _conv_head(x, kern, bias, padding, act, "conv2d_heads")
        return (_conv(x, kern, bias, stride, padding, act),)
    kerns, biases, acts = [], [], []
    for kern, bias, act in heads:
        ks = list(kern) if isinstance(kern, (list, tuple)) else [kern]
        bs = [None] * len(ks) if bias is None else (
            list(bias) if isinstance(bias, (list, tuple)) else [bias])
        if not ks or len(bs) != len(ks) or (kerns and len(ks) != len(kerns[0])):
            raise ShapeError(f"conv2d_heads: {len(ks)} kernels and {len(bs)} biases "
                             f"for a head; expected one of each per batch slice")
        for s, (k, b) in enumerate(zip(ks, bs)):
            ks[s], bs[s] = _conv_head(x, k, b, padding, act, "conv2d_heads")
            if ks[s].shape != ks[0].shape:
                raise ShapeError(f"conv2d_heads: kernels {ks[0].shape} and "
                                 f"{ks[s].shape} of one head differ in shape")
        if kerns and ks[0].shape[1:] != kerns[0][0].shape[1:]:
            raise ShapeError(f"conv2d_heads: kernels {kerns[0][0].shape} and "
                             f"{ks[0].shape} differ in size")
        kerns.append(ks)
        biases.append(None if bias is None else bs)
        acts.append(act)
    n_slices = len(kerns[0])
    if x.shape[0] % n_slices:
        raise ShapeError(f"conv2d_heads: batch {x.shape[0]} does not split into "
                         f"{n_slices} equal slices")
    inputs = (x,) + tuple(t for ks, bs in zip(kerns, biases) for t in ks + (bs or []))
    b, _, h, w = x.shape
    n = b // n_slices
    hp, wp = h + 2 * padding, w + 2 * padding
    _, ci, kh, kw = kerns[0][0].shape
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    # one output buffer per head, each slice's result written into its part:
    # joining per-slice results instead took a search-toy step 2.8 % longer
    # and tripled its minor page faults
    pre = [np.empty((b, ks[0].shape[0], ho, wo)) for ks in kerns]
    cols = []
    for s in range(n_slices):
        part = slice(s * n, s * n + n)
        # each slice padded on its own: one buffer for the group beside the
        # output buffers costs more in fresh pages than the extra copies
        _, c = kernels.conv2d_forward(_pad(x.data[part], padding), kerns[0][s].data,
                                      stride, out=pre[0][part])
        # one kernel tap per channel of the column image: a 1x1 conv over it
        # is a kh x kw conv over x
        image = c.reshape(n, ci * kh * kw, ho, wo)
        for ks, o in zip(kerns[1:], pre[1:]):
            flat = ks[s].data.reshape(ks[s].shape[0], ci * kh * kw, 1, 1)
            kernels.conv2d_forward(image, flat, 1, out=o[part])
        cols.append(c)
    outs, act_vjps = zip(*(_bias_act(o, bs, act)
                           for o, bs, act in zip(pre, biases, acts)))
    return record("conv2d", inputs, outs,
                  lambda gs: _conv_vjp(gs, x, kerns, biases, act_vjps, cols,
                                       stride, padding, hp, wp))


def _broadcastable(sa, sb) -> bool:
    for da, db in zip(sa[::-1], sb[::-1]):
        if da != db and da != 1 and db != 1:
            return False
    return True


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if not _broadcastable(a.shape, b.shape):
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    out = a.data + b.data
    return record("add", (a, b), out, lambda gs: (_reduce_broadcast(gs[0], a.shape),
                                                  _reduce_broadcast(gs[0], b.shape)))


def scale(x: Tensor, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)
    out = x.data * c
    return record("scale", (x,), out, lambda gs: (gs[0] * c,))


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat: needs at least one input")
    ndim = parts[0].data.ndim
    if ndim < 1:
        raise ShapeError("concat: 0-d inputs have no axis to join along")
    ax = axis % ndim
    ref = list(parts[0].shape)
    for p in parts[1:]:
        s = list(p.shape)
        if len(s) != ndim or s[:ax] + s[ax + 1:] != ref[:ax] + ref[ax + 1:]:
            raise ShapeError(
                f"concat: shapes {[p.shape for p in parts]} differ off axis {axis}")
    out = np.concatenate([p.data for p in parts], axis=ax)

    def vjp(gs):
        splits = np.cumsum([p.shape[ax] for p in parts])[:-1]
        return tuple(np.split(gs[0], splits, axis=ax))

    return record("concat", tuple(parts), out, vjp)


def global_avg_pool(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: expected (B,C,H,W), got {x.shape}")
    b, c, h, w = x.shape
    # np.mean's two operations, without its Python-level wrapper
    out = np.add.reduce(x.data, axis=(2, 3))
    out /= h * w

    def vjp(gs):
        return (np.broadcast_to(gs[0][:, :, None, None], (b, c, h, w)) / (h * w),)

    return record("global_avg_pool", (x,), out, vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    if not np.all(np.isfinite(x.data)):
        raise ValueError("softmax: non-finite input")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.add.reduce(e, axis=axis, keepdims=True)
    return record("softmax", (x,), out, lambda gs: (
        out * (gs[0] - np.add.reduce(gs[0] * out, axis=axis, keepdims=True)),))


def mse(a: Tensor, b: Tensor, sample_weights: np.ndarray | None = None) -> Tensor:
    """Mean squared error over all elements, as a scalar.

    ``sample_weights`` (optional, constant) re-weights along the leading batch
    axis before the batch mean; it is never differentiated. Each mean is
    ``np.add.reduce`` and one division by the count, the two operations
    ``np.mean`` runs, without its Python-level wrapper.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes {a.shape} and {b.shape} differ")
    diff = a.data - b.data
    if sample_weights is None:
        out = np.add.reduce(diff * diff, axis=None) / diff.size if diff.size else np.zeros(())

        def vjp(gs):
            g, n = gs[0], max(diff.size, 1)
            return g * 2.0 * diff / n, g * -2.0 * diff / n
    else:
        w = np.asarray(sample_weights, dtype=np.float64)
        if diff.ndim < 1 or w.shape != (a.shape[0],):
            raise ShapeError(
                f"mse: sample_weights shape {w.shape} does not match batch {a.shape}")
        sq = (diff * diff).reshape(a.shape[0], -1)
        per = np.add.reduce(sq, axis=1)
        if sq.shape[1]:
            per /= sq.shape[1]
        out = np.asarray(np.add.reduce(w * per, axis=None) / w.size)

        def vjp(gs):
            g, bsz = gs[0], a.shape[0]
            per_n = max(diff[0].size, 1)
            wexp = w.reshape((bsz,) + (1,) * (diff.ndim - 1))
            return (g * 2.0 * wexp * diff / (per_n * bsz),
                    g * -2.0 * wexp * diff / (per_n * bsz))

    return record("mse", (a, b), out, vjp)


def mixture(cands: Sequence[Tensor], op_weights: Tensor, ch_weights: Tensor,
            row, masks: np.ndarray) -> Tensor:
    """One searchable block: ``sum_o W_op[row, o] * cand_o``, scaled per
    channel by ``W_ch[row] @ masks``.

    The candidates are (B, C, H, W); ``masks`` (n_scales, C) is a constant.
    ``row`` is one row of the two weight matrices, or a sequence of distinct
    rows, one per equal slice of the batch (the views of a group, stacked):
    each slice is mixed by its own row, and only those rows get a gradient.
    Forward and backward run the numpy operations of the per-block
    mul/add/matmul/reshape chain this node replaces, in its order, slice by
    slice along a leading group axis, so values and gradients keep its bits.
    """
    cands = [_as_tensor(c) for c in cands]
    op_weights, ch_weights = _as_tensor(op_weights), _as_tensor(ch_weights)
    shape = cands[0].shape if cands else ()
    rows = list(row) if isinstance(row, (list, tuple)) else [row]
    for r in rows:
        if (op_weights.data.ndim != 2 or ch_weights.data.ndim != 2
                or not 0 <= r < min(op_weights.shape[0], ch_weights.shape[0])):
            raise ShapeError(f"mixture: no row {r} in weights {op_weights.shape} "
                             f"and {ch_weights.shape}")
    if len(set(rows)) != len(rows):
        raise ShapeError(f"mixture: rows {rows} repeat")
    if (len(shape) != 4 or any(c.shape != shape for c in cands)
            or op_weights.shape[1] != len(cands)
            or masks.shape != (ch_weights.shape[1], shape[1])
            or shape[0] % len(rows)):
        raise ShapeError(f"mixture: candidates {[c.shape for c in cands]}, weights "
                         f"{op_weights.shape} and {ch_weights.shape}, masks {masks.shape}, "
                         f"{len(rows)} rows")
    k, c = len(rows), shape[1]
    grouped = (k, -1, c, shape[2] * shape[3])     # one leading axis per slice
    parts = [cand.data.reshape(grouped) for cand in cands]
    w = op_weights.data[rows].reshape(k, 1, 1, 1, -1)
    mixed = parts[0] * w[..., 0]
    for o in range(1, len(parts)):
        mixed = mixed + parts[o] * w[..., o]
    # per slice, the (1, n_scales) @ masks product of one row
    chan = (ch_weights.data[rows].reshape(k, 1, -1) @ masks).reshape(k, 1, c, 1)
    out = (mixed * chan).reshape(shape)

    def spatial_sum(t):
        """Each slice's spatial sum of its batch sum ``t``, as
        ``_reduce_broadcast`` takes it: none over one pixel."""
        return t[..., 0] if t.shape[-1] == 1 else np.add.reduce(t, axis=-1)

    def vjp(gs):
        g = gs[0].reshape(grouped)
        g_mixed = g * chan
        g_op = np.zeros(op_weights.shape)
        for o, part in enumerate(parts):
            g_op[rows, o] = spatial_sum(np.add.reduce(g_mixed * part, axis=(1, 2)))
        g_ch = np.zeros(ch_weights.shape)
        g_ch[rows] = (spatial_sum(np.add.reduce(g * mixed, axis=1))[:, None] @ masks.T)[:, 0]
        return (*((g_mixed * w[..., o]).reshape(shape) for o in range(len(parts))),
                g_op, g_ch)

    return record("mixture", (*cands, op_weights, ch_weights), out, vjp)


def split(x: Tensor, n: int) -> tuple[Tensor, ...]:
    """``x`` cut into ``n`` equal parts along its batch axis, as one node with
    an output per part; one part is ``x`` itself.

    In the input gradient, a part whose gradient never arrived is ``-0.0``:
    the zero that leaves every sum it joins with its bits, so the gradient
    that the input's other readers add to it is the one they would give
    without this node.
    """
    x = _as_tensor(x)
    if n == 1:
        return (x,)
    if n < 1 or x.data.ndim < 1 or x.shape[0] % n:
        raise ShapeError(f"split: {x.shape} does not split into {n} equal parts")
    parts = np.split(x.data, n)

    def vjp(gs):
        for i, g in enumerate(gs):
            if g is None:
                gs[i] = np.full(parts[i].shape, -0.0)
        return (np.concatenate(gs),)

    return record("split", (x,), tuple(parts), vjp)


def bilinear_sum(a: Tensor, cost: np.ndarray, b: Tensor) -> Tensor:
    """``sum_k a[k] @ cost[k] @ b[k]`` as a scalar, the K terms summed in order.

    ``a`` is (K, m), ``b`` (K, n) and ``cost`` (K, m, n) a constant. Each
    term and its gradients are the 2-d matmuls of a per-term chain, batched,
    so they keep that chain's bits.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if (a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] < 1
            or cost.shape != (a.shape[0], a.shape[1], b.shape[1])):
        raise ShapeError(f"bilinear_sum: incompatible shapes {a.shape}, {cost.shape} "
                         f"and {b.shape}")
    (k, m), n = a.shape, b.shape[1]
    rows = a.data.reshape(k, 1, m) @ cost                   # (K, 1, n)
    bcol = b.data.reshape(k, n, 1)
    out = np.cumsum(rows @ bcol)[-1]

    def vjp(gs):
        gk = np.full((k, 1, 1), gs[0])
        g_rows = gk @ bcol.transpose(0, 2, 1)
        return ((g_rows @ cost.transpose(0, 2, 1)).reshape(k, m),
                (rows.transpose(0, 2, 1) @ gk).reshape(k, n))

    return record("bilinear_sum", (a, b), out, vjp)


def resize_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"resize_bilinear: expected (B,C,H,W), got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"resize_bilinear: bad target size ({out_h}, {out_w})")
    out = kernels.resize_bilinear(x.data, out_h, out_w)
    return record("resize_bilinear", (x,), out,
                  lambda gs: (kernels.resize_bilinear_grad(gs[0], x.shape[2], x.shape[3]),))
