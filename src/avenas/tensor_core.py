"""Minimal dense-tensor reverse-mode autodiff engine.

Graphs are define-by-run tapes: while a ``Graph`` is active (used as a context
manager), every primitive records a node; with no active graph the primitives
just compute values. A fresh graph is built per forward pass, which keeps the
contract trivial for a search loop whose sampled structure changes every step.

Record contract: each primitive hands its VJP closure straight to the tape,
and anything only the backward pass needs (a relu mask, concat's split
points) is computed inside that closure, so unrecorded inference pays nothing
for it. ``backward`` keeps gradients for requires-grad leaves only, as plain
arrays; each intermediate gradient is dropped once its VJP has used it, and
each VJP closure once it has run, so a graph is single-use: a second
``backward`` on it raises.

``conv2d`` is one fused node for a whole layer: convolution, an optional
bias added in place and an optional relu or silu. Its VJP keeps the im2col
columns the forward pass built, which the kernel gradient reads instead of
gathering them again; the sweep frees them node by node. It computes the input
gradient only for an input that needs one, so a stem conv on a frame skips it.

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

    Tensors are plain value holders; graph membership is transient and lives
    on the recording ``Graph``.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        # note: ascontiguousarray would promote 0-d to 1-d, so go via asarray
        arr = np.asarray(data, dtype=np.float64, order="C")
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
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
    __slots__ = ("kind", "input_ids", "tensor", "vjp", "needs_grad")

    def __init__(self, kind, input_ids, tensor, vjp, needs_grad):
        self.kind = kind
        self.input_ids = input_ids
        self.tensor = tensor
        self.vjp = vjp
        self.needs_grad = needs_grad


_GRAPH_STACK: list["Graph"] = []


def _active_graph() -> "Graph | None":
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


class Graph:
    """Append-only operation tape. Node inputs always precede the node."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.gradients: dict[int, np.ndarray] = {}
        self._tensor_node: dict[int, int] = {}
        self._grad_leaves: list[int] = []
        self._swept = False

    def __enter__(self) -> "Graph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _GRAPH_STACK.pop()
        assert popped is self

    def _ensure_node(self, t: Tensor) -> int:
        nid = self._tensor_node.get(id(t))
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(_Node("leaf", (), t, None, t.requires_grad))
            self._tensor_node[id(t)] = nid
            if t.requires_grad:
                self._grad_leaves.append(nid)
        return nid

    def _record(self, kind: str, inputs: Sequence[Tensor], out: Tensor,
                vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> None:
        input_ids = tuple(self._ensure_node(t) for t in inputs)
        needs = any(self.nodes[i].needs_grad for i in input_ids)
        self._tensor_node[id(out)] = len(self.nodes)
        self.nodes.append(_Node(kind, input_ids, out, vjp if needs else None, needs))
        out.requires_grad = needs

    def node_id(self, t: Tensor) -> int:
        """Node id of a tensor on this graph; KeyError if it never touched it."""
        return self._tensor_node[id(t)]

    def grad(self, t: Tensor) -> np.ndarray | None:
        """Gradient of a requires-grad leaf after ``backward``; None for any
        other tensor."""
        return self.gradients.get(self._tensor_node.get(id(t), -1))


def backward(graph: Graph, loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse sweep from a scalar loss; returns and stores the leaf gradients.

    Every requires-grad leaf ends up with a gradient of its own shape (zeros
    when the leaf does not influence the loss); no other node keeps one.
    Each VJP closure is dropped once it has run, freeing what it saved (conv
    columns, activations) as the sweep moves on, so a graph can be swept
    once: a second ``backward`` raises ``RuntimeError``.
    """
    if loss.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if graph._swept:
        raise RuntimeError("backward: this graph was already swept and its VJP "
                           "closures freed; record a new graph to differentiate again")
    graph._swept = True
    loss_id = graph.node_id(loss)
    nodes = graph.nodes
    # after the sweep only leaves (and a loss without a VJP) are left in acc
    acc: dict[int, np.ndarray] = {loss_id: np.ones(())}
    for nid in range(loss_id, -1, -1):
        node = nodes[nid]
        vjp = node.vjp
        if vjp is None or nid not in acc:
            continue
        node.vjp = None
        for in_id, contrib in zip(node.input_ids, vjp(acc.pop(nid))):
            if contrib is None or not nodes[in_id].needs_grad:
                continue
            # out of place: one array can reach both inputs of an add
            acc[in_id] = acc[in_id] + contrib if in_id in acc else contrib
    graph.gradients = {
        nid: np.asarray(acc[nid]) if nid in acc else np.zeros(nodes[nid].tensor.shape)
        for nid in graph._grad_leaves}
    return graph.gradients


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(kind, inputs, out_data, vjp) -> Tensor:
    out = Tensor(out_data)
    g = _active_graph()
    if g is not None:
        g._record(kind, inputs, out, vjp)
    return out


def _reduce_broadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to a broadcast operand's shape."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = a.data @ b.data
    return _emit("matmul", (a, b), out, lambda g: (g @ b.data.T, a.data.T @ g))


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
    x, kern = _as_tensor(x), _as_tensor(kern)
    if x.data.ndim != 4 or kern.data.ndim != 4 or x.shape[1] != kern.shape[1]:
        raise ShapeError(f"conv2d: incompatible shapes {x.shape} and {kern.shape}")
    _, _, h, w = x.shape
    co, _, kh, kw = kern.shape
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(
            f"conv2d: kernel {kern.shape} larger than padded input {x.shape} (padding={padding})")
    inputs = (x, kern)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (co, 1, 1):
            raise ShapeError(f"conv2d: bias shape {bias.shape}, expected {(co, 1, 1)}")
        inputs += (bias,)
    if act not in (None, "relu", "silu"):
        raise ValueError(f"conv2d: unknown activation {act!r}; "
                         f"expected None, 'relu' or 'silu'")
    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = xp.shape[2], xp.shape[3]
    out, cols = kernels.conv2d_forward(xp, kern.data, stride)
    if bias is not None:
        out += bias.data
    act_vjp = None
    if act == "relu":
        out, act_vjp = _relu(out, out=out)
    elif act == "silu":
        out, act_vjp = _silu(out)

    def vjp(g):
        if act_vjp is not None:
            g = act_vjp(g)
        gx = None                 # an input frame needs no gradient
        if x.requires_grad:
            gx = kernels.conv2d_grad_input(g, kern.data, stride, hp, wp)
            if padding:
                gx = gx[:, :, padding:hp - padding, padding:wp - padding]
        gk = kernels.conv2d_grad_kernel(cols, g, stride, kh, kw)
        if bias is None:
            return gx, gk
        return gx, gk, _reduce_broadcast(g, bias.shape)

    return _emit("conv2d", inputs, out, vjp)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out, vjp = _relu(x.data)
    return _emit("relu", (x,), out, lambda g: (vjp(g),))


def silu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out, vjp = _silu(x.data)
    return _emit("silu", (x,), out, lambda g: (vjp(g),))


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
    return _emit("add", (a, b), out,
                 lambda g: (_reduce_broadcast(g, a.shape), _reduce_broadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if not _broadcastable(a.shape, b.shape):
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    out = a.data * b.data
    return _emit("mul", (a, b), out, lambda g: (_reduce_broadcast(g * b.data, a.shape),
                                                _reduce_broadcast(g * a.data, b.shape)))


def scale(x: Tensor, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)
    out = x.data * c
    return _emit("scale", (x,), out, lambda g: (g * c,))


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat: needs at least one input")
    ndim = parts[0].data.ndim
    ax = axis % ndim
    ref = list(parts[0].shape)
    for p in parts[1:]:
        s = list(p.shape)
        if len(s) != ndim or s[:ax] + s[ax + 1:] != ref[:ax] + ref[ax + 1:]:
            raise ShapeError(
                f"concat: shapes {[p.shape for p in parts]} differ off axis {axis}")
    out = np.concatenate([p.data for p in parts], axis=ax)

    def vjp(g):
        splits = np.cumsum([p.shape[ax] for p in parts])[:-1]
        return tuple(np.split(g, splits, axis=ax))

    return _emit("concat", tuple(parts), out, vjp)


def global_avg_pool(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: expected (B,C,H,W), got {x.shape}")
    out = x.data.mean(axis=(2, 3))

    def vjp(g):
        b, c, h, w = x.shape
        return (np.broadcast_to(g[:, :, None, None], (b, c, h, w)) / (h * w),)

    return _emit("global_avg_pool", (x,), out, vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    if not np.all(np.isfinite(x.data)):
        raise ValueError("softmax: non-finite input")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    return _emit("softmax", (x,), out,
                 lambda g: (out * (g - (g * out).sum(axis=axis, keepdims=True)),))


def exp(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.exp(x.data)
    return _emit("exp", (x,), out, lambda g: (g * out,))


def mse(a: Tensor, b: Tensor, sample_weights: np.ndarray | None = None) -> Tensor:
    """Mean squared error over all elements, as a scalar.

    ``sample_weights`` (optional, constant) re-weights along the leading batch
    axis before the batch mean; it is never differentiated.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes {a.shape} and {b.shape} differ")
    diff = a.data - b.data
    if sample_weights is None:
        out = np.mean(diff * diff) if diff.size else np.zeros(())

        def vjp(g):
            n = max(diff.size, 1)
            return g * 2.0 * diff / n, g * -2.0 * diff / n
    else:
        w = np.asarray(sample_weights, dtype=np.float64)
        if diff.ndim < 1 or w.shape != (a.shape[0],):
            raise ShapeError(
                f"mse: sample_weights shape {w.shape} does not match batch {a.shape}")
        sq = (diff * diff).reshape(a.shape[0], -1)
        per = sq.mean(axis=1) if sq.shape[1] else np.zeros(a.shape[0])
        out = np.asarray((w * per).mean())

        def vjp(g):
            bsz = a.shape[0]
            per_n = max(diff[0].size, 1)
            wexp = w.reshape((bsz,) + (1,) * (diff.ndim - 1))
            return (g * 2.0 * wexp * diff / (per_n * bsz),
                    g * -2.0 * wexp * diff / (per_n * bsz))

    return _emit("mse", (a, b), out, vjp)


def l2norm(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.asarray(np.sqrt((x.data * x.data).sum()))

    def vjp(g):
        n = float(out)
        if n == 0.0:
            return (np.zeros(x.shape),)
        return (g * x.data / n,)

    return _emit("l2norm", (x,), out, vjp)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = x.data.reshape(shape)
    return _emit("reshape", (x,), out, lambda g: (g.reshape(x.shape),))


def mixture(cands: Sequence[Tensor], op_weights: Tensor, ch_weights: Tensor,
            row: int, masks: np.ndarray) -> Tensor:
    """One searchable block: ``sum_o W_op[row, o] * cand_o``, scaled per
    channel by ``W_ch[row] @ masks``.

    The candidates are (B, C, H, W); ``masks`` (n_scales, C) is a constant.
    Only row ``row`` of the two weight matrices is read, and only that row
    gets a gradient. Forward and backward run the numpy operations of the
    per-block mul/add/matmul/reshape chain this node replaces, in its order,
    so values and gradients keep their bits.
    """
    cands = [_as_tensor(c) for c in cands]
    op_weights, ch_weights = _as_tensor(op_weights), _as_tensor(ch_weights)
    shape = cands[0].shape if cands else ()
    if (op_weights.data.ndim != 2 or ch_weights.data.ndim != 2
            or not 0 <= row < min(op_weights.shape[0], ch_weights.shape[0])):
        raise ShapeError(f"mixture: no row {row} in weights {op_weights.shape} "
                         f"and {ch_weights.shape}")
    if (len(shape) != 4 or any(c.shape != shape for c in cands)
            or op_weights.shape[1] != len(cands)
            or masks.shape != (ch_weights.shape[1], shape[1])):
        raise ShapeError(f"mixture: candidates {[c.shape for c in cands]}, weights "
                         f"{op_weights.shape} and {ch_weights.shape}, masks {masks.shape}")
    w = op_weights.data[row]
    mixed = cands[0].data * w[0]
    for c, wo in zip(cands[1:], w[1:]):
        mixed = mixed + c.data * wo
    chan = (ch_weights.data[row:row + 1] @ masks).reshape(shape[1], 1, 1)
    out = mixed * chan

    def vjp(g):
        g_mixed = g * chan
        g_op = np.zeros(op_weights.shape)
        g_op[row] = [_reduce_broadcast(g_mixed * c.data, (1, 1))[0, 0] for c in cands]
        g_ch = np.zeros(ch_weights.shape)
        g_ch[row] = (_reduce_broadcast(g * mixed, chan.shape).reshape(1, -1)
                     @ masks.T)[0]
        return (*(g_mixed * wo for wo in w), g_op, g_ch)

    return _emit("mixture", (*cands, op_weights, ch_weights), out, vjp)


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

    def vjp(g):
        gk = np.full((k, 1, 1), g)
        g_rows = gk @ bcol.transpose(0, 2, 1)
        return ((g_rows @ cost.transpose(0, 2, 1)).reshape(k, m),
                (rows.transpose(0, 2, 1) @ gk).reshape(k, n))

    return _emit("bilinear_sum", (a, b), out, vjp)


def resize_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"resize_bilinear: expected (B,C,H,W), got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"resize_bilinear: bad target size ({out_h}, {out_w})")
    out = kernels.resize_bilinear(x.data, out_h, out_w)
    return _emit("resize_bilinear", (x,), out,
                 lambda g: (kernels.resize_bilinear_grad(g, x.shape[2], x.shape[3]),))
