"""Dense float64 tensors plus a minimal tape-based reverse-mode autodiff engine.

Values are plain numpy float64 arrays. Every op returns a `Node`, an integer
node id that carries its value; the tape holds only the graph: each node's
parent ids together with their vjp closures. A value lives as long as a handle
to it or a closure that saved it, so a training step keeps only what backward
reads. Gradient accumulation walks the tape strictly in reverse id order, so
two backward passes over the same tape are bitwise identical.
"""

from __future__ import annotations

import ctypes

import numpy as np

# glibc mallopt parameters (malloc.h).
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Serve the tape's temporaries (0.3-1.2 MB each) from the heap, and keep
    the heap's freed memory for the next op. glibc maps each block above its
    mmap threshold afresh, so it is page-faulted again on every use; the
    threshold starts at 128 KiB and only rises when a larger mapped block is
    freed. Fixed thresholds of 32 MiB (mmap) and 64 MiB (trim) make the speed
    of an op independent of what ran before it. No-op without glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory()

LN_EPS = 1e-5   # added to the variance in every layer norm


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def masked_softmax_value(logits: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """Last-axis softmax of logits with the positions where the boolean mask
    `blocked` is True forced to 0. The [s, s] mask broadcasts over any leading
    axes of the logits.

    Stabilized by subtracting the per-row max over *allowed* entries only.
    A mask that is not boolean or has a fully masked row is a contract
    violation. Logits are not checked: an allowed NaN or +inf, or a row whose
    allowed logits are all -inf, makes the whole row NaN, which reaches the
    caller. In every other row the blocked weights are exact zeros, whatever
    their logits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if blocked.dtype != bool:       # a 0/1 "allowed" map would be inverted
        raise ValueError(f"mask must be boolean (True = blocked), got {blocked.dtype}")
    if logits.shape[-2:] != blocked.shape:
        raise ValueError(
            f"logits shape {logits.shape} does not match mask shape {blocked.shape}"
        )
    full = blocked.all(axis=-1)
    if full.any():
        raise ValueError(f"fully masked row {np.flatnonzero(full)[0]}: softmax undefined")
    if blocked.any():
        # max over allowed entries only; exp of the finite logits, not of
        # -inf at the blocked ones (~4.5x slower), which are zeroed after
        m = np.where(blocked, -np.inf, logits).max(axis=-1, keepdims=True)
        with np.errstate(over="ignore"):    # only a blocked entry can exceed m
            e = np.exp(logits - m)
        np.copyto(e, 0.0, where=blocked)
    else:
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_value(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Last-axis layer norm; returns (output, normalized, inv_std) for reuse."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return xhat * gain + bias, xhat, inv


class Node(int):
    """A node id (usable as an index or dict key) carrying the node's value."""

    def __new__(cls, nid: int, value: np.ndarray):
        node = super().__new__(cls, nid)
        node.value = value
        return node


class Tape:
    """Computation tape. One tape per training step; not thread-shared."""

    def __init__(self):
        self._parents: list[list] = []   # list of (parent_id, vjp closure)
        self._track: list[bool] = []     # participates in gradient flow

    # -- node plumbing ----------------------------------------------------

    def _push(self, value: np.ndarray, parents: list) -> Node:
        # plain ids: a vjp list must not keep its parents' values alive
        tracked = [(int(p), fn) for p, fn in parents if self._track[p]]
        self._parents.append(tracked)
        self._track.append(bool(tracked))
        return Node(len(self._track) - 1, value)

    def value(self, node: Node) -> np.ndarray:
        return node.value

    def leaf(self, value, requires_grad: bool = True) -> Node:
        node = self._push(np.asarray(value, dtype=np.float64), [])
        self._track[node] = requires_grad
        return node

    def constant(self, value) -> Node:
        return self.leaf(value, requires_grad=False)

    # -- arithmetic primitives --------------------------------------------

    def add(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        out = av + bv
        return self._push(out, [
            (a, lambda g, s=av.shape: _unbroadcast(g, s)),
            (b, lambda g, s=bv.shape: _unbroadcast(g, s)),
        ])

    def mul(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        out = av * bv
        return self._push(out, [
            (a, lambda g, o=bv, s=av.shape: _unbroadcast(g * o, s)),
            (b, lambda g, o=av, s=bv.shape: _unbroadcast(g * o, s)),
        ])

    def scale(self, a: Node, c: float) -> Node:
        av = a.value
        return self._push(av * c, [(a, lambda g, c=c: g * c)])

    def linear(self, x: Node, w: Node, b: Node) -> Node:
        """x @ w + b for x [..., k], w [k, m] and b [m], as one node. The
        leading axes of x are flattened into the rows of one GEMM."""
        xv, wv = x.value, w.value
        rows = xv.reshape(-1, xv.shape[-1])
        if wv.ndim != 2 or rows.shape[1] != wv.shape[0]:
            raise ValueError(f"linear shape mismatch: {rows.shape} x {wv.shape}")
        out = rows @ wv
        out += b.value
        m = wv.shape[1]
        return self._push(out.reshape(xv.shape[:-1] + (m,)), [
            (x, lambda g, o=wv, s=xv.shape: (g.reshape(-1, m) @ o.T).reshape(s)),
            (w, lambda g, o=rows: o.T @ g.reshape(-1, m)),
            (b, lambda g: g.reshape(-1, m).sum(axis=0)),
        ])

    def bmm(self, a: Node, b: Node) -> Node:
        """Matrix product [..., m, k] x [..., k, n] with equal leading axes,
        none for a plain product; the one product op without a bias."""
        av, bv = a.value, b.value
        if av.ndim < 2 or bv.shape[:-1] != av.shape[:-2] + av.shape[-1:]:
            raise ValueError(f"bmm shape mismatch: {av.shape} x {bv.shape}")
        return self._push(av @ bv, [
            (a, lambda g, o=bv: g @ o.swapaxes(-1, -2)),
            (b, lambda g, o=av: o.swapaxes(-1, -2) @ g),
        ])

    def transpose(self, a: Node, axes=None) -> Node:
        """np.transpose; the default reverses the axes."""
        inv = None if axes is None else np.argsort(axes)
        return self._push(np.transpose(a.value, axes),
                          [(a, lambda g, inv=inv: np.transpose(g, inv))])

    def reshape(self, a: Node, shape) -> Node:
        av = a.value
        return self._push(av.reshape(shape),
                          [(a, lambda g, s=av.shape: g.reshape(s))])

    def sum(self, a: Node) -> Node:
        av = a.value
        return self._push(np.asarray(av.sum()),
                          [(a, lambda g, s=av.shape: np.broadcast_to(g, s).copy())])

    def exp(self, a: Node) -> Node:
        out = np.exp(a.value)
        return self._push(out, [(a, lambda g, o=out: g * o)])

    # -- structural primitives ---------------------------------------------

    def take_rows(self, a: Node, key, axis: int = 0) -> Node:
        """a[key] along `axis`; key is an integer index array or a slice."""
        av = a.value
        idx = (slice(None),) * axis + (key,)

        def vjp(g, idx=idx, shape=av.shape, is_slice=isinstance(key, slice)):
            out = np.zeros(shape)
            if is_slice:
                out[idx] += g
            else:                       # an index array may repeat rows
                np.add.at(out, idx, g)
            return out

        return self._push(av[idx], [(a, vjp)])

    def concat_rows(self, ids: list[Node], axis: int = 0) -> Node:
        vals = [i.value for i in ids]
        offs = np.cumsum([0] + [v.shape[axis] for v in vals])
        parents = []
        for k, nid in enumerate(ids):
            idx = (slice(None),) * axis + (slice(offs[k], offs[k + 1]),)
            parents.append((nid, lambda g, idx=idx: g[idx]))
        return self._push(np.concatenate(vals, axis=axis), parents)

    def broadcast_to(self, a: Node, shape) -> Node:
        """np.broadcast_to (a read-only view), e.g. [n, d] -> [b, n, d]."""
        av = a.value
        return self._push(np.broadcast_to(av, shape),
                          [(a, lambda g, s=av.shape: _unbroadcast(g, s))])

    # -- fused nonlinear primitives ------------------------------------------

    def layer_norm(self, x: Node, gain: Node, bias: Node) -> Node:
        xv, gv, bv = x.value, gain.value, bias.value
        out, xhat, inv = layer_norm_value(xv, gv, bv)
        d = xv.shape[-1]

        def vjp_x(g, xhat=xhat, inv=inv, gv=gv):
            gh = g * gv
            return inv * (gh - gh.mean(axis=-1, keepdims=True)
                          - xhat * (gh * xhat).mean(axis=-1, keepdims=True))

        # gain and bias gradients sum over all rows in one pass, so their
        # rounding does not depend on how the rows are split into axes
        return self._push(out, [
            (x, vjp_x),
            (gain, lambda g, xhat=xhat: (g * xhat).reshape(-1, d).sum(axis=0)),
            (bias, lambda g: g.reshape(-1, d).sum(axis=0)),
        ])

    def masked_softmax(self, logits: Node, blocked: np.ndarray) -> Node:
        p = masked_softmax_value(logits.value, blocked)

        def vjp(g, p=p):
            return p * (g - (g * p).sum(axis=-1, keepdims=True))

        return self._push(p, [(logits, vjp)])

    def gelu(self, a: Node) -> Node:
        # imported here, not at the top: scipy.special takes longer to import
        # than the rest of hta, and only the video tower's MLP needs it
        from scipy.special import erf
        x = a.value
        phi = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        if not self._track[a]:
            return self._push(x * phi, [])
        with np.errstate(over="ignore"):    # x * x = inf for |x| > 1e154
            pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        deriv = phi + x * pdf               # the one array the vjp needs
        return self._push(x * phi, [(a, lambda g, d=deriv: g * d)])

    def normalize_rows(self, a: Node) -> Node:
        x = a.value
        norm = np.sqrt((x * x).sum(axis=1, keepdims=True))
        y = x / norm

        def vjp(g, y=y, norm=norm):
            return (g - y * (g * y).sum(axis=1, keepdims=True)) / norm

        return self._push(y, [(a, vjp)])

    def cross_entropy_diag(self, logits: Node) -> Node:
        """Mean over rows of [logsumexp(row) - row diagonal entry]."""
        z = logits.value
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError(f"expected square logits, got {z.shape}")
        m = z.max(axis=1, keepdims=True)
        p = np.exp(z - m)
        total = p.sum(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(total[:, 0])
        out = np.asarray((lse - np.diag(z)).mean())
        p /= total

        def vjp(g, p=p, n=len(z)):
            return g * (p - np.eye(n)) / n

        return self._push(out, [(logits, vjp)])

    # -- reverse pass --------------------------------------------------------

    def backward(self, root: Node) -> dict[int, np.ndarray]:
        """Gradients of a scalar root w.r.t. the tracked leaves it depends on.

        A non-leaf node's gradient is dropped as soon as its VJPs have run, so
        the pass holds only the gradients still in flight. The tape is left
        as it was: backward may run again on it.
        """
        rv = root.value
        if rv.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {rv.shape}")
        grads = {int(root): np.ones_like(rv)} if self._track[root] else {}
        for nid in range(root, -1, -1):
            parents = self._parents[nid]
            if not parents:             # a leaf keeps its gradient
                continue
            g = grads.pop(nid, None)
            if g is None:
                continue
            for pid, vjp in parents:
                contrib = vjp(g)
                if pid in grads:
                    grads[pid] = grads[pid] + contrib
                else:
                    # may be a view of g; callers must not mutate in place
                    grads[pid] = contrib
        return grads
