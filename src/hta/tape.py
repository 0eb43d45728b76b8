"""Dense float64 tensors plus a minimal tape-based reverse-mode autodiff engine.

Values on the tape are plain numpy float64 arrays. Ops append nodes and return
integer node ids; each node remembers its parents together with a vjp closure.
Gradient accumulation walks the tape strictly in reverse id order, so two
backward passes over the same tape are bitwise identical.
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

# Most-negative finite float64; stands in for -inf inside mask tensors so that
# ordinary arithmetic on masks never produces NaN. Converted to a hard "no
# attention" decision inside masked_softmax.
MASK_NEG = float(np.finfo(np.float64).min)

LN_EPS = 1e-5   # added to the variance in every layer norm


def is_masked(entries: np.ndarray) -> np.ndarray:
    """Boolean map of forbidden positions in an additive-mask payload."""
    return entries <= MASK_NEG


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _check_matmul(av: np.ndarray, bv: np.ndarray) -> None:
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} x {bv.shape}")


def masked_softmax_value(logits: np.ndarray, mask_entries: np.ndarray) -> np.ndarray:
    """Last-axis softmax of logits with positions forbidden by the mask forced
    to 0. The [s, s] mask broadcasts over any leading axes of the logits.

    Stabilized by subtracting the per-row max over *allowed* entries only.
    A fully masked row of the mask is a contract violation. Logits are not
    checked: non-finite ones give NaN weights, which reach the caller.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape[-2:] != mask_entries.shape:
        raise ValueError(
            f"logits shape {logits.shape} does not match mask shape {mask_entries.shape}"
        )
    blocked = is_masked(mask_entries)
    full = blocked.all(axis=-1)
    if full.any():
        raise ValueError(f"fully masked row {np.flatnonzero(full)[0]}: softmax undefined")
    z = np.where(blocked, -np.inf, logits)
    m = z.max(axis=-1, keepdims=True)   # max over allowed entries only
    e = np.exp(z - m)                   # exp(-inf) = 0 at forbidden positions
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_value(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Last-axis layer norm; returns (output, normalized, inv_std) for reuse."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return xhat * gain + bias, xhat, inv


class Tape:
    """Computation tape. One tape per training step; not thread-shared."""

    def __init__(self):
        self._vals: list[np.ndarray] = []
        self._parents: list[list] = []   # list of (parent_id, vjp closure)
        self._track: list[bool] = []     # participates in gradient flow

    # -- node plumbing ----------------------------------------------------

    def _push(self, value: np.ndarray, parents: list) -> int:
        self._vals.append(value)
        tracked = [(p, fn) for p, fn in parents if self._track[p]]
        self._parents.append(tracked)
        self._track.append(bool(tracked))
        return len(self._vals) - 1

    def value(self, nid: int) -> np.ndarray:
        return self._vals[nid]

    def leaf(self, value, requires_grad: bool = True) -> int:
        self._vals.append(np.asarray(value, dtype=np.float64))
        self._parents.append([])
        self._track.append(requires_grad)
        return len(self._vals) - 1

    def constant(self, value) -> int:
        return self.leaf(value, requires_grad=False)

    # -- arithmetic primitives --------------------------------------------

    def add(self, a: int, b: int) -> int:
        av, bv = self._vals[a], self._vals[b]
        out = av + bv
        return self._push(out, [
            (a, lambda g, s=av.shape: _unbroadcast(g, s)),
            (b, lambda g, s=bv.shape: _unbroadcast(g, s)),
        ])

    def mul(self, a: int, b: int) -> int:
        av, bv = self._vals[a], self._vals[b]
        out = av * bv
        return self._push(out, [
            (a, lambda g, o=bv, s=av.shape: _unbroadcast(g * o, s)),
            (b, lambda g, o=av, s=bv.shape: _unbroadcast(g * o, s)),
        ])

    def scale(self, a: int, c: float) -> int:
        av = self._vals[a]
        return self._push(av * c, [(a, lambda g, c=c: g * c)])

    def neg(self, a: int) -> int:
        return self.scale(a, -1.0)

    def matmul(self, a: int, b: int) -> int:
        av, bv = self._vals[a], self._vals[b]
        _check_matmul(av, bv)
        out = av @ bv
        return self._push(out, [
            (a, lambda g, o=bv: g @ o.T),
            (b, lambda g, o=av: o.T @ g),
        ])

    def linear(self, x: int, w: int, b: int) -> int:
        """x @ w + b for x [n, k], w [k, m] and b [m], as one node."""
        xv, wv = self._vals[x], self._vals[w]
        _check_matmul(xv, wv)
        out = xv @ wv
        out += self._vals[b]
        return self._push(out, [
            (x, lambda g, o=wv: g @ o.T),
            (w, lambda g, o=xv: o.T @ g),
            (b, lambda g: g.sum(axis=0)),
        ])

    def bmm(self, a: int, b: int) -> int:
        """Batched matmul [..., m, k] x [..., k, n] with equal leading axes."""
        av, bv = self._vals[a], self._vals[b]
        if av.shape[:-2] != bv.shape[:-2] or av.shape[-1] != bv.shape[-2]:
            raise ValueError(f"bmm shape mismatch: {av.shape} x {bv.shape}")
        return self._push(av @ bv, [
            (a, lambda g, o=bv: g @ o.swapaxes(-1, -2)),
            (b, lambda g, o=av: o.swapaxes(-1, -2) @ g),
        ])

    def transpose(self, a: int, axes=None) -> int:
        """np.transpose; the default reverses the axes."""
        inv = None if axes is None else np.argsort(axes)
        return self._push(np.transpose(self._vals[a], axes),
                          [(a, lambda g, inv=inv: np.transpose(g, inv))])

    def reshape(self, a: int, shape) -> int:
        av = self._vals[a]
        return self._push(av.reshape(shape),
                          [(a, lambda g, s=av.shape: g.reshape(s))])

    def sum(self, a: int) -> int:
        av = self._vals[a]
        return self._push(np.asarray(av.sum()),
                          [(a, lambda g, s=av.shape: np.broadcast_to(g, s).copy())])

    def exp(self, a: int) -> int:
        out = np.exp(self._vals[a])
        return self._push(out, [(a, lambda g, o=out: g * o)])

    # -- structural primitives ---------------------------------------------

    def take_rows(self, a: int, key, axis: int = 0) -> int:
        """a[key] along `axis`; key is an integer index array or a slice."""
        av = self._vals[a]
        idx = (slice(None),) * axis + (key,)

        def vjp(g, idx=idx, shape=av.shape):
            out = np.zeros(shape)
            np.add.at(out, idx, g)
            return out

        return self._push(av[idx], [(a, vjp)])

    def concat_rows(self, ids: list[int], axis: int = 0) -> int:
        vals = [self._vals[i] for i in ids]
        offs = np.cumsum([0] + [v.shape[axis] for v in vals])
        parents = []
        for k, nid in enumerate(ids):
            idx = (slice(None),) * axis + (slice(offs[k], offs[k + 1]),)
            parents.append((nid, lambda g, idx=idx: g[idx]))
        return self._push(np.concatenate(vals, axis=axis), parents)

    def broadcast_to(self, a: int, shape) -> int:
        """np.broadcast_to (a read-only view), e.g. [n, d] -> [b, n, d]."""
        av = self._vals[a]
        return self._push(np.broadcast_to(av, shape),
                          [(a, lambda g, s=av.shape: _unbroadcast(g, s))])

    # -- fused nonlinear primitives ------------------------------------------

    def layer_norm(self, x: int, gain: int, bias: int) -> int:
        xv, gv, bv = self._vals[x], self._vals[gain], self._vals[bias]
        out, xhat, inv = layer_norm_value(xv, gv, bv)
        d = xv.shape[-1]

        def vjp_x(g, xhat=xhat, inv=inv, gv=gv, d=d):
            gh = g * gv
            return inv * (gh - gh.mean(axis=-1, keepdims=True)
                          - xhat * (gh * xhat).mean(axis=-1, keepdims=True))

        return self._push(out, [
            (x, vjp_x),
            (gain, lambda g, xhat=xhat, s=gv.shape:
                _unbroadcast(g * xhat, s)),
            (bias, lambda g, s=bv.shape: _unbroadcast(g, s)),
        ])

    def masked_softmax(self, logits: int, mask_entries: np.ndarray) -> int:
        p = masked_softmax_value(self._vals[logits], mask_entries)

        def vjp(g, p=p):
            return p * (g - (g * p).sum(axis=-1, keepdims=True))

        return self._push(p, [(logits, vjp)])

    def gelu(self, a: int) -> int:
        # imported here, not at the top: scipy.special takes longer to import
        # than the rest of hta, and only the video tower's MLP needs it
        from scipy.special import erf
        x = self._vals[a]
        phi = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        out = x * phi

        def vjp(g, x=x, phi=phi):
            pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
            return g * (phi + x * pdf)

        return self._push(out, [(a, vjp)])

    def normalize_rows(self, a: int) -> int:
        x = self._vals[a]
        norm = np.sqrt((x * x).sum(axis=1, keepdims=True))
        y = x / norm

        def vjp(g, y=y, norm=norm):
            return (g - y * (g * y).sum(axis=1, keepdims=True)) / norm

        return self._push(y, [(a, vjp)])

    def cross_entropy_diag(self, logits: int) -> int:
        """Mean over rows of [logsumexp(row) - row diagonal entry]."""
        z = self._vals[logits]
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError(f"expected square logits, got {z.shape}")
        n = z.shape[0]
        m = z.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
        out = np.asarray((lse - np.diag(z)).mean())
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)

        def vjp(g, p=p, n=n):
            return g * (p - np.eye(n)) / n

        return self._push(out, [(logits, vjp)])

    # -- reverse pass --------------------------------------------------------

    def backward(self, root: int) -> dict[int, np.ndarray]:
        """Gradients of a scalar root w.r.t. the tracked leaves it depends on.

        A non-leaf node's gradient is dropped as soon as its VJPs have run, so
        the pass holds only the gradients still in flight. The tape is left
        as it was: backward may run again on it.
        """
        rv = self._vals[root]
        if rv.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {rv.shape}")
        grads = {root: np.ones_like(rv)} if self._track[root] else {}
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
