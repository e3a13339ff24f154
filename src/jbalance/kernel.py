"""The one softmax kernel and the node blocks it runs on.

Every exponential sum of the package is a softmax over exponent points p_a
(lattice points) at quadrature nodes x: log-weights <p_a, x> plus an offset
per point or per node, basis-major (one row per point, one column per
node).  softmax_moments reduces such an array over its points, and
node_blocks forms it one block of nodes at a time, so that no (points x
nodes) array is held whole.  Every quadrature node is a node of the
rule's tensor grid (geometry.build_quadrature), and the sums over that
grid (quantisation._TensorGrid) come here only for the grid nodes whose
products underflow or lose digits; LogSumExpPotential.value/hessian come
here for every node.  The kernel runs at order 0 (the log-sum-exp alone,
for values) or 2 (the softmax and its first two moments, for Hessians and
the torus pass); node_blocks with no order yields the raw log-weights
(the Bergman sums of quantisation._TensorGrid).
"""

import numpy as np


def softmax_moments(A, points, order=2):
    """The one softmax kernel: the softmax over axis 0 of the log-weights A,
    with its log-sum-exp and, for ``order`` 2, its first two moments.

    A is (m, M), basis-major: row a holds the log-weights of the exponent
    point ``points[a]`` (``points`` is (m, n)) at the M nodes, and it is
    overwritten with the softmax S.  Every reduction runs over axis 0, so
    each elementwise operation sweeps whole contiguous rows.

    Returns (lse, S, mean, cov):

    * lse (M,): log sum_a e^{A_a}, per node (max-shifted);
    * S (m, M): the softmax (A itself), for ``order`` 2;
    * mean (n, M): the softmax average of the points, for ``order`` 2;
    * cov (n, n, M): the centred second moments, component-major (cov[i, j]
      is one contiguous (M,) row), for ``order`` 2.
    ``order`` 0 gives lse alone; its other entries are None.

    The second moments are centred on each node's heaviest point p*, where
    A is exactly 0 after the max shift: sum_a S_a (p_a - p*)(p_a - p*)^T
    minus the outer square of sum_a S_a (p_a - p*).  The differences
    p_a - p* are exact, so a node whose softmax is one-hot gets exactly
    zero moments, and one whose softmax lies on an edge of direction (1, 0),
    (0, 1) or (1, +-1) (every preset's edges) exactly rank-one moments;
    centring on the rounded mean would not.
    """
    m, n = points.shape
    amax = A.max(axis=0)
    A -= amax
    if order == 2:
        # a heaviest point per node (the last on ties): the max over axis 0
        # of row index times (A == 0), since argmax over axis 0 copies A
        c, w = np.empty((2,) + A.shape)
        np.equal(A, 0.0, out=c)
        c *= np.arange(m, dtype=float)[:, None]
        shift = [np.take(points[:, i], c.max(axis=0).astype(np.intp)) for i in range(n)]
    S = np.exp(A, out=A)
    total = S.sum(axis=0)
    lse = np.log(total)
    lse += amax
    if order == 0:
        return lse, None, None, None
    S /= total
    mean = np.empty((n, A.shape[1]))
    cov = np.empty((n, n, A.shape[1]))
    held = None                 # the coordinate whose p_a - p* c holds

    def centre(j):
        nonlocal held
        if held != j:
            np.subtract(points[:, j, None], shift[j], out=c)
            held = j

    for i in range(n):
        centre(i)
        np.multiply(S, c, out=w)
        w.sum(axis=0, out=mean[i])
        for j in range(i, n):
            centre(j)
            np.einsum("am,am->m", w, c, out=cov[i, j])
    for i in range(n):
        for j in range(i, n):
            cov[i, j] -= mean[i] * mean[j]
            cov[j, i] = cov[i, j]
        mean[i] += shift[i]
    return lse, S, mean, cov


# Byte budget of one (m, nodes) array of node_blocks; softmax_moments holds
# three such arrays at a time.  Node blocks serve the nodes the tensor grid
# leaves to the node kernel and the potentials' values and Hessians.  At
# 1 MiB every such evaluation in the benchmark (m x M up to 25 x 4096 and
# 6 x 9216) is one block, and a torus pass run wholly on node blocks at
# k = 8 to 32 was within noise of its fastest over budgets of 128 KiB to
# 8 MiB (2-CPU Xeon host, 2 MiB L2 per core).
NODE_BLOCK_BYTES = 2 ** 20

# Blocks start at multiples of this many nodes, so the BLAS product behind
# the log-weights groups each block's nodes as it groups the whole set's.
_BLOCK_ALIGN = 64


def node_block_size(m):
    """Nodes per block of node_blocks for m exponent points: what fits
    NODE_BLOCK_BYTES, rounded down to a multiple of 64 (at least 64)."""
    return max(_BLOCK_ALIGN, NODE_BLOCK_BYTES // (8 * m) // _BLOCK_ALIGN * _BLOCK_ALIGN)


def node_blocks(points, nodes, offsets=None, node_offsets=None, order=None):
    """Log-weights of exponent points at nodes, one block of nodes at a time.

    The log-weights are A = points @ nodes^T + offsets[:, None] +
    node_offsets[None, :], basis-major (m, M) for ``points`` (m, n),
    ``nodes`` (M, n), ``offsets`` (m,) and ``node_offsets`` (M,), either
    offset optional.  They are formed for node_block_size(m) nodes at a
    time, so no (m, M) array is made.  Yields (block, out) per block: a
    slice of the nodes, and softmax_moments(A_block, points, order) for
    ``order`` 0 or 2, or A_block itself for ``order`` None.  A_block
    (the kernel's S) is this call's work array, which the next block
    overwrites; the kernel's other outputs are fresh arrays.

    Every output but a sum over nodes has the same bits for any block size:
    the softmax runs per node, block starts are multiples of 64, and a
    one-node tail joins the block before it (a one-column product or
    reduction takes another code path).  No nodes make no blocks.
    """
    m, M = len(points), len(nodes)
    if not M:
        return
    size = node_block_size(m)
    edges = [0, *range(size, M - 1, size), M]
    work = np.empty(m * min(M, size + 1))
    for lo, hi in zip(edges[:-1], edges[1:]):
        A = np.matmul(points, nodes[lo:hi].T, out=work[:m * (hi - lo)].reshape(m, hi - lo))
        if offsets is not None:
            A += offsets[:, None]
        if node_offsets is not None:
            A += node_offsets[lo:hi]
        yield slice(lo, hi), A if order is None else softmax_moments(A, points, order)
