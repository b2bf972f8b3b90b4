"""Supervised neural-gas graph over a feature space.

Nodes carry a centroid, a diagonal variance, a stored raw input (the
pseudo-exemplar) and a class label.  Topology is learned by competitive
Hebbian rules: every presented feature ranks all nodes by Euclidean
distance, centroids move with a rank-decayed step, and the winner pair
gains an edge while the winner's other edges age out past a lifetime.

Node state is kept in parallel arrays on the graph (centroids, variances,
labels, ...) so the update rules stay vectorized.  A presentation call takes
a batch of rows: the Hebbian update steps through them in order with
buffers allocated once, computing f - m once per row for both the ranking
and the step, and the edge update applies the rows' winner pairs in closed
form, ages saturating at lifetime + 1.  When only a few nodes move, the
frozen side is screened once per block of rows, so each row computes exact
distances only where the screen cannot decide.  Large graphs otherwise step
a node-major copy of the centroids and rank each row by fast squared sums
wherever a rounding margin certifies the exact order.  Every result is bit
for bit that of the row-by-row rules.  `nearest` is the one winner search:
small searches compute every distance, larger ones screen the refs with one
product per block of query rows.  Both it and `max_distance` work through
bounded blocks.  Encoders passed to the graph map an input batch to features.
"""

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InputError, StateError

FORMAT_HEADER = "nggraph v1"
KMEANS_ITERS = 10
# Most distances one block of a winner search holds (a block is at least one query
# row); at 2048 a block's (rows, refs, dim) temporaries stay within cache.
NEAREST_BLOCK = 1 << 11
# Frozen nodes x feature dim from which a masked Hebbian call screens the frozen
# side with one matrix product instead of computing every row's exact distances.
# Measured on a 2-CPU box with one BLAS thread: exact 19 vs screened 37 us per row
# at 40 x 8, 38 vs 24 at 128 x 8, 72 vs 32 at 195 x 32, 127 vs 39 at 400 x 32.
SCREEN_MIN = 2048
# Nodes x feature dim from which the other Hebbian calls run node-major.  Measured
# on the same box, row-major vs node-major us per row: 13.2 vs 13.9 at 40 x 8,
# 8.8 vs 11.1 at 10 x 8, 17.4 vs 16.1 at 64 x 8, 23.9 vs 17.8 at 128 x 8, 91 vs 55
# at 400 x 32.
NODE_MAJOR_MIN = 1024
# Most row x node (or query x ref) products one block of a screen holds.
SCREEN_BLOCK = 1 << 14
# Headroom of the screen's bound over the worst-case rounding error, and the
# squared norm from which rows or centroids are too large to screen.
SCREEN_MARGIN = 2.0 ** 10
SCREEN_NORM_LIMIT = 2.0 ** 1000
UNIT_ROUNDOFF = 2.0 ** -53
TINY = 2.0 ** -1074
# Range of every integer field a checkpoint may hold: labels, origins and ages
# are stored in int64 arrays, and session and lifetime end up in them.
INT64 = np.iinfo(np.int64)
# Largest edge lifetime: a live edge's age is at most the lifetime, and the next
# edge_update adds one before it expires the edge, so that age must fit in int64.
MAX_LIFETIME = int(INT64.max) - 1
# The integers to_text writes; int() also reads "1_0" and non-ASCII digits.
INT_WORD = re.compile(r"-?[0-9]+")


def _rows_per_block(refs) -> int:
    """Query rows per block so that one block holds at most NEAREST_BLOCK distances."""
    return max(1, NEAREST_BLOCK // max(1, len(refs)))


def nearest(queries: np.ndarray, refs: np.ndarray) -> tuple:
    """Winner search: per query row, the nearest ref row's index and distance.

    Euclidean distance, ties to the lowest index.  Query rows are searched
    in blocks, so memory stays bounded for any number of queries.  A search
    of more than one block of distances screens the refs with one product
    per block (`_nearest_screened`); both ways give the same bits.
    """
    queries, refs = np.asarray(queries, dtype=float), np.asarray(refs, dtype=float)
    if queries.ndim != 2 or refs.ndim != 2 or queries.shape[1] != refs.shape[1]:
        raise InputError(f"winner search needs 2-D queries and refs of one width, "
                         f"got shapes {queries.shape} and {refs.shape}")
    if len(refs) == 0:
        raise InputError("winner search needs at least one ref row")
    if len(queries) * len(refs) > NEAREST_BLOCK:
        q_sq, r_sq = _sq_norms(queries), _sq_norms(refs)
        if q_sq.max() < SCREEN_NORM_LIMIT and r_sq.max() < SCREEN_NORM_LIMIT:
            return _nearest_screened(queries, refs, q_sq, r_sq)
    step = _rows_per_block(refs)
    index, dist = np.empty(len(queries), dtype=int), np.empty(len(queries))
    for start in range(0, len(queries), step):
        block = slice(start, start + step)
        d = np.linalg.norm(queries[block, None, :] - refs, axis=-1)
        index[block] = np.argmin(d, axis=1)
        dist[block] = d.min(axis=1)
    return index, dist


def _nearest_screened(queries, refs, q_sq, r_sq) -> tuple:
    """`nearest` with the refs screened by one product per block of query rows.

    For query q and ref r, h = |r|^2 - 2 q.r is within `_screen_bound` of
    |q - r|^2 - |q|^2, so the refs whose h is within twice the bound of the
    row's lowest hold its winner.  Only those get exact distances; the
    lowest, ties to the lower index, wins.
    """
    bound = 2.0 * _screen_bound(queries.shape[1], q_sq.max(), r_sq.max())
    index, dist = np.empty(len(queries), dtype=int), np.empty(len(queries))
    step = max(1, SCREEN_BLOCK // len(refs))
    for start in range(0, len(queries), step):
        block = slice(start, start + step)
        h = (-2.0 * queries[block]) @ refs.T
        h += r_sq
        # Candidates in row-major order: by query row, then by ref index.
        row, ref = np.divmod(np.flatnonzero(h <= h.min(axis=1, keepdims=True) + bound), len(refs))
        d = _exact_distances(queries[block][row], refs[ref])
        rows = np.arange(len(h))
        best = np.minimum.reduceat(d, np.searchsorted(row, rows))
        hit = np.flatnonzero(d == best[row])
        first = hit[np.searchsorted(row[hit], rows)]  # the lowest ref index at the minimum
        index[block], dist[block] = ref[first], d[first]
    return index, dist


def max_distance(points: np.ndarray) -> float:
    """Largest Euclidean distance between two rows, searched in blocks like `nearest`."""
    points = np.asarray(points, dtype=float)
    step = _rows_per_block(points)
    return max(float(np.linalg.norm(points[start:start + step, None, :] - points, axis=-1).max())
               for start in range(0, len(points), step))


@functools.lru_cache(maxsize=16)
def _rank_steps(eta: float, alpha: float, nodes: int) -> np.ndarray:
    """Read-only step per rank position of a graph of `nodes` nodes.

    Positions 0..nodes-2 take eta*exp(-i/alpha) for i = 1..nodes-1 and the
    farthest position takes 0; a single node takes eta*exp(-1/alpha), or it
    could never learn.
    """
    limit = nodes - 1 if nodes > 1 else 1
    steps = np.zeros(nodes)
    steps[:limit] = eta * np.exp(-np.arange(1, limit + 1) / alpha)
    steps.flags.writeable = False
    return steps


def _exact_distances(f: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Euclidean distances of f to each ref row (or of paired rows), the arithmetic
    of np.linalg.norm(refs - f, axis=1) bit for bit."""
    diff = f - refs
    return np.sqrt(np.add.reduce(diff * diff, axis=1))


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row, in any summation order."""
    return np.einsum("ij,ij->i", rows, rows)


def _screen_bound(dim: int, x_sq_max: float, c_sq_max: float) -> float:
    """Rounding bound of a screen over rows x and c of squared norms at most
    x_sq_max and c_sq_max.

    |x|^2 + h, with h = |c|^2 - 2 x.c from one matrix product, is within the
    bound of |x - c|^2 as the exact distances compute it.  It covers the
    worst-case rounding of h, of the exact squared distances and of the
    comparisons in any summation order (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1), TINY per operation for
    underflow, and SCREEN_MARGIN to spare.
    """
    return SCREEN_MARGIN * 8 * (dim + 4) * (
        UNIT_ROUNDOFF * (x_sq_max + max(x_sq_max, c_sq_max)) + TINY)


def _exact_order(f: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Ref rows by exact distance to f, ties by index."""
    return _exact_distances(f, refs).argsort(kind="stable")


@dataclass
class Ranking:
    """Node indices sorted by distance to a query feature, ties by index."""

    order: np.ndarray     # permutation of 0..N-1
    distances: np.ndarray  # non-decreasing, aligned with order

    @property
    def winner(self) -> int:
        return int(self.order[0])

    @property
    def runner_up(self) -> int:
        return int(self.order[1])


class NGGraph:
    """Node collection plus symmetric edge/age structure.

    Operations mutate the graph in place.  `session` tracks the most recent
    growth session so newly inserted nodes can be told apart from
    stabilized old ones.
    """

    def __init__(self, centroids: np.ndarray, variances: np.ndarray,
                 pseudo_inputs: list, labels: np.ndarray, origins: np.ndarray,
                 lifetime: int, eps_var: float, session: int = 1,
                 edges: np.ndarray | None = None, ages: np.ndarray | None = None):
        if not 1 <= lifetime <= MAX_LIFETIME:
            raise InputError(f"lifetime must be between 1 and {MAX_LIFETIME}, got {lifetime}")
        n = centroids.shape[0]
        self.centroids = np.asarray(centroids, dtype=float)
        self.variances = np.asarray(variances, dtype=float)
        self.pseudo_inputs = list(pseudo_inputs)
        self.labels = np.asarray(labels, dtype=int)
        self.origins = np.asarray(origins, dtype=int)
        self.lifetime = int(lifetime)
        self.eps_var = float(eps_var)
        self.session = int(session)
        self.edges = np.zeros((n, n), dtype=bool) if edges is None else np.asarray(edges, dtype=bool)
        self.ages = np.zeros((n, n), dtype=int) if ages is None else np.asarray(ages, dtype=int)

    def __len__(self) -> int:
        return self.centroids.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.centroids.shape[1]

    # -- competitive Hebbian learning -------------------------------------

    def rank_nodes(self, f: np.ndarray) -> Ranking:
        """Rank all nodes by Euclidean distance to f, ascending, ties by index."""
        if len(self) == 0:
            raise StateError("cannot rank nodes of an empty graph")
        f = np.asarray(f, dtype=float)
        if f.shape != (self.feature_dim,):
            raise InputError(
                f"feature has shape {f.shape}, expected ({self.feature_dim},)")
        d = _exact_distances(f, self.centroids)
        order = np.argsort(d, kind="stable")
        return Ranking(order, d[order])

    def hebbian_update(self, features: np.ndarray, eta: float, alpha: float,
                       updatable: np.ndarray | None = None) -> tuple:
        """Per feature row in order, move centroids toward it by rank-decayed steps.

        A row ranks all nodes by Euclidean distance, ties by index, and the
        node at rank position i = 1..N-1 moves by eta*exp(-i/alpha) of its
        gap; the farthest node is left alone, and a single-node graph updates
        its winner (otherwise it could never learn).  `updatable` is a
        boolean mask over nodes; nodes outside it keep their centroids but
        still take part in the ranking.  Every input is checked before any
        centroid moves.  Returns the rows' winners and runners-up as two
        index arrays (runner-up -1 on a single-node graph) for `edge_update`.

        Masked calls with at least SCREEN_MIN frozen nodes x feature dims
        screen the frozen side (`_hebbian_screened`); the others rank every
        node, node-major from NODE_MAJOR_MIN nodes x feature dims
        (`_hebbian_node_major`), else row by row (`_hebbian_exact`).  All
        three give the same bits.
        """
        if not 0.0 < eta <= 1.0:
            raise InputError(f"eta must be in (0, 1], got {eta}")
        if alpha <= 0.0:
            raise InputError(f"alpha must be positive, got {alpha}")
        n, dim = self.centroids.shape
        if n == 0:
            raise StateError("cannot rank nodes of an empty graph")
        x = np.asarray(features, dtype=float)
        if x.ndim != 2 or x.shape[1] != dim:
            raise InputError(f"features have shape {x.shape}, expected (rows, {dim})")
        if not np.isfinite(x).all():
            raise InputError("features must be finite")
        moving = np.ones(n, dtype=bool) if updatable is None else np.array(updatable, dtype=bool)
        if moving.shape != (n,):
            raise InputError(f"updatable mask has shape {moving.shape}, expected ({n},)")
        frozen = np.flatnonzero(~moving)
        steps = _rank_steps(eta, alpha, n)
        screen = len(frozen) >= 2 and len(frozen) * dim >= SCREEN_MIN
        pairs = None
        if len(x) and (screen or n * dim >= NODE_MAJOR_MIN):
            x_sq, c_sq = _sq_norms(x), _sq_norms(self.centroids)
            # Far from overflow, every squared distance and bound stays finite.
            if x_sq.max() < SCREEN_NORM_LIMIT and c_sq.max() < SCREEN_NORM_LIMIT:
                pairs = (self._hebbian_screened(x, steps, moving, x_sq, c_sq) if screen
                         else self._hebbian_node_major(x, steps, frozen))
        if pairs is None:
            pairs = self._hebbian_exact(x, steps, frozen)
        return pairs[:, 0], pairs[:, 1]

    def _hebbian_exact(self, x, steps, frozen) -> np.ndarray:
        """Rank every node for each row, in buffers allocated once; returns (winner, runner-up) rows."""
        c = self.centroids
        diff, work = np.empty_like(c), np.empty_like(c)
        d, step = np.empty(len(c)), np.empty(len(c))
        pairs = np.full((len(x), 2), -1)
        top, still = min(len(c), 2), len(c) > 1
        for t, f in enumerate(x):
            np.subtract(f, c, out=diff)
            np.multiply(diff, diff, out=work)
            np.sqrt(np.add.reduce(work, axis=1, out=d), out=d)
            order = d.argsort(kind="stable")
            step[order] = steps
            np.multiply(diff, step[:, None], out=work)
            # x + -0.0 is x for every x, so the nodes that stay keep their bits
            # (adding 0 * diff would turn -0.0 into 0.0).
            if still:
                work[order[-1]] = -0.0
            work[frozen] = -0.0
            c += work
            pairs[t, :top] = order[:top]
        return pairs

    def _hebbian_node_major(self, x, steps, frozen) -> np.ndarray:
        """`_hebbian_exact` on a (dim, N) working copy, so every array operation
        runs along the nodes; returns (winner, runner-up) rows.

        A row ranks the nodes by squared sums in any summation order, s from
        einsum, and certifies that ranking: each sorted sum must lie more than
        `margin` doubles above the one before it, that is, exceed it by a
        relative 2^11 (dim + 2) u and by 2^11 (dim + 2) TINY.  That is 2^9 times
        the worst-case rounding of two sums in any summation order and of the
        square root (Higham, section 3.1), so the exact distances rank the
        nodes alike, without ties.  Sums stay finite (the caller checks the norms)
        and non-negative, so their int64 views order like the sums.  A row
        that fails, through ties or underflow, ranks by `_exact_order`.
        """
        n, dim = self.centroids.shape
        cT = np.ascontiguousarray(self.centroids.T)
        diff, step = np.empty_like(cT), np.empty(n)
        pairs = np.full((len(x), 2), -1)
        top, still, margin = min(n, 2), n > 1, 2 ** 11 * (dim + 2)
        for t, f in enumerate(x):
            np.subtract(f[:, None], cT, out=diff)
            s = np.einsum("ij,ij->j", diff, diff)
            order = s.argsort()
            doubles = s.view(np.int64)[order]
            if still and (doubles[1:] - doubles[:-1]).min() <= margin:
                order = _exact_order(f, cT.T.copy())
            step[order] = steps
            diff *= step
            # As in _hebbian_exact, -0.0 keeps the bits of the nodes that stay.
            if still:
                diff[:, order[-1]] = -0.0
            if len(frozen):
                diff[:, frozen] = -0.0
            cT += diff
            pairs[t, :top] = order[:top]
        self.centroids[:] = cT.T
        return pairs

    def _hebbian_screened(self, x, steps, moving, x_sq, c_sq) -> np.ndarray:
        """The masked update with the frozen side screened once per block of rows.

        For row x and frozen node m, h = |m|^2 - 2 x.m comes from one matrix
        product per block, and |x|^2 + h is within `bound` of the squared
        exact distance.  Against a moving node's exact distance d, frozen
        nodes with |x|^2 + h below d^2 - bound are nearer, those at or above
        d^2 + bound are farther, and only the others are computed exactly,
        ties to the lower index.  The frozen nodes that may be among a row's
        two nearest are computed exactly too.  Returns (winner, runner-up) rows.
        """
        c = self.centroids
        n, dim = c.shape
        nodes = np.flatnonzero(moving).tolist()
        # A moving centroid stays in the hull of its start and the rows, so the
        # norms of the call bound every term.
        bound = _screen_bound(dim, x_sq.max(), c_sq.max())
        spread = np.array([-bound, bound]) - x_sq[:, None]
        mov = c[nodes]  # written back at the end; the frozen rows of c stay put
        u = len(mov)
        diff, sq, d, v = np.empty_like(mov), np.empty_like(mov), np.empty(u), np.empty(u)
        window, within, count = np.empty((u, 2)), np.empty(u, dtype=int), np.arange(u)
        pairs = []
        rows = max(1, SCREEN_BLOCK // n)
        for start in range(0, len(x), rows):
            xb = x[start:start + rows]
            h = (-2.0 * xb) @ c.T
            h += c_sq
            h[:, nodes] = np.inf  # moving nodes are ranked exactly, never screened
            sorted_h = np.sort(h, axis=1)
            # The two nearest frozen nodes of each row: its candidates sorted by
            # exact distance, ties by index, and the first two taken.
            row, node = np.divmod(np.flatnonzero(h <= sorted_h[:, 1:2] + 2.0 * bound), n)
            node = node[np.lexsort((node, _exact_distances(xb[row], c[node]), row))]
            heads = np.searchsorted(row, np.arange(len(xb)))
            nearest_frozen = np.stack((node[heads], node[heads + 1]), axis=1).tolist()
            for i, f in enumerate(xb):
                np.subtract(f, mov, out=diff)
                np.multiply(diff, diff, out=sq)
                np.sqrt(np.add.reduce(sq, axis=1, out=d), out=d)
                np.add(np.multiply(d, d, out=v)[:, None], spread[start + i], out=window)
                # Per moving node, the frozen nodes surely nearer, and those not surely farther.
                counts = sorted_h[i].searchsorted(window)
                within[d.argsort(kind="stable")] = count  # rank among the moving nodes
                rank = counts[:, 0] + within
                for j, (below, upto) in enumerate(counts.tolist()):
                    if below != upto:
                        tied = np.flatnonzero((window[j, 0] <= h[i]) & (h[i] < window[j, 1]))
                        dist = _exact_distances(f, c[tied])
                        rank[j] += np.count_nonzero((dist < d[j]) | ((dist == d[j]) & (tied < nodes[j])))
                np.multiply(diff, steps[rank][:, None], out=sq)
                ranks = rank.tolist()
                if n - 1 in ranks:  # the farthest node stays, as in _hebbian_exact
                    sq[ranks.index(n - 1)] = -0.0
                mov += sq
                # Rank positions 0 and 1 hold the moving node ranked there, if any,
                # else the row's nearest frozen nodes in order.
                at, fill = dict(zip(ranks, nodes)), iter(nearest_frozen[i])
                pairs.append([at[r] if r in at else next(fill) for r in (0, 1)])
        c[nodes] = mov
        return np.array(pairs)

    def edge_update(self, r1, r2) -> None:
        """Winner-pair edge updates, in order: refresh (r1, r2) and age r1's other pairs.

        r1 and r2 are two node indices, or two equal-length 1-D arrays of
        them with one pair per presentation.  Each pair's (r1, r2) edge is
        set with age 1, the ages of all pairs (r1, j), j != r2 increase by
        one, saturating at lifetime + 1, and any connected pair whose age now
        exceeds the lifetime loses its edge.  The sequence is applied in
        closed form: a pair's final age is 1 plus the wins (r1 entries) of
        either end after its last refresh, or, if never refreshed, its old age
        plus all those wins, in both cases at most lifetime + 1; and its edge
        survives only if every age it passed through is within the lifetime.
        All indices are checked before anything changes.
        """
        n = len(self)
        r1, r2 = np.atleast_1d(r1), np.atleast_1d(r2)
        if r1.ndim != 1 or r1.shape != r2.shape or r1.dtype.kind not in "iu" \
                or r2.dtype.kind not in "iu":
            raise InputError("edge update needs two node indices or two equal-length "
                             "1-D integer arrays of them")
        r1, r2 = r1.astype(np.int64), r2.astype(np.int64)
        if len(r1) and not (0 <= min(r1.min(), r2.min()) and max(r1.max(), r2.max()) < n):
            raise InputError(f"edge update node indices must be in 0..{n - 1}")
        if (r1 == r2).any():
            raise InputError("edge update needs two distinct nodes")
        count = len(r1)
        wins = np.bincount(r1, minlength=n)
        winners = np.flatnonzero(wins)
        # Pairs that touch a winner age by the wins of both ends (a self-pair by none).
        aged = wins[winners, None] + wins
        aged[np.arange(len(winners)), winners] = 0
        ages = self.ages[winners]
        # An edge that reached age a + k > lifetime at some step expired there;
        # a <= lifetime - aged tests that without overflowing a + aged.
        edges = self.edges[winners] & (ages <= self.lifetime - aged)
        # min(age, lifetime) + 1 per win, so no age can pass lifetime + 1 or wrap.
        ages = np.minimum(ages, self.lifetime + 1 - aged) + aged
        self.ages[winners], self.ages[:, winners] = ages, ages.T
        self.edges[winners], self.edges[:, winners] = edges, edges.T
        # Refreshed pairs count from age 1 at their last refresh.  Win times are
        # grouped by node in `keys`, so node j's wins after step t are the keys
        # in (j * count + t, (j + 1) * count).
        low, high = np.minimum(r1, r2), np.maximum(r1, r2)
        last = count - 1 - np.unique((low * n + high)[::-1], return_index=True)[1]
        a, b = low[last], high[last]
        keys, ends = np.sort(r1 * count + np.arange(count)), np.cumsum(wins)
        since = (ends[a] - keys.searchsorted(a * count + last, side="right")
                 + ends[b] - keys.searchsorted(b * count + last, side="right"))
        self.ages[a, b] = self.ages[b, a] = np.minimum(1 + since, self.lifetime + 1)
        self.edges[a, b] = self.edges[b, a] = since < self.lifetime

    def present(self, features: np.ndarray, eta: float, alpha: float,
                updatable: np.ndarray | None = None) -> None:
        """Per feature row in order: a Hebbian step, then the winner-pair edge update.

        One `hebbian_update` call and one `edge_update` call cover the whole
        batch.  A single-node graph has no runner-up, so it skips the edge
        update.
        """
        r1, r2 = self.hebbian_update(features, eta, alpha, updatable)
        if len(self) >= 2:
            self.edge_update(r1, r2)


    # -- node bookkeeping ---------------------------------------------------

    def assign_pseudo_exemplars(self, inputs, labels, encode) -> None:
        """Store, per node, the raw training input whose feature is nearest m.

        The chosen sample's label becomes the node label.  encode maps the
        (B, d) stacked inputs to their (B, n) features in one call.
        """
        if len(inputs) == 0:
            raise InputError("cannot assign pseudo-exemplars from an empty dataset")
        x = np.asarray(inputs, dtype=float)
        best = nearest(self.centroids, encode(x))[0]
        self.pseudo_inputs = [x[b].copy() for b in best]
        self.labels = np.asarray(labels, dtype=int)[best]

    def estimate_variances(self, features: np.ndarray,
                           node_indices=None) -> None:
        """Per-dimension population variance of each node's won features.

        A floor of eps_var is added everywhere; nodes winning at most one
        feature fall back to the floor alone.
        """
        features = np.asarray(features, dtype=float)
        winners = nearest(features, self.centroids)[0]
        for j in range(len(self)) if node_indices is None else node_indices:
            won = features[winners == j]
            self.variances[j] = self.eps_var + (won.var(axis=0) if len(won) > 1 else 0.0)

    def grow(self, class_samples: dict, k: int, session: int, seed: int = 0) -> None:
        """Insert k nodes per new class from its few-shot features.

        class_samples maps label -> (features (K, n), inputs (K, d)).
        Centroids come from a seeded k-means over the shots (for k = 1, the
        mean of the K shot features).  New nodes get the floor variance, the
        nearest shot as pseudo input, and no edges.
        """
        known = set(self.labels.tolist())
        for label in class_samples:
            if int(label) in known:
                raise InputError(f"class {label} already has nodes in the graph")
        rng = np.random.default_rng([seed, 0x960])
        new_centroids, new_inputs, new_labels = [], [], []
        for label in sorted(class_samples):
            feats, inputs = class_samples[label]
            feats = np.asarray(feats, dtype=float)
            if not 1 <= k < feats.shape[0]:
                raise InputError(
                    f"growth count {k} must be below the {feats.shape[0]} shots")
            centers = _kmeans(feats, k, rng)
            new_centroids.extend(centers)
            new_inputs.extend(np.array(inputs, dtype=float)[nearest(centers, feats)[0]])
            new_labels.extend([int(label)] * len(centers))
        added = len(new_centroids)
        self.centroids = np.vstack([self.centroids, np.array(new_centroids)])
        self.variances = np.vstack([self.variances,
                                    np.full((added, self.feature_dim), self.eps_var)])
        self.pseudo_inputs.extend(new_inputs)
        self.labels = np.concatenate([self.labels, np.array(new_labels, dtype=int)])
        self.origins = np.concatenate([self.origins, np.full(added, session, dtype=int)])
        self.edges = np.pad(self.edges, ((0, added), (0, added)))
        self.ages = np.pad(self.ages, ((0, added), (0, added)))
        self.session = int(session)

    def refresh_anchors(self, encode) -> None:
        """Re-encode every pseudo input with the current extractor: m <- f(z).

        encode maps the (N, d) stacked pseudo inputs to (N, n) features in one call.
        """
        if any(z is None for z in self.pseudo_inputs):
            raise StateError("a node has no pseudo input to re-encode")
        self.centroids[:] = encode(np.stack(self.pseudo_inputs))

    def quantization_error(self, features: np.ndarray) -> float:
        """Mean Euclidean distance from each feature to its winner centroid."""
        features = np.asarray(features, dtype=float)
        if features.shape[0] == 0:
            raise InputError("quantization error needs at least one feature")
        return float(nearest(features, self.centroids)[1].mean())

    def check_invariants(self) -> None:
        """Raise StateError if symmetry, diagonal, lifetime or floor invariants fail."""
        if not np.array_equal(self.edges, self.edges.T):
            raise StateError("edge indicator is not symmetric")
        if not np.array_equal(self.ages, self.ages.T):
            raise StateError("age matrix is not symmetric")
        if np.any(np.diag(self.edges)):
            raise StateError("self-edges are not allowed")
        if np.any(self.ages < 0):
            raise StateError("negative edge age")
        if np.any(self.edges & (self.ages > self.lifetime)):
            raise StateError("a surviving edge exceeds the lifetime")
        if np.any(self.variances < self.eps_var * (1 - 1e-12)):
            raise StateError("variance fell below the floor")

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Human-readable checkpoint; versioned, exact float round-trip.

        Ages are stored for live edges only: a non-adjacent pair's age can
        never influence future updates (an edge is only created with its age
        reset to 1), so it is not persisted.
        """
        lines = [FORMAT_HEADER,
                 f"lifetime {self.lifetime}",
                 f"session {self.session}",
                 f"eps_var {self.eps_var!r}",
                 f"nodes {len(self)}"]
        for j in range(len(self)):
            lines.append(f"node {j} label {int(self.labels[j])} origin {int(self.origins[j])}")
            lines.append("m " + " ".join(repr(float(v)) for v in self.centroids[j]))
            lines.append("var " + " ".join(repr(float(v)) for v in self.variances[j]))
            z = self.pseudo_inputs[j]
            lines.append("z -" if z is None else "z " + " ".join(repr(float(v)) for v in z))
        pairs = [(i, j) for i in range(len(self)) for j in range(i + 1, len(self))
                 if self.edges[i, j]]
        lines.append(f"edges {len(pairs)}")
        for i, j in pairs:
            lines.append(f"{i} {j} {int(self.ages[i, j])}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "NGGraph":
        """Parse a to_text checkpoint; anything malformed raises InputError."""
        lines = text.splitlines()
        if not lines or lines[0] != FORMAT_HEADER:
            raise InputError(f"not a recognized graph checkpoint (expected '{FORMAT_HEADER}')")
        pos = 1

        def bad(why: str) -> InputError:
            return InputError(f"malformed checkpoint at line {pos}: {why}")

        def take(prefix: str | None, count: int | None = 1) -> list:
            """Words of the next line after `prefix`: exactly count, or any non-zero number."""
            nonlocal pos
            pos += 1
            words = lines[pos - 1].split() if pos <= len(lines) else []
            if prefix is not None:
                if words[:1] != [prefix]:
                    raise bad(f"expected '{prefix} ...'")
                words = words[1:]
            if not words or (count is not None and len(words) != count):
                raise bad(f"expected {count or 'some'} values")
            return words

        def numbers(words: list, kind=int) -> list:
            try:
                if not all(INT_WORD.fullmatch(w) if kind is int else w.isascii() and "_" not in w
                           for w in words):
                    raise ValueError
                values = [kind(w) for w in words]
            except ValueError:
                raise bad(f"expected {kind.__name__} values") from None
            if kind is int:
                if not all(INT64.min <= v <= INT64.max for v in values):
                    raise bad("integer outside int64")
            elif not all(math.isfinite(v) for v in values):
                raise bad("non-finite value")
            return values

        (lifetime,), (session,) = numbers(take("lifetime")), numbers(take("session"))
        (eps_var,), (count,) = numbers(take("eps_var"), float), numbers(take("nodes"))
        if count < 1 or eps_var <= 0:
            raise bad("need at least one node and a positive variance floor")
        heads, centroids, variances, pseudo = [], [], [], []
        for j in range(count):
            head = take("node", 5)
            if head[0] != str(j) or head[1::2] != ["label", "origin"]:
                raise bad(f"expected 'node {j} label <int> origin <int>'")
            heads.append(numbers(head[2::2]))
            centroids.append(numbers(take("m", len(centroids[0]) if centroids else None), float))
            variances.append(numbers(take("var", len(centroids[0])), float))
            z = take("z", None)
            pseudo.append(None if z == ["-"] else np.array(numbers(z, float)))
        if len({z.size for z in pseudo if z is not None}) > 1:
            raise InputError("malformed checkpoint: pseudo inputs differ in width")
        (edge_count,) = numbers(take("edges"))
        if edge_count < 0:
            raise bad("negative edge count")
        labels, origins = np.array(heads).T
        graph = NGGraph(np.array(centroids), np.array(variances), pseudo,
                        labels, origins, lifetime, eps_var, session)
        for _ in range(edge_count):
            i, j, age = numbers(take(None, 3))
            if not 0 <= i < j < count or graph.edges[i, j]:
                raise bad("an edge must join two in-range nodes once, lower index first")
            graph.edges[i, j] = graph.edges[j, i] = True
            graph.ages[i, j] = graph.ages[j, i] = age
        if pos != len(lines):
            raise InputError(f"malformed checkpoint: trailing content after line {pos}")
        try:
            graph.check_invariants()
        except StateError as exc:
            raise InputError(f"invalid checkpoint: {exc}") from exc
        return graph

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @staticmethod
    def load(path) -> "NGGraph":
        with open(path, encoding="utf-8") as fh:
            return NGGraph.from_text(fh.read())


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded Lloyd iterations over a handful of shot features."""
    centers = points[rng.choice(points.shape[0], size=k, replace=False)].copy()
    for _ in range(KMEANS_ITERS):
        assign = nearest(points, centers)[0]
        for c in range(k):
            mine = points[assign == c]
            if mine.shape[0] > 0:
                centers[c] = mine.mean(axis=0)
    return centers


def init_graph(features: np.ndarray, labels, node_count: int, lifetime: int,
               eps_var: float, seed: int) -> NGGraph:
    """Start a graph from node_count distinct feature vectors, no edges.

    Labels of the sampled features seed the node labels; they are replaced
    once pseudo-exemplars are assigned after training.
    """
    features = np.asarray(features, dtype=float)
    if node_count > features.shape[0]:
        raise InputError(
            f"cannot sample {node_count} centroids from {features.shape[0]} features")
    rng = np.random.default_rng([seed, 0x1419])
    idx = rng.choice(features.shape[0], size=node_count, replace=False)
    labels = np.asarray(labels, dtype=int)
    return NGGraph(features[idx].copy(),
                   np.full((node_count, features.shape[1]), eps_var),
                   [None] * node_count, labels[idx].copy(),
                   np.ones(node_count, dtype=int), lifetime, eps_var)


def train_on_features(graph: NGGraph, features: np.ndarray, eta: float,
                      alpha: float, passes: int, seed: int) -> None:
    """Run shuffled competitive-Hebbian sweeps over the feature set.

    Each presented feature ranks the nodes, moves centroids, and refreshes
    the winner-pair edge.
    """
    if passes < 1:
        raise InputError(f"need at least one pass, got {passes}")
    features = np.asarray(features, dtype=float)
    rng = np.random.default_rng([seed, 0x7A41])
    for _ in range(passes):
        graph.present(features[rng.permutation(features.shape[0])], eta, alpha)
