"""Supervised neural-gas graph over a feature space.

Every node carries a centroid, a diagonal variance, a stored raw input (the
pseudo-exemplar) and a class label.  Topology is learned by competitive
Hebbian rules: every presented feature ranks all nodes by Euclidean
distance, centroids move with a rank-decayed step, and the winner pair
gains an edge while the winner's other edges age out past a lifetime.

Node state is kept in parallel arrays on the graph (centroids, variances,
labels, ...) so the update rules stay vectorized.  A presentation call takes
a batch of rows: the Hebbian update steps through them in order with
buffers allocated once, computing f - m once per row for both the ranking
and the step, and the edge update applies the rows' winner pairs in closed
form to the winners' edges of one age matrix.  When only a few nodes move,
the frozen side is screened once per block of rows, so each row computes
exact distances only where the screen cannot decide.  Every other call steps a
node-major copy of the centroids and ranks each row by fast squared sums
wherever a rounding margin certifies the exact order.  Every result is bit
for bit that of the row-by-row rules.  `nearest` is the one winner search:
small searches compute every distance, larger ones screen the refs with one
product per block of query rows.  Every pass over rows works in blocks of
bounded size, whatever the row, ref or node count: a search block holds at
most NEAREST_BLOCK distances or SCREEN_BLOCK products, and a screen computes
its candidates' exact distances NEAREST_BLOCK at a time (`max_distance`
screens like `nearest`); a training sweep presents SWEEP_BLOCK rows per call.
"""

import functools
import math
import re

import numpy as np

from .errors import InputError, StateError

FORMAT_HEADER = "nggraph v1"
KMEANS_ITERS = 10
# Most distances one block of a winner search holds (a block is at least one query
# row), and most candidates a screen computes exactly at once; at 2048 a block's
# (rows, refs, dim) temporaries stay within cache.
NEAREST_BLOCK = 1 << 11
# Frozen nodes x feature dim from which a masked Hebbian call screens the frozen
# side with one matrix product instead of ranking every node.  Measured on a 2-CPU
# box with one BLAS thread, 20-row calls with two moving nodes: node-major 17 vs
# screened 20 us per row at 40 x 8, 29 vs 21 at 128 x 8, 57 vs 29 at 195 x 32,
# 95 vs 37 at 400 x 32.
SCREEN_MIN = 2048
# Most row x node (or query x ref) products one block of a screen holds (1 MB of
# them), whatever the node or ref count; a block still takes at least one row.
SCREEN_BLOCK = 1 << 17
# Rows per presentation call of a training sweep, so a sweep's temporaries stay
# bounded however many features it presents.
SWEEP_BLOCK = 1 << 10
# Headroom of the screen's bound over the worst-case rounding error, and the
# squared norm from which rows or centroids are too large to screen or certify.
SCREEN_MARGIN = 2.0 ** 10
SCREEN_NORM_LIMIT = 2.0 ** 1000
UNIT_ROUNDOFF = 2.0 ** -53
TINY = 2.0 ** -1074
# Range of every integer field a checkpoint may hold: labels and origins are
# stored in int64 arrays, and session and lifetime are read as int64.
INT64 = np.iinfo(np.int64)
# Largest edge lifetime: the row-by-row rule adds one to a live edge's age (at most
# the lifetime) before it expires the edge, so lifetime + 1 must fit in the age
# dtype, and `age_dtype` never gives a wider one than int64.
MAX_LIFETIME = int(INT64.max) - 1
# The integers to_text writes; int() also reads "1_0" and non-ASCII digits.
INT_WORD = re.compile(r"-?[0-9]+")


def _number_word(word: str, kind: type):
    """`word` as `kind`, int or float, written as plain ASCII: an int as INT_WORD, a
    float without "_" (float() also reads "1_0" and non-ASCII digits); else ValueError."""
    if not (INT_WORD.fullmatch(word) if kind is int else word.isascii() and "_" not in word):
        raise ValueError(f"{word!r} is not a plain {kind.__name__}")
    return kind(word)


def _integral(values, kinds: str = "iu") -> bool:
    """Whether values have an integer dtype (with "biu", bool too) that int64 holds."""
    dtype = np.asarray(values).dtype
    return dtype.kind in kinds and np.can_cast(dtype, np.int64)


def age_dtype(lifetime: int) -> np.dtype:
    """Narrowest integer dtype of an age matrix under `lifetime`: one that holds
    lifetime + 1, the largest age the row-by-row rule holds before it expires an
    edge (uint8 up to lifetime 254).  int64 takes the place of uint64, which
    numpy promotes to float when mixed with int64."""
    dtype = np.min_scalar_type(lifetime + 1)
    return np.dtype(np.int64) if dtype == np.uint64 else dtype


def check_variance_floor(eps_var: float) -> None:
    """Raise InputError unless eps_var is finite and positive with a finite reciprocal."""
    if not (0.0 < float(eps_var) < math.inf and math.isfinite(1.0 / float(eps_var))):
        raise InputError(f"eps_var {eps_var} is not finite and positive with a finite reciprocal")


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
    row's lowest hold its winner.  Only those get exact distances,
    NEAREST_BLOCK candidates at a time; the lowest, ties to the lower index,
    wins.
    """
    bound = 2.0 * _screen_bound(queries.shape[1], q_sq.max(), r_sq.max())
    index, dist = np.empty(len(queries), dtype=int), np.full(len(queries), np.inf)
    step = max(1, SCREEN_BLOCK // len(refs))
    for start in range(0, len(queries), step):
        h = (-2.0 * queries[start:start + step]) @ refs.T
        h += r_sq
        # Candidates in row-major order: by query row, then by ref index.
        row, ref = np.divmod(np.flatnonzero(h <= h.min(axis=1, keepdims=True) + bound), len(refs))
        row += start
        chunk = max(1, NEAREST_BLOCK)
        for at in range(0, len(row), chunk):
            r, c = row[at:at + chunk], ref[at:at + chunk]
            d = _exact_distances(queries[r], refs[c])
            rows = np.arange(r[0], r[-1] + 1)  # every row has a candidate
            best = np.minimum.reduceat(d, np.searchsorted(r, rows))
            hit = np.flatnonzero(d == best[r - r[0]])
            first = c[hit[np.searchsorted(r[hit], rows)]]  # the lowest ref index at the minimum
            # A row's earlier chunks hold its lower refs, so only a lower distance wins.
            lower = best < dist[rows]
            index[rows[lower]], dist[rows[lower]] = first[lower], best[lower]
    return index, dist


def max_distance(points: np.ndarray) -> float:
    """Largest Euclidean distance between two rows, screened like `nearest`.

    Each block of rows is paired with the rows from its first on, which
    meets every pair.  For rows p and q, h = |p|^2 + |q|^2 - 2 p.q from one
    product per block is within `_screen_bound` of |p - q|^2, so the pairs
    whose h is within twice the bound of the block's highest hold its
    farthest pair.  Only those get exact distances, NEAREST_BLOCK at a time;
    once a squared norm reaches SCREEN_NORM_LIMIT, every pair does.
    """
    points = np.asarray(points, dtype=float)
    sq = _sq_norms(points)
    screen = sq.max() < SCREEN_NORM_LIMIT
    bound = 2.0 * _screen_bound(points.shape[1], sq.max(), sq.max())
    step = max(1, SCREEN_BLOCK // len(points))
    farthest = []
    for start in range(0, len(points), step):
        block, rest = points[start:start + step], points[start:]
        if screen:
            h = (-2.0 * block) @ rest.T
            h += sq[start:]
            h += sq[start:start + step, None]
            pairs = np.flatnonzero(h >= h.max() - bound)
        else:
            pairs = np.arange(len(block) * len(rest))
        row, col = np.divmod(pairs, len(rest))
        for at in range(0, len(pairs), NEAREST_BLOCK):
            chunk = slice(at, at + NEAREST_BLOCK)
            farthest.append(float(_exact_distances(block[row[chunk]], rest[col[chunk]]).max()))
    return max(farthest)


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


class NGGraph:
    """Node collection plus a symmetric age matrix: 0 for no edge, else the edge's age.

    The ages are stored in `age_dtype(lifetime)`, one byte per node pair up to
    lifetime 254; `edge_update` computes new ages in int64 and stores them once
    they are within the lifetime.

    Operations mutate the graph in place.  `session` is the most recent growth's:
    presentations and variance estimates touch only its nodes (`current`), and
    nodes of earlier origins are the stabilized old ones.
    """

    def __init__(self, centroids: np.ndarray, variances: np.ndarray,
                 pseudo_inputs: np.ndarray, labels: np.ndarray, origins: np.ndarray,
                 lifetime: int, eps_var: float, session: int = 1,
                 ages: np.ndarray | None = None):
        self.centroids, self.variances, self.pseudo_inputs = (
            np.asarray(a, dtype=float) for a in (centroids, variances, pseudo_inputs))
        self.labels, self.origins = np.asarray(labels), np.asarray(origins)
        self.lifetime, self.eps_var, self.session = lifetime, eps_var, session
        zeros = np.zeros(self.centroids.shape[:1] * 2, dtype=bool)
        self.ages = zeros if ages is None else np.asarray(ages)
        self._check(InputError)  # on the fields as given, before any cast
        self.labels = self.labels.astype(int, copy=False)
        self.origins = self.origins.astype(int, copy=False)
        self.lifetime, self.eps_var, self.session = int(lifetime), float(eps_var), int(session)
        self.ages = self.ages.astype(age_dtype(self.lifetime), copy=False)  # nothing wraps

    def __len__(self) -> int:
        return self.centroids.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.centroids.shape[1]

    @property
    def current(self) -> np.ndarray:
        """(N,) bool mask of the session's nodes; the rules allow no later origin."""
        return self.origins == self.session

    def _block(self, values, name="features", inputs=False, rows=None) -> np.ndarray:
        """The array rule of every method that takes features (raw inputs with `inputs`): a
        finite 2-D float block as wide as the graph's and, with rows=(count, what), count rows."""
        x = np.asarray(values, dtype=float)
        width = self.pseudo_inputs.shape[1] if inputs else self.feature_dim
        if x.ndim != 2 or x.shape[1] != width or not np.isfinite(x).all():
            raise InputError(f"{name} must be finite, 2-D and {width} wide, got shape {x.shape}")
        if rows is not None and len(x) != rows[0]:
            noun = "input" if inputs else "feature"
            raise InputError(f"{name}: {len(x)} {noun} rows for {rows[0]} {rows[1]}")
        return x

    # -- competitive Hebbian learning -------------------------------------

    def hebbian_update(self, features: np.ndarray, eta: float, alpha: float) -> tuple:
        """Per feature row in order, move centroids toward it by rank-decayed steps.

        A row ranks all nodes by Euclidean distance, ties by index, and the
        node at rank position i = 1..N-1 moves by eta*exp(-i/alpha) of its
        gap; the farthest node is left alone, and a single-node graph updates
        its winner (otherwise it could never learn).  Only the session's nodes
        move (all of them at session 1); old nodes stay but are ranked.  Every
        input is checked before any centroid moves.  Returns the rows' winners
        and runners-up as two index arrays (runner-up -1 on a single-node
        graph) for `edge_update`.

        Calls with at least SCREEN_MIN old nodes x feature dims screen the
        old side (`_hebbian_screened`); every call that does not screen ranks
        every node (`_hebbian_node_major`), by exact distances alone once a
        squared norm reaches SCREEN_NORM_LIMIT.  Both give the same bits.
        """
        if not 0.0 < eta <= 1.0:
            raise InputError(f"eta must be in (0, 1], got {eta}")
        if not (math.isfinite(alpha) and alpha > 0.0):
            raise InputError(f"alpha must be finite and positive, got {alpha}")
        n, dim = self.centroids.shape
        x = self._block(features)
        frozen = ~self.current
        steps = _rank_steps(eta, alpha, n)
        x_sq, c_sq = _sq_norms(x), _sq_norms(self.centroids)
        # Far from overflow, every squared distance and bound stays finite.
        certify = max(x_sq.max(initial=0.0), c_sq.max()) < SCREEN_NORM_LIMIT
        count = np.count_nonzero(frozen)
        if certify and len(x) and count >= 2 and count * dim >= SCREEN_MIN:
            pairs = self._hebbian_screened(x, steps, ~frozen, x_sq, c_sq)
        else:
            pairs = self._hebbian_node_major(x, steps, frozen, certify)
        return pairs[:, 0], pairs[:, 1]

    def _hebbian_node_major(self, x, steps, frozen, certify) -> np.ndarray:
        """Rank every node for each row and step the centroids, on a (dim, N)
        working copy so every array operation runs along the nodes; returns
        (winner, runner-up) rows.

        With `certify`, a row ranks the nodes by squared sums in any summation
        order, s from einsum, and certifies that ranking: each sorted sum must lie
        more than `margin` doubles above the one before it, that is, exceed it
        by a relative 2^11 (dim + 2) u and by 2^11 (dim + 2) TINY.  That is 2^9
        times the worst-case rounding of two sums in any summation order and of
        the square root (Higham, section 3.1), so the exact distances rank the
        nodes alike, without ties.  Sums stay finite (the caller checks the
        norms) and non-negative, so their int64 views order like the sums.  A
        row that fails, through ties or underflow, and every row of a call
        without `certify` ranks by `_exact_order`.
        """
        n, dim = self.centroids.shape
        cT = np.ascontiguousarray(self.centroids.T)
        diff, step = np.empty_like(cT), np.empty(n)
        pairs = np.full((len(x), 2), -1)
        top, still, margin = min(n, 2), n > 1, 2 ** 11 * (dim + 2)
        masked = frozen.any()
        for t, f in enumerate(x):
            np.subtract(f[:, None], cT, out=diff)
            if certify:
                s = np.einsum("ij,ij->j", diff, diff)
                order = s.argsort()
                doubles = s.view(np.int64)[order]
            if not certify or still and (doubles[1:] - doubles[:-1]).min() <= margin:
                order = _exact_order(f, cT.T.copy())
            step[order] = steps
            diff *= step
            # x + -0.0 is x for every x, so the nodes that stay keep their bits
            # (adding 0 * diff would turn -0.0 into 0.0).
            if still:
                diff[:, order[-1]] = -0.0
            if masked:
                np.copyto(diff, -0.0, where=frozen)
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
                if n - 1 in ranks:  # the farthest node stays, as in _hebbian_node_major
                    sq[ranks.index(n - 1)] = -0.0
                mov += sq
                # Rank positions 0 and 1 hold the moving node ranked there, if any,
                # else the row's nearest frozen nodes in order.
                at, fill = dict(zip(ranks, nodes)), iter(nearest_frozen[i])
                pairs.append([at[r] if r in at else next(fill) for r in (0, 1)])
        c[nodes] = mov
        return np.array(pairs)

    def edge_update(self, r1, r2) -> None:
        """Winner-pair edge updates, in order: refresh (r1, r2) and age r1's other edges.

        r1 and r2 are two node indices, or two equal-length 1-D arrays of
        them with one pair per presentation.  Each pair's (r1, r2) edge is
        set with age 1, every other live edge of r1 ages by one, and an edge
        whose age now exceeds the lifetime is removed (its age becomes 0).
        The sequence is applied in closed form to the winners' edges alone: a
        refreshed pair's final age is 1 plus the wins (r1 entries) of either
        end after its last refresh, any other live edge (i, j) of a winner ages
        by wins[i] + wins[j], and an edge survives only if that age is within
        the lifetime.  All indices are checked before anything changes.
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
        # Each live edge (i, j) of a winner, listed from both ends when both won, ages
        # by the wins of both; one whose age a + aged passes the lifetime expired on
        # the way, which a > lifetime - aged tests without overflow.  Both sides are
        # int64 whatever the age dtype, and only ages within the lifetime are stored.
        k, j = np.nonzero(self.ages[winners])
        i = winners[k]
        ages, aged = self.ages[i, j], wins[i] + wins[j]
        self.ages[i, j] = self.ages[j, i] = np.where(ages <= self.lifetime - aged, ages + aged, 0)
        # Refreshed pairs count from age 1 at their last refresh.  Win times are
        # grouped by node in `keys`, so node j's wins after step t are the keys
        # in (j * count + t, (j + 1) * count).
        low, high = np.minimum(r1, r2), np.maximum(r1, r2)
        last = count - 1 - np.unique((low * n + high)[::-1], return_index=True)[1]
        a, b = low[last], high[last]
        keys, ends = np.sort(r1 * count + np.arange(count)), np.cumsum(wins)
        since = (ends[a] - keys.searchsorted(a * count + last, side="right")
                 + ends[b] - keys.searchsorted(b * count + last, side="right"))
        self.ages[a, b] = self.ages[b, a] = np.where(since < self.lifetime, 1 + since, 0)

    def present(self, features: np.ndarray, eta: float, alpha: float) -> None:
        """Per feature row in order: a Hebbian step, then the winner-pair edge update.

        One `hebbian_update` call and one `edge_update` call cover the whole
        batch; only the current session's nodes move.  A single-node graph
        has no runner-up, so it skips the edge update.
        """
        r1, r2 = self.hebbian_update(features, eta, alpha)
        if len(self) >= 2:
            self.edge_update(r1, r2)

    # -- node bookkeeping ---------------------------------------------------

    def assign_pseudo_exemplars(self, inputs, labels, features) -> None:
        """Store, per node, the raw training input whose feature is nearest m.

        The chosen sample's label becomes the node label.  features and labels
        hold one (n,) feature and one integer per row of the (B, d) inputs.
        """
        x = self._block(inputs, "inputs", inputs=True)
        features = self._block(features, rows=(len(x), "inputs"))
        labels = np.asarray(labels)
        if labels.shape != (len(x),) or not _integral(labels):
            raise InputError(f"{labels.dtype} labels of shape {labels.shape} "
                             f"are not one integer per input")
        best = nearest(self.centroids, features)[0]
        self.pseudo_inputs = x[best]
        self.labels = labels.astype(int, copy=False)[best]

    def estimate_variances(self, features: np.ndarray) -> None:
        """Per-dimension population variance of the won features of each of the
        session's nodes (every node at session 1); all nodes compete for the features.

        A floor of eps_var is added; nodes winning at most one feature fall back
        to the floor alone.
        """
        features = self._block(features)
        winners = nearest(features, self.centroids)[0]
        for j in np.flatnonzero(self.current):
            won = features[winners == j]
            self.variances[j] = self.eps_var + (won.var(axis=0) if len(won) > 1 else 0.0)

    def grow(self, class_samples: dict, k: int, seed: int = 0) -> None:
        """Start the next session: insert k nodes per new class from its few-shot features.

        class_samples maps label -> (features (K, n), inputs (K, d)).
        Centroids come from a seeded k-means over the shots (for k = 1, the
        mean of the K shot features).  New nodes get the floor variance, the
        nearest shot as pseudo input, no edges and origin session + 1, the new
        session.  Every class and its integer label, and the last int64 session, are checked
        before anything changes.
        """
        if self.session == INT64.max:
            raise StateError(f"no session can follow session {self.session} in an int64 origin")
        known, shots = set(self.labels.tolist()), {}
        for label in sorted(class_samples):
            feats, inputs = class_samples[label]
            if not _integral(label):
                raise InputError(f"class label {label!r} is not an integer")
            if int(label) in known:
                raise InputError(f"class {label} already has nodes in the graph")
            feats = self._block(feats, f"class {label} shots' features")
            inputs = self._block(inputs, f"class {label} shots' inputs", inputs=True,
                                 rows=(len(feats), "features"))
            if not 1 <= k < feats.shape[0]:
                raise InputError(f"growth count {k} must be below the {feats.shape[0]} shots")
            shots[int(label)] = feats, inputs
        rng = np.random.default_rng([seed, 0x960])
        centers = [_kmeans(feats, k, rng) for feats, _ in shots.values()]
        picks = [z[nearest(c, f)[0]] for c, (f, z) in zip(centers, shots.values())]
        added = k * len(shots)
        self.origins = np.concatenate([self.origins, np.full(added, self.session + 1, dtype=int)])
        self.centroids = np.vstack([self.centroids, *centers])
        self.variances = np.vstack([self.variances,
                                    np.full((added, self.feature_dim), self.eps_var)])
        self.pseudo_inputs = np.vstack([self.pseudo_inputs, *picks])
        self.labels = np.concatenate([self.labels, np.repeat(list(shots), k).astype(int)])
        self.ages = np.pad(self.ages, ((0, added), (0, added)))
        self.session += 1

    def refresh_anchors(self, features: np.ndarray) -> None:
        """Move every centroid onto its pseudo input's feature under the current
        extractor: m <- f(z), from the (N, n) encodings of the (N, d) pseudo inputs."""
        self.centroids[:] = self._block(features, rows=(len(self), "nodes"))

    def quantization_error(self, features: np.ndarray) -> float:
        """Mean Euclidean distance from each feature to its winner centroid."""
        features = self._block(features)
        if features.shape[0] == 0:
            raise InputError("quantization error needs at least one feature")
        return float(nearest(features, self.centroids)[1].mean())

    def _check(self, error: type) -> None:
        """Raise `error`, naming the field, for the first rule of a valid graph this
        state breaks: at least one node, feature column and pseudo-input column; the
        shapes below; integer dtypes int64 holds (ages bool too), so no cast changes a
        value; finite float arrays; no variance below eps_var, a floor with a finite
        reciprocal; ages symmetric, zero on the diagonal and within 0..lifetime (as
        `edge_update` reads only the winners' rows); origins from 1 up to the session."""
        if 0 in self.centroids.shape[:2] + self.pseudo_inputs.shape[1:2]:
            raise error("a graph needs at least one node, feature column and pseudo-input column")
        if self.centroids.ndim != 2:
            raise error(f"centroids of shape {self.centroids.shape} are not 2-D")
        n, dim = self.centroids.shape
        for name, shape in (("variances", (n, dim)), ("pseudo_inputs", (n, None)),
                            ("labels", (n,)), ("origins", (n,)), ("ages", (n, n)),
                            ("lifetime", ()), ("session", ())):
            got = np.shape(getattr(self, name))
            if len(got) != len(shape) or any(w not in (None, g) for g, w in zip(got, shape)):
                raise error(f"{name} has shape {got}, expected {shape}".replace("None", "any"))
        for name in ("labels", "origins", "ages", "lifetime", "session"):
            if not _integral(getattr(self, name), "biu" if name == "ages" else "iu"):
                raise error(f"{name} must hold integers that int64 holds")
        for name in ("centroids", "variances", "pseudo_inputs"):
            if not np.isfinite(getattr(self, name)).all():
                raise error(f"{name} holds a non-finite value")
        try:
            check_variance_floor(self.eps_var)
        except InputError as exc:
            raise error(str(exc)) from None
        if np.any(self.variances < self.eps_var * (1 - 1e-12)):
            raise error(f"variances holds a value below the floor eps_var {self.eps_var}")
        if not 1 <= self.lifetime <= MAX_LIFETIME:
            raise error(f"lifetime must be between 1 and {MAX_LIFETIME}, got {self.lifetime}")
        if not np.array_equal(self.ages, self.ages.T):
            raise error("ages is not symmetric")
        if np.any(np.diagonal(self.ages)):
            raise error("ages has a non-zero diagonal: self-edges are not allowed")
        if np.any(self.ages < 0) or np.any(self.ages > self.lifetime):
            raise error(f"ages holds an age below 0 or above the lifetime {self.lifetime}")
        if self.session < 1 or np.any(self.origins < 1):
            raise error(f"session {self.session} or an origin is outside 1..{INT64.max}")
        if np.any(self.origins > self.session):
            raise error(f"origins holds a session after the current session {self.session}")

    def check_invariants(self) -> None:
        """Raise StateError for the first rule of a valid graph (`_check`) this state breaks."""
        self._check(StateError)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Human-readable checkpoint; versioned, exact float round-trip.

        Edges are listed by their lower index, then their higher one, each
        with its age; pairs of age 0 have no edge and are not listed.
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
            lines.append("z " + " ".join(repr(float(v)) for v in self.pseudo_inputs[j]))
        pairs = np.argwhere(np.triu(self.ages, 1)).tolist()
        lines.append(f"edges {len(pairs)}")
        lines.extend(f"{i} {j} {self.ages[i, j]}" for i, j in pairs)
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "NGGraph":
        """Parse a to_text checkpoint; anything malformed raises InputError: a syntax fault
        with its line number, a graph that breaks a rule as NGGraph(...) raises it."""
        lines = text.splitlines()
        if not lines or lines[0] != FORMAT_HEADER:
            raise InputError(f"not a recognized graph checkpoint (expected '{FORMAT_HEADER}')")
        pos = 1

        def bad(why: str) -> InputError:
            return InputError(f"malformed checkpoint at line {pos}: {why}")

        def take(prefix: str | None, count: int | None = 1) -> list:
            """Words of the next line after `prefix`: exactly count, or any number."""
            nonlocal pos
            pos += 1
            words = lines[pos - 1].split() if pos <= len(lines) else []
            if prefix is not None:
                if words[:1] != [prefix]:
                    raise bad(f"expected '{prefix} ...'")
                words = words[1:]
            if count is not None and len(words) != count:
                raise bad(f"expected {count} values")
            return words

        def numbers(words: list, kind=int) -> list:
            try:
                values = [_number_word(w, kind) for w in words]
            except ValueError:
                raise bad(f"expected {kind.__name__} values") from None
            if kind is int and not all(INT64.min <= v <= INT64.max for v in values):
                raise bad("integer outside int64")
            return values

        (lifetime,), (session,) = numbers(take("lifetime")), numbers(take("session"))
        (eps_var,), (count,) = numbers(take("eps_var"), float), numbers(take("nodes"))
        heads, centroids, variances, pseudo = [], [], [], []
        for j in range(count):
            head = take("node", 5)
            if head[0] != str(j) or head[1::2] != ["label", "origin"]:
                raise bad(f"expected 'node {j} label <int> origin <int>'")
            heads.append(numbers(head[2::2]))
            centroids.append(numbers(take("m", len(centroids[0]) if centroids else None), float))
            variances.append(numbers(take("var", len(centroids[0])), float))
            pseudo.append(numbers(take("z", len(pseudo[0]) if pseudo else None), float))
        (edge_count,) = numbers(take("edges"))
        if edge_count < 0:
            raise bad("negative edge count")
        labels, origins = np.array(heads).reshape(-1, 2).T
        graph = NGGraph(np.array(centroids), np.array(variances), np.array(pseudo),
                        labels, origins, lifetime, eps_var, session)
        for _ in range(edge_count):
            i, j, age = numbers(take(None, 3))
            if not 0 <= i < j < count or graph.ages[i, j]:
                raise bad("an edge must join two in-range nodes once, lower index first")
            if age < 1:
                raise bad(f"edge age {age} is below 1")
            if age > lifetime:  # checked before it is narrowed to the age dtype
                raise bad(f"edge age {age} is above the lifetime {lifetime}")
            graph.ages[i, j] = graph.ages[j, i] = age
        if pos != len(lines):
            raise InputError(f"malformed checkpoint: trailing content after line {pos}")
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


def init_graph(features: np.ndarray, inputs: np.ndarray, labels, node_count: int,
               lifetime: int, eps_var: float, seed: int) -> NGGraph:
    """Start a graph from node_count distinct feature vectors, no edges.

    The sampled rows' inputs and labels seed the pseudo inputs and node
    labels; assign_pseudo_exemplars replaces both after training.
    """
    features, inputs = np.asarray(features, dtype=float), np.asarray(inputs, dtype=float)
    labels = np.asarray(labels)  # cast by NGGraph, which refuses labels that are not integers
    if not node_count <= len(features) == len(inputs) == len(labels):
        raise InputError(f"cannot sample {node_count} nodes from {len(features)} features, "
                         f"{len(inputs)} inputs and {len(labels)} labels")
    rng = np.random.default_rng([seed, 0x1419])
    idx = rng.choice(features.shape[0], size=node_count, replace=False)
    return NGGraph(features[idx], np.full((node_count, features.shape[1]), eps_var),
                   inputs[idx], labels[idx], np.ones(node_count, dtype=int), lifetime, eps_var)


def train_on_features(graph: NGGraph, features: np.ndarray, eta: float,
                      alpha: float, passes: int, seed: int) -> None:
    """Run shuffled competitive-Hebbian sweeps over the feature set.

    Each presented feature ranks the nodes, moves centroids, and refreshes
    the winner-pair edge.  A sweep presents its permutation in chunks of
    SWEEP_BLOCK rows, so it never copies the whole feature set; a presentation
    gives the same bits for any split of its rows into calls.
    """
    if passes < 1:
        raise InputError(f"need at least one pass, got {passes}")
    features = np.asarray(features, dtype=float)
    rng = np.random.default_rng([seed, 0x7A41])
    for _ in range(passes):
        order = rng.permutation(features.shape[0])
        for start in range(0, max(len(order), 1), SWEEP_BLOCK):  # an empty set is still checked
            graph.present(features[order[start:start + SWEEP_BLOCK]], eta, alpha)
