"""Supervised neural-gas graph over a feature space.

Nodes carry a centroid, a diagonal variance, a stored raw input (the
pseudo-exemplar) and a class label.  Topology is learned by competitive
Hebbian rules: every presented feature ranks all nodes by Euclidean
distance, centroids move with a rank-decayed step, and the winner pair
gains an edge while the winner's other edges age out past a lifetime.

Node state is kept in parallel arrays on the graph (centroids, variances,
labels, ...) so the update rules stay vectorized.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, StateError

log = logging.getLogger(__name__)

FORMAT_HEADER = "nggraph v1"
KMEANS_ITERS = 10


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
        if lifetime < 1:
            raise InputError(f"lifetime must be positive, got {lifetime}")
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

    def neighbors(self, j: int) -> np.ndarray:
        """Indices adjacent to j (edge indicator set)."""
        return np.flatnonzero(self.edges[j])

    # -- competitive Hebbian learning -------------------------------------

    def rank_nodes(self, f: np.ndarray) -> Ranking:
        """Rank all nodes by Euclidean distance to f, ascending, ties by index."""
        if len(self) == 0:
            raise StateError("cannot rank nodes of an empty graph")
        f = np.asarray(f, dtype=float)
        if f.shape != (self.feature_dim,):
            raise InputError(
                f"feature has shape {f.shape}, expected ({self.feature_dim},)")
        d = np.linalg.norm(self.centroids - f, axis=1)
        order = np.argsort(d, kind="stable")
        return Ranking(order, d[order])

    def hebbian_update(self, f: np.ndarray, eta: float, alpha: float,
                       updatable: np.ndarray | None = None) -> Ranking:
        """Move centroids toward f with the rank-decayed step eta*exp(-i/alpha).

        Rank positions i = 1..N-1 are updated and the farthest node is left
        alone; a single-node graph updates its winner (otherwise it could
        never learn).  `updatable` is a boolean mask over nodes; nodes
        outside it keep their centroids but still take part in the ranking.
        Returns the ranking so callers can chain the edge update.
        """
        if not 0.0 < eta <= 1.0:
            raise InputError(f"eta must be in (0, 1], got {eta}")
        if alpha <= 0.0:
            raise InputError(f"alpha must be positive, got {alpha}")
        ranking = self.rank_nodes(f)
        n = len(self)
        limit = n - 1 if n > 1 else 1
        idx = ranking.order[:limit]
        steps = eta * np.exp(-np.arange(1, limit + 1) / alpha)
        if updatable is not None:
            keep = np.asarray(updatable, dtype=bool)[idx]
            idx, steps = idx[keep], steps[keep]
        f = np.asarray(f, dtype=float)
        self.centroids[idx] += steps[:, None] * (f - self.centroids[idx])
        return ranking

    def edge_update(self, r1: int, r2: int) -> None:
        """Refresh the winner pair edge and age out the winner's other edges.

        Ages of all pairs (r1, j), j != r2 increase by one; any connected
        pair whose age now exceeds the lifetime loses its edge.  The (r1, r2)
        edge is then set with age 1.  Symmetry is maintained throughout and
        only pairs incident to r1 are touched.
        """
        if r1 == r2:
            raise InputError("edge update needs two distinct nodes")
        others = np.ones(len(self), dtype=bool)
        others[[r1, r2]] = False
        self.ages[r1, others] += 1
        self.ages[others, r1] = self.ages[r1, others]
        expired = others & self.edges[r1] & (self.ages[r1] > self.lifetime)
        self.edges[r1, expired] = False
        self.edges[expired, r1] = False
        self.ages[r1, r2] = self.ages[r2, r1] = 1
        self.edges[r1, r2] = self.edges[r2, r1] = True

    # -- node bookkeeping ---------------------------------------------------

    def assign_pseudo_exemplars(self, inputs, labels, feature_fn) -> None:
        """Store, per node, the raw training input whose feature is nearest m.

        The chosen sample's label becomes the node label.
        """
        if len(inputs) == 0:
            raise InputError("cannot assign pseudo-exemplars from an empty dataset")
        feats = np.stack([np.asarray(feature_fn(x), dtype=float) for x in inputs])
        for j in range(len(self)):
            best = int(np.argmin(np.linalg.norm(feats - self.centroids[j], axis=1)))
            self.pseudo_inputs[j] = np.asarray(inputs[best], dtype=float).copy()
            self.labels[j] = int(labels[best])

    def estimate_variances(self, features: np.ndarray,
                           node_indices=None) -> None:
        """Per-dimension population variance of each node's won features.

        A floor of eps_var is added everywhere; nodes winning at most one
        feature fall back to the floor alone.
        """
        features = np.asarray(features, dtype=float)
        targets = range(len(self)) if node_indices is None else node_indices
        floor = np.full(self.feature_dim, self.eps_var)
        if features.shape[0] == 0:
            for j in targets:
                self.variances[j] = floor
            return
        dists = np.linalg.norm(features[:, None, :] - self.centroids[None, :, :], axis=2)
        winners = np.argmin(dists, axis=1)
        for j in targets:
            won = features[winners == j]
            if won.shape[0] <= 1:
                self.variances[j] = floor
            else:
                self.variances[j] = won.var(axis=0) + self.eps_var

    def grow(self, class_samples: dict, k: int, session: int, seed: int = 0) -> None:
        """Insert k nodes per new class from its few-shot features.

        class_samples maps label -> (features (K, n), inputs (K, d)).  With
        k = 1 the centroid is the mean of the K shot features; with k > 1
        centroids come from a seeded k-means over the shots.  New nodes get
        the floor variance, the nearest shot as pseudo input, and no edges.
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
            centers = feats.mean(axis=0, keepdims=True) if k == 1 else _kmeans(feats, k, rng)
            for c in centers:
                nearest = int(np.argmin(np.linalg.norm(feats - c, axis=1)))
                new_centroids.append(c)
                new_inputs.append(np.asarray(inputs[nearest], dtype=float).copy())
                new_labels.append(int(label))
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

    def refresh_anchors(self, feature_fn) -> None:
        """Re-encode every pseudo input with the current extractor: m <- f(z)."""
        for j in range(len(self)):
            if self.pseudo_inputs[j] is None:
                raise StateError(f"node {j} has no pseudo input to re-encode")
            self.centroids[j] = np.asarray(feature_fn(self.pseudo_inputs[j]), dtype=float)

    def quantization_error(self, features: np.ndarray) -> float:
        """Mean Euclidean distance from each feature to its winner centroid."""
        features = np.asarray(features, dtype=float)
        if features.shape[0] == 0:
            raise InputError("quantization error needs at least one feature")
        dists = np.linalg.norm(features[:, None, :] - self.centroids[None, :, :], axis=2)
        return float(dists.min(axis=1).mean())

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
                values = [kind(w) for w in words]
            except ValueError:
                raise bad(f"expected {kind.__name__} values") from None
            if not all(math.isfinite(v) for v in values):
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
        assign = np.argmin(np.linalg.norm(points[:, None, :] - centers[None], axis=2), axis=1)
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
                      alpha: float, passes: int, seed: int) -> float:
    """Run shuffled competitive-Hebbian sweeps over the feature set.

    Each presented feature ranks the nodes, moves centroids, and refreshes
    the winner-pair edge.  Returns the final quantization error.
    """
    if passes < 1:
        raise InputError(f"need at least one pass, got {passes}")
    features = np.asarray(features, dtype=float)
    rng = np.random.default_rng([seed, 0x7A41])
    for _ in range(passes):
        for i in rng.permutation(features.shape[0]):
            ranking = graph.hebbian_update(features[i], eta, alpha)
            if len(graph) >= 2:
                graph.edge_update(ranking.winner, ranking.runner_up)
    qe = graph.quantization_error(features)
    log.info("neural gas trained: %d nodes, %d passes, quantization error %.6f",
             len(graph), passes, qe)
    return qe
