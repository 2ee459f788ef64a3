"""One probe state per served AKNN bucket: the count pins and the parity.

A coalesced bucket of many is the lazy probe over the whole partition set: a
bootstrap that reads nothing, one traversal per part, one rank test over the
bucket and one probe pass.  These tests pin what that buys and what it must
not change:

* **every object access buys a distance** — the store is read only for
  objects that enter an exact-distance evaluation, and an ``lb_lp_ub``
  bucket reads fewer objects than its traversals let through;
* each query is prepared once per bucket, and every evaluation is reported
  in the results;
* ``batch_candidates`` counts the pairs an executor examined, not its memo,
  and an AKNN bucket runs no executor at all;
* the vectorised candidate gather returns exactly what the per-(leaf, query)
  loop it replaced returned (the loop is kept *here* as the reference);
* answers equal the unsharded engine's and the brute-force reference's: the
  id set (ties at the k-th rank breaking by object id), every probed
  distance, and bounds around every distance the bounds confirmed.
"""

import functools
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.executor as executor_module
import repro.reference as brute_force
from repro.config import RuntimeConfig
from repro.core.database import FuzzyDatabase
from repro.core.executor import (
    BatchQueryExecutor,
    RepresentativeIndex,
    aknn_bucket_pass,
    shared_traversal,
)
from repro.core import reverse_nn as reverse_module
from repro.core.query import PreparedQuery
from repro.core.requests import AknnRequest, ReverseRequest
from repro.datasets.builder import build_dataset
from repro.datasets.queries import generate_query_object
from repro.exceptions import InvalidQueryError
from repro.fuzzy.fuzzy_object import FuzzyObject
from repro.fuzzy.summary import build_summary
from repro.index.rtree import RTree
from repro.index.soa import min_dist_to_boxes
from repro.metrics.counters import MetricsCollector
from repro.service import ShardedDatabase

from tests.conftest import make_fuzzy_object, stored_objects

ALPHA = 0.5
N_TWINS = 12


@pytest.fixture(scope="module")
def objects():
    """90 synthetic objects plus 12 exact twins under higher ids.

    A twin sits at exactly its original's distance from every query, so
    distance ties — also at the k-th rank, also across shards — are the rule
    here, not a corner.
    """
    base = build_dataset(
        kind="synthetic", n_objects=90, points_per_object=24, seed=31, space_size=9.0
    )
    twins = [
        FuzzyObject(obj.points.copy(), obj.memberships.copy(), object_id=1000 + i)
        for i, obj in enumerate(base[:N_TWINS])
    ]
    return base + twins


@pytest.fixture(scope="module")
def config():
    return RuntimeConfig(rtree_max_entries=8, cache_capacity=32)


@pytest.fixture(scope="module")
def reference(objects, config):
    database = FuzzyDatabase.build(list(objects), config=config)
    yield database
    database.close()


@pytest.fixture(scope="module")
def query_pool():
    rng = np.random.default_rng(404)
    return [
        generate_query_object(rng, kind="synthetic", space_size=9.0, points_per_object=24)
        for _ in range(20)
    ]


def bucket_of(query_pool, size):
    """``size`` queries; past the pool's 20 the same query objects come again."""
    return [query_pool[i % len(query_pool)] for i in range(size)]


def requests_for(queries, k, method="lb_lp_ub"):
    return [AknnRequest(q, k=k, alpha=ALPHA, method=method) for q in queries]


def one_part_bucket(database, queries, k):
    """An AKNN bucket through ``aknn_bucket_pass`` over a set of one, with
    every distance exact (``lb`` probes each neighbour)."""
    return aknn_bucket_pass(
        RepresentativeIndex(), [database], lambda op, fn: [fn(database)],
        queries, k, ALPHA, "lb", database.config, MetricsCollector(),
    )


def kth_distances(results):
    return np.array([r.neighbors[-1].distance for r in results])


def answers(results):
    """Ids and distances, in returned order — compared with ``==``."""
    return [[(n.object_id, n.distance) for n in r.neighbors] for r in results]


class ProbeLog:
    """What one bucket's passes handed to the exact-distance kernel.

    A *pass* is the bootstrap or one of the bucket's two ``probe_rows``
    passes; a bucket reads each object once, so every object has one
    alpha-cut array across the passes and distinct arrays are distinct
    objects (the arrays are kept alive here, so ``id`` cannot be reused).  ``survivors`` collects the distinct objects some query's
    traversal let through, ``radii`` what each bootstrap returned.
    """

    def __init__(self, monkeypatch):
        self.passes = []
        self.handed = 0
        self.radii = []
        self.survivors = set()
        self.prepared = 0
        log = self

        kernel = executor_module._exact_min_distances

        def counted_kernel(query_cut, cuts):
            log.handed += len(cuts)
            log.passes[-1].update((id(cut), cut) for cut in cuts)
            return kernel(query_cut, cuts)

        monkeypatch.setattr(executor_module, "_exact_min_distances", counted_kernel)

        bootstrap = executor_module.bootstrap_radii

        def logged_bootstrap(*args, **kwargs):
            log.passes.append({})
            tau = bootstrap(*args, **kwargs)
            log.radii.append(tau)
            return tau

        # The bootstrap and the probe passes, as the partition-set bucket
        # pass reaches them.
        monkeypatch.setattr(executor_module, "bootstrap_radii", logged_bootstrap)

        probe_rows = executor_module.probe_rows

        def logged_probe(*args, **kwargs):
            log.passes.append({})
            return probe_rows(*args, **kwargs)

        monkeypatch.setattr(executor_module, "probe_rows", logged_probe)

        traversal = executor_module.shared_traversal

        def logged_traversal(*args, **kwargs):
            per_query = traversal(*args, **kwargs)
            for ids in per_query:
                log.survivors.update(ids.tolist())
            return per_query

        monkeypatch.setattr(executor_module, "shared_traversal", logged_traversal)

        prepare = PreparedQuery.__init__

        def counted_prepare(self, *args, **kwargs):
            log.prepared += 1
            prepare(self, *args, **kwargs)

        monkeypatch.setattr(PreparedQuery, "__init__", counted_prepare)

    @property
    def objects_probed(self):
        return len({key for cuts in self.passes for key in cuts})


def store_accesses(sharded):
    return sum(
        shard.db.store.statistics.object_accesses for shard in sharded._shards
    )


# ----------------------------------------------------------------------
# Every access buys a distance
# ----------------------------------------------------------------------
class TestEveryAccessBuysADistance:
    @pytest.mark.parametrize("placement", ["hash", "space"])
    @pytest.mark.parametrize("n_shards", [2, 3])
    @pytest.mark.parametrize("size", [2, 8, 64])
    def test_store_reads_equal_objects_probed(
        self, objects, config, reference, query_pool, monkeypatch,
        placement, n_shards, size,
    ):
        sharded = ShardedDatabase.build(
            list(objects), n_shards=n_shards, placement=placement, config=config
        )
        queries = bucket_of(query_pool, size)
        want = answers(reference.execute_batch(requests_for(queries, k=7)))
        log = ProbeLog(monkeypatch)
        before = store_accesses(sharded)
        got = sharded.execute_batch(requests_for(queries, k=7))
        accesses = store_accesses(sharded) - before

        # a bootstrap that reads nothing, then two probe passes over every shard
        assert len(log.passes) == 3
        assert log.passes[0] == {}
        assert accesses == log.objects_probed
        assert accesses > 0
        # the bounds settle some survivors: fewer reads than candidates
        assert accesses < len(log.survivors)
        # one PreparedQuery per query for the whole bucket, whatever the fan-out
        assert log.prepared == size
        # nothing answered beyond the radius the bucket pruned at
        (radii,) = log.radii
        assert all(
            neighbor.best_known_distance <= radius
            for result, radius in zip(got, radii)
            for neighbor in result.neighbors
        )
        # every evaluated distance is reported
        assert sum(r.stats.distance_evaluations for r in got) == log.handed
        assert answers(got) == want
        sharded.close()

    def test_fully_seeded_executor_never_reads_the_store(self, reference, query_pool):
        """Seeds covering every candidate: zero ``store.get``, same answer."""
        queries = query_pool[:6]
        executor = BatchQueryExecutor(reference.store, reference.tree, reference.config)
        plain = one_part_bucket(reference, queries, k=5)
        seeds = []
        for query in queries:
            scan = brute_force.aknn(stored_objects(reference), query, len(reference), ALPHA)
            seeds.append(dict(scan))
        radii = kth_distances(plain)

        before = reference.store.statistics.object_accesses
        seeded = executor.aknn_batch(
            queries, k=5, alpha=ALPHA, initial_tau=radii, initial_exact=seeds
        )
        assert reference.store.statistics.object_accesses == before
        assert seeded.stats.object_accesses == 0
        assert seeded.stats.distance_evaluations == 0
        assert [r.object_ids for r in seeded.results] == [
            r.object_ids for r in plain
        ]

    def test_results_under_a_radius_lie_within_it(self, reference, query_pool):
        """A deliberately small radius truncates the list — at the radius."""
        queries = query_pool[:6]
        executor = BatchQueryExecutor(reference.store, reference.tree, reference.config)
        full = one_part_bucket(reference, queries, k=9)
        # the 3rd neighbour's distance: the top-9 must shrink to the ties at it
        radii = np.array([r.neighbors[2].distance for r in full])
        cut = executor.aknn_batch(queries, k=9, alpha=ALPHA, initial_tau=radii).results
        for want, radius, got in zip(full, radii, cut):
            within = [n for n in want.neighbors if n.distance <= radius]
            assert 3 <= len(within) < 9
            assert got.neighbors == within


# ----------------------------------------------------------------------
# Parity on the awkward buckets
# ----------------------------------------------------------------------
class TestServedAnswersAreExact:
    @pytest.fixture(scope="class")
    def sharded(self, objects, config):
        database = ShardedDatabase.build(
            list(objects), n_shards=3, placement="hash", config=config
        )
        yield database
        database.close()

    def check(self, sharded, reference, queries, k, method="lb_lp_ub"):
        """Both engines give one answer, and it is the brute-force one: the
        id set (ties by id), every probed distance, bounds around every
        other.  Returns how many neighbours the bounds confirmed."""
        got = sharded.execute_batch(requests_for(queries, k, method))
        want = reference.execute_batch(requests_for(queries, k, method))
        assert answers(got) == answers(want)
        confirmed = 0
        for query, result in zip(queries, got):
            exact = dict(brute_force.aknn(stored_objects(reference), query, len(reference), ALPHA))
            ranked = brute_force.aknn(stored_objects(reference), query, k, ALPHA)
            assert sorted(result.object_ids) == sorted(object_id for object_id, _ in ranked)
            for neighbor in result.neighbors:
                d_alpha = exact[neighbor.object_id]
                if neighbor.probed:
                    assert neighbor.distance == pytest.approx(d_alpha, abs=1e-12)
                else:
                    confirmed += 1
                    assert neighbor.distance is None
                    assert neighbor.lower_bound <= d_alpha <= neighbor.upper_bound
            # nearest first by best known distance, then id
            assert result.neighbors == result.sorted_by_distance()
        if method in ("basic", "lb"):
            assert confirmed == 0
        return confirmed

    def test_same_query_object_twice(self, sharded, reference, query_pool):
        queries = [query_pool[0], query_pool[1], query_pool[0], query_pool[0]]
        assert self.check(sharded, reference, queries, k=6) > 0

    def test_ties_at_the_kth_rank_break_by_object_id(self, sharded, reference, objects):
        """Query = a twinned object: ranks 1-2 tie at zero, and so on outward."""
        queries = [objects[i] for i in range(4)]
        confirmed = [self.check(sharded, reference, queries, k=k) for k in (1, 2, 3)]
        # bounds cannot split the exact tie at rank 1, so both twins are
        # probed and the id decides; at k >= 2 both are certainly in
        assert confirmed[0] == 0 < confirmed[1]
        first = sharded.execute_batch(requests_for(queries[:2], k=1))
        assert [r.object_ids for r in first] == [[0], [1]]  # never the twin 1000+i

    def test_k_larger_than_a_shard(self, sharded, reference, query_pool):
        assert max(sharded.shard_sizes()) < 60
        assert self.check(sharded, reference, query_pool[:5], k=60) > 0

    @pytest.mark.parametrize("extra", [0, 7])
    def test_k_at_least_n(self, sharded, reference, query_pool, extra):
        """No usable radius: ``tau = inf``, every object is a candidate, and
        the bounds confirm every one of them without a read."""
        before = store_accesses(sharded)
        confirmed = self.check(sharded, reference, query_pool[:3], k=len(reference) + extra)
        assert confirmed == 3 * len(reference)
        assert store_accesses(sharded) == before

    def test_basic_method(self, sharded, reference, query_pool):
        self.check(sharded, reference, query_pool[:9], k=7, method="basic")

    def test_k_at_least_n_leaves_the_radii_infinite(
        self, sharded, reference, query_pool, monkeypatch
    ):
        """Too few objects to bootstrap: the executor's branch, on both engines."""
        radii = []
        bootstrap = executor_module.bootstrap_radii

        def logged(*args, **kwargs):
            tau = bootstrap(*args, **kwargs)
            radii.append(tau.tolist())
            return tau

        monkeypatch.setattr(executor_module, "bootstrap_radii", logged)
        queries = query_pool[:3]
        n = len(reference)
        for engine in (sharded, reference):
            got = engine.execute_batch(requests_for(queries, k=n + 1))
            assert [sorted(r.object_ids) for r in got] == [sorted(reference.object_ids())] * 3
        assert radii == [[np.inf] * 3] * 2


# ----------------------------------------------------------------------
# The representative index follows the set it covers
# ----------------------------------------------------------------------
class TestRepresentativeIndexFollowsItsTrees:
    """What protects a bucket from nominating through a stale index."""

    @pytest.fixture
    def trees(self):
        pool = summary_pool()
        return [RTree.bulk_load(pool[:20], max_entries=4),
                RTree.bulk_load(pool[20:45], max_entries=4)]

    @pytest.mark.parametrize("n_trees", [1, 2])
    def test_rebuilds_on_every_change_and_only_then(self, trees, n_trees):
        trees = trees[:n_trees]
        spare = summary_pool()[50]
        index = RepresentativeIndex()

        def covered():
            kdtree, object_ids = index.over(trees)
            assert kdtree.n == object_ids.shape[0] == sum(len(t) for t in trees)
            # the leaf views' ids, member after member, in the same order
            assert object_ids.tolist() == [
                object_id
                for tree in trees
                for view in tree.leaf_views()
                for object_id in view.object_ids.tolist()
            ]
            return kdtree

        first = covered()
        assert covered() is first  # nothing changed: the same KD-tree object
        trees[-1].insert(spare)
        after_insert = covered()
        assert after_insert is not first
        trees[-1].delete(spare.object_id)  # the size is back where it was
        after_pair = covered()
        assert after_pair is not after_insert
        trees[0].delete(min(min(v.object_ids.tolist()) for v in trees[0].leaf_views()))
        after_delete = covered()
        assert after_delete is not after_pair
        assert covered() is after_delete

    def test_rebuilds_when_the_covered_set_shrinks(self, trees):
        index = RepresentativeIndex()
        both = index.over(trees)
        assert index.over(trees)[0] is both[0]
        survivor = index.over(trees[1:])
        assert survivor[0] is not both[0]
        assert survivor[0].n == len(trees[1])
        assert set(survivor[1].tolist()) == {
            object_id for view in trees[1].leaf_views() for object_id in view.object_ids.tolist()
        }
        assert index.over(trees)[0] is not survivor[0]

    def test_a_table_built_for_a_replaced_version_is_not_written_back(
        self, trees, monkeypatch
    ):
        """Another batch swaps in the index of a newer set while this one
        builds its bound table: the newer KD-tree must stay cached."""
        index = RepresentativeIndex()
        index.over(trees)
        newer = []
        leaf_views = trees[0].leaf_views

        def meanwhile():
            newer.append(index.over(trees[1:])[0])
            return leaf_views()

        monkeypatch.setattr(trees[0], "leaf_views", meanwhile)
        table = index.bounds(trees, ALPHA)
        assert table.lo.shape[0] == len(trees[0]) + len(trees[1])
        assert index.over(trees[1:])[0] is newer[0]


# ----------------------------------------------------------------------
# batch_candidates counts examined pairs
# ----------------------------------------------------------------------
class TestBatchCandidates:
    @pytest.fixture
    def survivors(self, monkeypatch):
        """Per traversal: the (query, object) pairs it let through, and the
        distinct objects among them."""
        seen = []
        traversal = executor_module.shared_traversal

        def logged(*args, **kwargs):
            per_query = traversal(*args, **kwargs)
            seen.append((
                sum(ids.shape[0] for ids in per_query),
                set(np.concatenate(per_query).tolist()),
            ))
            return per_query

        monkeypatch.setattr(executor_module, "shared_traversal", logged)
        return seen

    def test_shards_count_their_own_survivors_not_the_shared_memo(
        self, objects, config, reference, query_pool, survivors, monkeypatch
    ):
        sharded = ShardedDatabase.build(
            list(objects), n_shards=2, placement="hash", config=config
        )
        counted = []
        aknn_batch = BatchQueryExecutor.aknn_batch

        def logged(self, *args, **kwargs):
            batch = aknn_batch(self, *args, **kwargs)
            counted.append(batch.stats.extra["batch_candidates"])
            return batch

        monkeypatch.setattr(BatchQueryExecutor, "aknn_batch", logged)
        # An AKNN bucket runs no executor: one traversal per shard, then the
        # probe passes.  basic reads every survivor; lb reads fewer, the
        # survivors its probed distances drop, and reports every neighbour
        # probed; lb_lp_ub reads fewer still, its bounds confirming others.
        for method in ("basic", "lb", "lb_lp_ub"):
            survivors.clear()
            before = store_accesses(sharded)
            results = sharded.execute_batch(requests_for(query_pool[:8], 5, method))
            reads = store_accesses(sharded) - before
            assert counted == [] and len(survivors) == 2
            distinct = len(set().union(*(ids for _, ids in survivors)))
            probed = [n.probed for r in results for n in r.neighbors]
            if method == "basic":
                assert reads == distinct and all(probed)
            else:
                assert reads < distinct and all(probed) == (method == "lb")
        # A reverse bucket runs no executor either: one traversal per shard
        # around its candidates, then it reads only what a count leaves
        # open, fewer objects than the traversals found.
        found = []
        around = reverse_module.shared_traversal

        def logged_around(*args, **kwargs):
            hits = around(*args, **kwargs)
            found.append(set(hits[1].tolist()))
            return hits

        monkeypatch.setattr(reverse_module, "shared_traversal", logged_around)
        before = store_accesses(sharded)
        sharded.execute_batch(
            [ReverseRequest(q, k=3, alpha=ALPHA) for q in query_pool[:4]]
        )
        reads = store_accesses(sharded) - before
        assert counted == [] and len(found) == 2
        assert 0 < reads < len(set().union(*found))
        sharded.close()


# ----------------------------------------------------------------------
# Prepared queries are shared, not re-made and not charged
# ----------------------------------------------------------------------
class TestPreparedQueriesAreReused:
    def test_executor_accepts_prepared_and_raw_queries_alike(self, reference, query_pool):
        executor = BatchQueryExecutor(reference.store, reference.tree, reference.config)
        queries = query_pool[:5]
        radii = kth_distances(one_part_bucket(reference, queries, k=4))
        raw = executor.aknn_batch(queries, k=4, alpha=ALPHA, initial_tau=radii)
        prepared = [PreparedQuery(q, ALPHA, reference.config) for q in queries]
        mixed = executor.aknn_batch(
            prepared[:3] + queries[3:], k=4, alpha=ALPHA, initial_tau=radii
        )
        assert answers(mixed.results) == answers(raw.results)
        assert [r.stats.distance_evaluations for r in mixed.results] == [
            r.stats.distance_evaluations for r in raw.results
        ]
        # the executor charges its own per-query collectors: a shared
        # PreparedQuery accumulates nothing, however many executors use it
        assert all(
            p.metrics.get(MetricsCollector.DISTANCE_EVALUATIONS) == 0 for p in prepared
        )

    def test_prepared_query_at_another_alpha_is_rejected(self, reference, query_pool):
        prepared = [PreparedQuery(query_pool[0], 0.8, reference.config)]
        with pytest.raises(InvalidQueryError):
            BatchQueryExecutor(reference.store, reference.tree, reference.config).aknn_batch(
                prepared, k=3, alpha=ALPHA, initial_tau=np.array([np.inf])
            )

    def test_aknn_batch_signature_is_the_parents(self):
        assert list(inspect.signature(BatchQueryExecutor.aknn_batch).parameters) == [
            "self", "queries", "k", "alpha", "method",
            "initial_tau", "initial_exact", "deadline",
        ]


# ----------------------------------------------------------------------
# The vectorised gather equals the loop it replaces
# ----------------------------------------------------------------------
def gather_by_loop(tree, alpha, improved, q_lo, q_hi, tau):
    """``shared_traversal`` as it was before its gather was vectorised,
    verbatim but for the names (and the prune slack, gone from both).

    One Python iteration per (leaf, active query), ``mask.any()`` + a copy
    each; kept as the reference the vectorised gather must reproduce.
    """
    metrics = MetricsCollector()
    n_queries = q_lo.shape[0]
    candidates = [[] for _ in range(n_queries)]
    stack = [(tree.root, np.arange(n_queries))]
    while stack:
        node, active = stack.pop()
        metrics.increment(MetricsCollector.NODE_ACCESSES)
        if not node.entries:
            continue
        soa = node.soa()
        if node.is_leaf:
            if improved:
                box_lo, box_hi = soa.approx_alpha_bounds(alpha)
            else:
                box_lo, box_hi = soa.lo, soa.hi
            lb = min_dist_to_boxes(q_lo[active], q_hi[active], box_lo, box_hi)
            metrics.increment(
                MetricsCollector.LOWER_BOUND_EVALUATIONS, int(active.shape[0]) * soa.n
            )
            survivors = lb <= tau[active, None]
            object_ids = soa.object_ids
            for row, qi in enumerate(active.tolist()):
                mask = survivors[row]
                if mask.any():
                    candidates[qi].append(object_ids[mask].copy())
        else:
            child_dists = soa.min_dist(q_lo[active], q_hi[active])
            reachable = child_dists <= tau[active, None]
            keep = reachable.any(axis=0)
            for j, entry in enumerate(node.entries):
                if keep[j]:
                    stack.append((entry.child, active[reachable[:, j]]))
                else:
                    metrics.increment(MetricsCollector.NODES_PRUNED)
    per_query = [
        np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
        for blocks in candidates
    ]
    return per_query, metrics


@functools.lru_cache(maxsize=None)
def summary_pool():
    """30 summaries and an exact twin of each (same boxes, another id).

    A cached function, not a fixture: hypothesis prints every argument of a
    failing example, and 60 summaries would bury the ones that matter.
    """
    rng = np.random.default_rng(5)
    originals = [make_fuzzy_object(rng, n_points=8, object_id=i) for i in range(30)]
    twins = [
        FuzzyObject(o.points.copy(), o.memberships.copy(), object_id=100 + o.object_id)
        for o in originals
    ]
    return [build_summary(obj) for obj in originals + twins]


COUNTERS = (
    MetricsCollector.NODE_ACCESSES,
    MetricsCollector.NODES_PRUNED,
    MetricsCollector.LOWER_BOUND_EVALUATIONS,
)

RADII = st.one_of(
    st.sampled_from([0.0, np.inf]),
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
)


# At 4 entries a node: one, two and three levels when bulk-loaded, each as likely.
MEMBERS = st.sampled_from([(1, 4), (5, 16), (17, 60)]).flatmap(
    lambda size: st.lists(
        st.integers(0, 59), min_size=size[0], max_size=size[1], unique=True
    )
)


class TestGatherEqualsTheLoop:
    @given(
        members=MEMBERS,
        bulk=st.booleans(),
        improved=st.booleans(),
        alpha=st.sampled_from([0.2, 0.5, 1.0]),
        corners=st.lists(
            st.tuples(
                st.floats(-4.0, 14.0), st.floats(-4.0, 14.0),
                st.floats(0.0, 3.0), st.floats(0.0, 3.0), RADII,
            ),
            min_size=1, max_size=40,
        ),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_ids_same_order_same_counts(
        self, members, bulk, improved, alpha, corners, data
    ):
        chosen = [summary_pool()[i] for i in members]
        if bulk:
            tree = RTree.bulk_load(chosen, max_entries=4)
        else:
            tree = RTree(max_entries=4)
            for summary in chosen:
                tree.insert(summary)
        assert 1 <= tree.height <= 4

        q_lo = np.array([[x, y] for x, y, _, _, _ in corners])
        q_hi = q_lo + np.array([[w, h] for _, _, w, h, _ in corners])
        tau = np.array([radius for *_, radius in corners])
        if data.draw(st.booleans(), label="one query far away, radius 0"):
            q_lo[0] = q_hi[0] = [1e6, 1e6]
            tau[0] = 0.0

        want, want_metrics = gather_by_loop(tree, alpha, improved, q_lo, q_hi, tau)
        got_metrics = MetricsCollector()
        got = shared_traversal(tree, alpha, improved, q_lo, q_hi, tau, got_metrics)

        assert len(got) == len(want) == q_lo.shape[0]
        for got_ids, want_ids in zip(got, want):
            assert got_ids.dtype == want_ids.dtype
            assert got_ids.tolist() == want_ids.tolist()
        for counter in COUNTERS:
            assert got_metrics.get(counter) == want_metrics.get(counter)
        if tau[0] == 0.0 and q_lo[0, 0] == 1e6:
            assert got[0].shape == (0,)

    def test_a_tree_with_no_leaf_hit_returns_empty_rows(self):
        tree = RTree.bulk_load(summary_pool()[:10], max_entries=4)
        far = np.full((3, 2), 1e6)
        got = shared_traversal(tree, 0.5, True, far, far, np.zeros(3), MetricsCollector())
        assert [ids.tolist() for ids in got] == [[], [], []]
