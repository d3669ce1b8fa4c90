"""Property-based tests (hypothesis) on the core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from repro.cache.sram import CacheConfig, SetAssocCache
from repro.core.mst import kruskal, tree_weight
from repro.core.syncgraph import SyncGraph
from repro.ir.expr import AffineIndex
from repro.ir.nested_sets import build_operand_tree
from repro.ir.parser import parse_statement
from repro.mem.address import AddressMapping
from repro.mem.page_alloc import PageAllocator
from repro.noc.routing import xy_route_links
from repro.noc.topology import Mesh2D
from repro.utils.union_find import UnionFind

meshes = st.builds(
    Mesh2D, st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8)
)


class TestMeshProperties:
    @given(meshes, st.data())
    @settings(max_examples=60, deadline=None)
    def test_distance_is_a_metric(self, mesh, data):
        node = st.integers(0, mesh.node_count - 1)
        a, b, c = data.draw(node), data.draw(node), data.draw(node)
        assert mesh.distance(a, b) == mesh.distance(b, a)
        assert mesh.distance(a, a) == 0
        assert mesh.distance(a, c) <= mesh.distance(a, b) + mesh.distance(b, c)

    @given(meshes, st.data())
    @settings(max_examples=60, deadline=None)
    def test_route_length_is_distance(self, mesh, data):
        node = st.integers(0, mesh.node_count - 1)
        src, dst = data.draw(node), data.draw(node)
        assert len(xy_route_links(mesh, src, dst)) == mesh.distance(src, dst)


class TestMstProperties:
    @given(meshes, st.data())
    @settings(max_examples=60, deadline=None)
    def test_spanning_and_bounded_by_star(self, mesh, data):
        count = data.draw(st.integers(2, min(7, mesh.node_count)))
        vertices = data.draw(
            st.lists(
                st.integers(0, mesh.node_count - 1),
                min_size=count, max_size=count, unique=True,
            )
        )
        edges = kruskal(vertices, mesh.distance)
        assert len(edges) == len(vertices) - 1
        # Connectivity via union-find replay.
        uf = UnionFind(vertices)
        for edge in edges:
            uf.union(edge.a, edge.b)
        assert uf.set_count == 1
        # Never worse than any star.
        for center in vertices:
            star = sum(mesh.distance(center, v) for v in vertices if v != center)
            assert tree_weight(edges) <= star


class TestUnionFindProperties:
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_connectivity_is_equivalence(self, pairs):
        uf = UnionFind()
        for a, b in pairs:
            uf.union(a, b)
        for a, b in pairs:
            assert uf.connected(a, b)
        # Transitivity through shared elements.
        for a, b in pairs:
            for c, d in pairs:
                if uf.connected(b, c):
                    assert uf.connected(a, d)


class TestPageAllocatorProperties:
    @given(st.lists(st.integers(0, 1 << 24), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_bits_preserved_for_any_addresses(self, addresses):
        mapping = AddressMapping.default()
        allocator = PageAllocator(mapping)
        for va in addresses:
            pa = allocator.translate(va)
            assert mapping.l2.bank_of(pa) == mapping.l2.bank_of(va)
            assert mapping.memory.channel_of(pa) == mapping.memory.channel_of(va)
            assert pa % 4096 == va % 4096

    @given(st.lists(st.integers(0, 1 << 22), min_size=2, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_translation_injective_on_pages(self, addresses):
        allocator = PageAllocator(AddressMapping.default())
        frames = {}
        for va in addresses:
            page = va // 4096
            frame = allocator.translate_page(page).physical_frame
            if page in frames:
                assert frames[page] == frame
            else:
                assert frame not in frames.values()
                frames[page] = frame


class _ReferenceLRU:
    """Per-set true-LRU model on plain lists (index 0 = least recent)."""

    def __init__(self, set_count, ways):
        self.set_count = set_count
        self.ways = ways
        self.clear()

    def clear(self):
        self.sets = [[] for _ in range(self.set_count)]
        self.hits = self.misses = self.evictions = 0

    def _touch(self, block):
        ways = self.sets[block % self.set_count]
        if block in ways:
            ways.remove(block)
            ways.append(block)
            return True
        if len(ways) == self.ways:
            ways.pop(0)
            self.evictions += 1
        ways.append(block)
        return False

    def access(self, block):
        hit = self._touch(block)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def contains(self, block):
        return block in self.sets[block % self.set_count]

    def fill(self, block):
        self._touch(block)

    def invalidate(self, block):
        ways = self.sets[block % self.set_count]
        if block in ways:
            ways.remove(block)
            return True
        return False

    def resident_blocks(self):
        return [block for ways in self.sets for block in ways]


#: 1024 sets of 4 ways.  Half the drawn blocks crowd two sets, so those
#: sets overflow and evict; the rest scatter over the whole index range.
_DIFF_CONFIG = CacheConfig(1 << 18, 4, 64)
_diff_blocks = st.builds(
    lambda index, tag: index + _DIFF_CONFIG.set_count * tag,
    st.one_of(st.integers(0, 1), st.integers(0, _DIFF_CONFIG.set_count - 1)),
    st.integers(0, 7),
)
#: Call mix: ``clear`` is one draw in 16, so most runs overflow the hot
#: sets between clears.
_cache_calls = st.sampled_from(
    ["access"] * 6 + ["contains"] * 3 + ["fill"] * 3 + ["invalidate"] * 3 + ["clear"]
)


class _CacheVsModel(RuleBasedStateMachine):
    """Drives a many-set cache and the list model through the same calls."""

    def __init__(self):
        super().__init__()
        self.cache = SetAssocCache(_DIFF_CONFIG)
        self.model = _ReferenceLRU(_DIFF_CONFIG.set_count, _DIFF_CONFIG.associativity)

    @rule(op=_cache_calls, block=_diff_blocks)
    def call(self, op, block):
        args = () if op == "clear" else (block,)
        assert getattr(self.cache, op)(*args) == getattr(self.model, op)(*args)

    @invariant()
    def same_state(self):
        assert (self.cache.hits, self.cache.misses, self.cache.evictions) == (
            self.model.hits, self.model.misses, self.model.evictions
        )
        assert sorted(self.cache.resident_blocks()) == sorted(self.model.resident_blocks())


class TestCacheProperties:
    def test_matches_list_lru_model(self):
        run_state_machine_as_test(
            _CacheVsModel,
            settings=settings(max_examples=40, stateful_step_count=120, deadline=None),
        )

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_counters_consistent(self, blocks):
        cache = SetAssocCache(CacheConfig(1024, 2, 64))
        for block in blocks:
            cache.access(block)
        assert cache.hits + cache.misses == len(blocks)
        assert len(cache.resident_blocks()) <= cache.config.line_count

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_small_working_set_eventually_hits(self, blocks):
        cache = SetAssocCache(CacheConfig(4096, 4, 64))  # 64 lines: fits 0..15
        for block in blocks:
            cache.access(block)
        for block in set(blocks):
            assert cache.contains(block)


class TestAffineProperties:
    @given(
        st.integers(-8, 8), st.integers(-64, 64), st.integers(-100, 100)
    )
    @settings(max_examples=80, deadline=None)
    def test_affine_evaluation_linear(self, coeff, const, value):
        index = AffineIndex((("i", coeff),), const)
        assert index.evaluate({"i": value}) == coeff * value + const


class TestOperandTreeProperties:
    operand_names = st.lists(
        st.sampled_from(["B(i)", "C(i)", "D(i)", "E(i)", "F(i)"]),
        min_size=1, max_size=5,
    )

    @given(operand_names, st.sampled_from(["+", "*"]))
    @settings(max_examples=60, deadline=None)
    def test_leaf_count_matches_operands(self, names, op):
        source = "A(i) = " + f" {op} ".join(names)
        tree = build_operand_tree(parse_statement(source).rhs)
        assert len(tree.leaves()) == len(names)
        assert tree.operation_count() == len(names) - 1


class TestSyncGraphProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_minimize_preserves_reachability(self, arcs):
        graph = SyncGraph()
        for a, b in arcs:
            graph.add_arc(a, b)
        before = self.reachability(graph.arcs())
        graph.minimize()
        after = self.reachability(graph.arcs())
        assert before == after

    @staticmethod
    def reachability(arcs):
        succ = {}
        nodes = set()
        for a, b in arcs:
            succ.setdefault(a, set()).add(b)
            nodes.update((a, b))
        closed = set()
        for start in nodes:
            stack = [start]
            seen = set()
            while stack:
                node = stack.pop()
                for nxt in succ.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            closed.update((start, r) for r in seen)
        return closed
