"""Whole programs: array declarations, runtime index data, loop nests.

The :class:`Program` is the compilation unit.  It owns array shapes (for
row-major linearization of multi-dimensional references), the runtime
contents of index arrays (needed to resolve indirect subscripts — in a real
run the inspector gathers these, Section 4.5), and the loop nests to
optimize.  It produces the stream of resolved
:class:`~repro.ir.statement.StatementInstance` objects that the partitioner
and the simulator consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.ir.expr import AffineIndex, IndirectIndex, Ref
from repro.ir.loop import LoopNest
from repro.ir.statement import Access, StatementInstance


@dataclass(frozen=True)
class ArrayDecl:
    """An array with a (possibly multi-dimensional) shape.

    ``bank_phase`` optionally pins the L2 bank of the array's first block
    (NDP-friendly allocation via the paper's OS page-coloring support);
    co-phased arrays keep same-index operands on nearby banks.
    """

    name: str
    dims: Tuple[int, ...]
    element_size: int = 8
    bank_phase: Optional[int] = None

    @property
    def flat_length(self) -> int:
        total = 1
        for dim in self.dims:
            total *= dim
        return max(total, 1)

    def linearize(self, indices: Sequence[int]) -> int:
        """Row-major flat index with bounds clamping per dimension.

        Subscripts like ``A(i-1)`` walk one step outside the iteration space
        at the boundary; real codes guard these with halo cells.  We clamp to
        the valid range, which models a halo without complicating workload
        definitions.
        """
        if len(indices) != len(self.dims):
            raise WorkloadError(
                f"array {self.name!r} has {len(self.dims)} dims, "
                f"got {len(indices)} subscripts"
            )
        flat = 0
        for dim, index in zip(self.dims, indices):
            flat = flat * dim + min(max(index, 0), dim - 1)
        return flat


class Program:
    """A named collection of array declarations and loop nests."""

    #: Instance streams longer than this are not memoized (memory bound for
    #: pathological nests; every workload in the suite fits comfortably).
    _INSTANCE_CACHE_LIMIT = 1 << 17

    def __init__(self, name: str = "program"):
        self.name = name
        self.arrays: Dict[str, ArrayDecl] = {}
        self.index_data: Dict[str, List[int]] = {}
        self.nests: List[LoopNest] = []
        # (nest name, seq base) -> fully-resolved instance stream.  The
        # partitioner walks the same stream many times (profiling, predictor
        # training, the gate's candidate plans, every window-size trial);
        # instances are immutable, so resolving subscripts once and
        # replaying the tuple is observationally identical.
        self._instance_cache: Dict[Tuple[str, int], Tuple[StatementInstance, ...]] = {}

    # -- construction -------------------------------------------------------

    def declare(
        self,
        name: str,
        *dims: int,
        element_size: int = 8,
        bank_phase: Optional[int] = None,
    ) -> ArrayDecl:
        """Declare an array; no dims declares a scalar (length-1 array)."""
        if name in self.arrays:
            raise WorkloadError(f"array {name!r} declared twice in {self.name!r}")
        decl = ArrayDecl(name, tuple(dims) if dims else (1,), element_size, bank_phase)
        self.arrays[name] = decl
        return decl

    def set_index_data(self, name: str, values: Sequence[int]) -> None:
        """Provide runtime contents for an index array used indirectly."""
        if name not in self.arrays:
            raise WorkloadError(f"index array {name!r} is not declared")
        self.index_data[name] = list(values)
        # Indirect subscripts resolve through index data, so any cached
        # instance stream may now be stale.
        self._instance_cache.clear()

    def add_nest(self, nest: LoopNest) -> None:
        self._check_declared(nest)
        self.nests.append(nest)

    def _check_declared(self, nest: LoopNest) -> None:
        for statement in nest.body:
            for ref in statement.refs():
                if ref.array not in self.arrays:
                    raise WorkloadError(
                        f"statement {statement} references undeclared array "
                        f"{ref.array!r}"
                    )
                for index in ref.indices:
                    if isinstance(index, IndirectIndex) and index.array not in self.arrays:
                        raise WorkloadError(
                            f"indirect subscript uses undeclared index array "
                            f"{index.array!r}"
                        )

    # -- resolution -----------------------------------------------------------

    def resolve_index(self, index, binding: Mapping[str, int]) -> int:
        """Evaluate one subscript (affine directly; indirect via index data)."""
        if isinstance(index, AffineIndex):
            return index.evaluate(binding)
        if isinstance(index, IndirectIndex):
            data = self.index_data.get(index.array)
            if data is None:
                raise WorkloadError(
                    f"no runtime data for index array {index.array!r}; "
                    "call set_index_data or run the inspector first"
                )
            inner = index.inner.evaluate(binding)
            if not data:
                raise WorkloadError(f"index array {index.array!r} is empty")
            return data[inner % len(data)]
        raise WorkloadError(f"unknown index kind {type(index).__name__}")

    def resolve_ref(self, ref: Ref, binding: Mapping[str, int]) -> Access:
        """Resolve a reference to a concrete (array, flat index) access."""
        decl = self.arrays.get(ref.array)
        if decl is None:
            raise WorkloadError(f"undeclared array {ref.array!r}")
        if not ref.indices:  # scalar
            return Access(ref.array, 0)
        values = [self.resolve_index(index, binding) for index in ref.indices]
        return Access(ref.array, decl.linearize(values))

    # -- instance streams ------------------------------------------------------

    def nest_instances(self, nest: LoopNest, seq_base: int = 0) -> Iterator[StatementInstance]:
        """All statement instances of ``nest`` in execution order.

        Fully-consumed streams are memoized per (nest, seq base) — replays
        iterate the cached tuple instead of re-resolving every subscript.
        The cache is cleared whenever :meth:`set_index_data` changes what
        indirect references resolve to.
        """
        key = (nest.name, seq_base)
        cached = self._instance_cache.get(key)
        if cached is not None:
            return iter(cached)
        return self._generate_instances(nest, seq_base, key)

    def _generate_instances(
        self, nest: LoopNest, seq_base: int, key: Tuple[str, int]
    ) -> Iterator[StatementInstance]:
        collected: List[StatementInstance] = []
        seq = seq_base
        for binding in nest.iterations():
            binding_map = dict(binding)
            iteration = tuple(value for _, value in binding)
            for body_index, statement in enumerate(nest.body):
                reads = tuple(
                    self.resolve_ref(ref, binding_map) for ref in statement.input_refs()
                )
                write = self.resolve_ref(statement.lhs, binding_map)
                instance = StatementInstance(
                    statement=statement,
                    binding=binding,
                    seq=seq,
                    reads=reads,
                    write=write,
                    nest_name=nest.name,
                    iteration=iteration,
                    body_index=body_index,
                )
                collected.append(instance)
                yield instance
                seq += 1
        # Only a stream iterated to exhaustion is known-complete (partial
        # consumers — samples, inspection budgets — abandon the generator).
        if len(collected) <= self._INSTANCE_CACHE_LIMIT:
            self._instance_cache[key] = tuple(collected)

    def seq_base_of(self, nest: LoopNest) -> int:
        """Global seq of the first instance of ``nest`` in program order."""
        seq_base = 0
        for candidate in self.nests:
            if candidate is nest or candidate.name == nest.name:
                return seq_base
            seq_base += candidate.instance_count
        raise WorkloadError(f"nest {nest.name!r} is not part of program {self.name!r}")

    def instances(self) -> Iterator[StatementInstance]:
        """All instances of all nests, in program order."""
        seq_base = 0
        for nest in self.nests:
            yield from self.nest_instances(nest, seq_base)
            seq_base += nest.instance_count

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self):
        """Drop the memoized instance streams: they are pure derived state,
        and shipping them to worker processes would dwarf the program itself."""
        state = self.__dict__.copy()
        state["_instance_cache"] = {}
        return state

    # -- integration -------------------------------------------------------------

    def declare_on(self, machine) -> None:
        """Declare every array on a machine's data layout (idempotent-safe)."""
        for decl in self.arrays.values():
            if not machine.layout.has_array(decl.name):
                machine.declare_array(
                    decl.name, decl.flat_length, decl.element_size, decl.bank_phase
                )

    def declare_in(self, session) -> None:
        """Declare every array in a compilation session's machine layout."""
        self.declare_on(session.machine)

    def total_instances(self) -> int:
        return sum(nest.instance_count for nest in self.nests)

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, arrays={len(self.arrays)}, "
            f"nests={len(self.nests)}, instances={self.total_instances()})"
        )
