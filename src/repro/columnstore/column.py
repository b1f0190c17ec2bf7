"""Dictionary-encoded columns: a dictionary plus a code vector.

The encoded representation of Section 2.1: the dictionary maps values to
a dense integer range, and the column body is the vector of codes. Bulk
``locate`` over a list of values is the index join S |><| D this paper is
about; :meth:`EncodedColumn.encode_values` exposes it under every
execution strategy (sequential, GP, AMAC, coroutines) by dispatching
through the executor registry. When no strategy is forced, the
calibration-driven :func:`~repro.interleaving.policies.choose_policy`
decides — small dictionaries run sequentially, DRAM-resident ones
interleave at the Inequality-1 group size.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ColumnStoreError
from repro.indexes.base import INVALID_CODE
from repro.indexes.binary_search import DEFAULT_COSTS, SearchCosts
from repro.interleaving.executor import BulkLookup, get_executor
from repro.interleaving.policies import ExecutionPolicy, choose_policy_for_bytes
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine

from repro.columnstore.dictionary import DeltaDictionary, MainDictionary

__all__ = ["EncodedColumn", "ENCODE_STRATEGIES"]

#: Execution strategies understood by :meth:`EncodedColumn.encode_values`.
ENCODE_STRATEGIES = ("sequential", "interleaved", "gp", "amac")

#: Historic strategy names -> executor registry keys.
_STRATEGY_EXECUTORS = {
    "sequential": "sequential",
    "interleaved": "coro",
    "gp": "gp",
    "amac": "amac",
}


class EncodedColumn:
    """A dictionary plus a numpy code vector in simulated memory."""

    def __init__(
        self,
        dictionary: "MainDictionary | DeltaDictionary",
        codes: np.ndarray,
        allocator: AddressSpaceAllocator,
        name: str,
        code_size: int = 4,
    ) -> None:
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ColumnStoreError("code vector must be one-dimensional")
        if codes.size and (
            codes.min() < 0 or codes.max() >= dictionary.n_values
        ):
            raise ColumnStoreError("code vector references out-of-range codes")
        self.dictionary = dictionary
        self.codes = codes
        self.code_size = code_size
        self.region = allocator.allocate(
            f"{name}/codes", max(1, codes.size) * code_size
        )

    @classmethod
    def from_values(
        cls,
        allocator: AddressSpaceAllocator,
        name: str,
        values: Sequence[int],
    ) -> "EncodedColumn":
        """Build a Main-style column: sorted dictionary + encoded rows."""
        if len(values) == 0:
            raise ColumnStoreError("column needs at least one row")
        dictionary = MainDictionary.from_values(allocator, f"{name}/dict", values)
        codes = np.array([dictionary.locate(int(v)) for v in values], dtype=np.int64)
        return cls(dictionary, codes, allocator, name)

    @property
    def n_rows(self) -> int:
        return int(self.codes.size)

    @property
    def dictionary_bytes(self) -> int:
        """Dictionary footprint ``locate`` walks (the paper's x-axis)."""
        return self.dictionary.nbytes

    def locate_policy(
        self, engine: ExecutionEngine, n_lookups: int
    ) -> ExecutionPolicy:
        """Pick the execution policy for a bulk locate of ``n_lookups``.

        Delta dictionaries restrict the candidates to the coroutine
        scheduler — GP and AMAC only have the sorted-array rewrite, which
        is the paper's maintenance-cost argument in policy form.
        """
        candidates = (
            ("gp", "amac", "coro")
            if isinstance(self.dictionary, MainDictionary)
            else ("coro",)
        )
        return choose_policy_for_bytes(
            engine.arch,
            self.dictionary_bytes,
            n_lookups,
            technique=None,
            candidates=candidates,
        )

    def decode_row(self, row: int) -> int:
        """Value of one row (pure Python)."""
        return self.dictionary.extract(int(self.codes[row]))

    def decode_rows(
        self,
        engine: ExecutionEngine,
        rows: Sequence[int],
        *,
        strategy: str = "sequential",
        group_size: int = 8,
    ) -> list[int]:
        """Materialize row values via ``extract`` (the decode-side join).

        Scattered row decodes over a large dictionary are themselves
        pointer-chasing; ``strategy="interleaved"`` hides their misses
        with the same scheduler the encode side uses.
        """
        if strategy not in ("sequential", "interleaved"):
            raise ColumnStoreError(
                f"unknown strategy {strategy!r}; decode supports "
                "sequential/interleaved"
            )
        codes = [int(self.codes[row]) for row in rows]
        dictionary = self.dictionary
        tasks = BulkLookup.stream(
            lambda c, il: dictionary.extract_stream(c, il), codes
        )
        return get_executor(_STRATEGY_EXECUTORS[strategy]).run(
            tasks, engine, group_size=group_size
        )

    # ------------------------------------------------------------------
    # The index join: bulk locate
    # ------------------------------------------------------------------

    def resolve_locate_execution(
        self,
        engine: ExecutionEngine,
        n_lookups: int,
        *,
        strategy: str | None = "sequential",
        group_size: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> tuple[str, int]:
        """Resolve the ``(strategy, group_size)`` a bulk locate will use.

        ``strategy=None`` defers to ``policy`` (or, when that is also
        unset, to :meth:`locate_policy`'s calibration-driven choice);
        an explicit strategy always wins. This is the resolution step of
        :meth:`encode_values`, split out so the ``repro.query`` plan
        operators resolve exactly the way the bulk entry point does.
        """
        if strategy is None:
            if policy is None:
                policy = self.locate_policy(engine, n_lookups)
            strategy = (
                "interleaved" if policy.technique.lower() == "coro"
                else policy.technique.lower()
            ) if policy.interleave else "sequential"
            group_size = group_size or policy.group_size
        if strategy not in ENCODE_STRATEGIES:
            raise ColumnStoreError(
                f"unknown strategy {strategy!r}; expected one of {ENCODE_STRATEGIES}"
            )
        return strategy, group_size or 6

    def locate_job(
        self,
        values: Sequence[int],
        strategy: str,
        costs: SearchCosts = DEFAULT_COSTS,
    ):
        """Bulk-locate workload for ``strategy``: ``(executor_name, job, post)``.

        ``job`` is the :class:`BulkLookup` to hand the named executor and
        ``post`` maps its raw results to one code per input
        (``INVALID_CODE`` for absent values). GP and AMAC are only
        available for Main dictionaries (they are binary-search
        rewrites); the coroutine strategies work for both stores — the
        paper's practicality argument — as one typed
        :meth:`BulkLookup.locate` job over the dictionary, which replays
        on the staged path for both stores.
        """
        if strategy not in ENCODE_STRATEGIES:
            raise ColumnStoreError(
                f"unknown strategy {strategy!r}; expected one of {ENCODE_STRATEGIES}"
            )
        dictionary = self.dictionary
        executor_name = _STRATEGY_EXECUTORS[strategy]
        if strategy in ("sequential", "interleaved"):
            job = BulkLookup.locate(dictionary, values, costs)
            return executor_name, job, lambda raw: raw
        if not isinstance(dictionary, MainDictionary):
            raise ColumnStoreError(
                f"{strategy} was only implemented for the sorted Main "
                "dictionary; rewriting it for the Delta tree is exactly "
                "the cost the paper's coroutines avoid"
            )
        job = BulkLookup.sorted_array(dictionary.array, values, costs)

        def membership(lows: Sequence[int]) -> list[int]:
            # GP and AMAC return lower-bound positions; the dictionary
            # join needs membership, so map misses to INVALID_CODE (pure
            # Python — no simulated cycles).
            return [
                low if dictionary.array.value_at(low) == value else INVALID_CODE
                for low, value in zip(lows, values)
            ]

        return executor_name, job, membership

    def encode_values(
        self,
        engine: ExecutionEngine,
        values: Sequence[int],
        *,
        strategy: str | None = "sequential",
        group_size: int | None = None,
        costs: SearchCosts = DEFAULT_COSTS,
        policy: ExecutionPolicy | None = None,
    ) -> list[int]:
        """Locate every value, with the chosen execution strategy.

        Returns one code per input (``INVALID_CODE`` for absent values).
        See :meth:`resolve_locate_execution` for how ``strategy=None``
        defers to the calibration-driven policy, and :meth:`locate_job`
        for which executors each store supports.
        """
        strategy, group_size = self.resolve_locate_execution(
            engine, len(values),
            strategy=strategy, group_size=group_size, policy=policy,
        )
        executor_name, job, post = self.locate_job(values, strategy, costs)
        return post(
            get_executor(executor_name).run(job, engine, group_size=group_size)
        )
