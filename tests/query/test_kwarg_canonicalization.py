"""Only ``group_size`` names the group width at every plan surface.

The old ``G=`` / ``g=`` / ``group=`` spellings are unexpected keywords,
so a misspelt knob fails with Python's own ``TypeError`` in the plan
builders and the facade exactly as in ``Executor.run``.
"""

import warnings

import numpy as np
import pytest

from repro.columnstore import EncodedColumn
from repro.config import HASWELL
from repro.query import in_predicate_plan
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine


@pytest.fixture()
def column():
    return EncodedColumn.from_values(
        AddressSpaceAllocator(), "c", np.arange(2_000)
    )


def encode_group(plan):
    result = plan.execute(ExecutionEngine(HASWELL))
    return result.profile("in_predicate_encode").attrs["group_size"]


class TestPlanBuilderAliases:
    def test_lone_alias_is_a_type_error(self, column):
        with pytest.raises(TypeError, match="'G'"):
            in_predicate_plan(column, [1, 2, 3], strategy="interleaved", G=4)

    def test_lowercase_and_group_spellings(self, column):
        for alias in ("g", "group"):
            with pytest.raises(TypeError, match=f"'{alias}'"):
                in_predicate_plan(
                    column, [1, 2], strategy="interleaved", **{alias: 3}
                )

    def test_canonical_spelling_stays_silent(self, column):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = in_predicate_plan(
                column, [1, 2], strategy="interleaved", group_size=4
            )
        assert encode_group(plan) == 4

    def test_conflicting_spellings_rejected(self, column):
        with pytest.raises(TypeError, match="'G'"):
            in_predicate_plan(column, [1], group_size=2, G=3)

    def test_unknown_kwarg_rejected(self, column):
        with pytest.raises(TypeError, match="'chunk'"):
            in_predicate_plan(column, [1], chunk=7)


class TestApiRunPlanAliases:
    def test_alias_is_a_type_error(self, column):
        from repro.api import run_plan

        with pytest.raises(TypeError, match="'G'"):
            run_plan(column, [1, 2, 3], strategy="interleaved", G=4)

    def test_conflict_rejected(self, column):
        from repro.api import run_plan

        with pytest.raises(TypeError, match="'group'"):
            run_plan(column, [1], group_size=2, group=6)
