"""Tests for the exception hierarchy and the public package surface."""

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "SimulationError",
            "AddressError",
            "AllocationError",
            "SchedulerError",
            "CoroutineStateError",
            "IndexStructureError",
            "KeyNotFoundError",
            "ColumnStoreError",
            "WorkloadError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_specific_parents(self):
        assert issubclass(errors.AddressError, errors.SimulationError)
        assert issubclass(errors.AllocationError, errors.SimulationError)
        assert issubclass(errors.CoroutineStateError, errors.SchedulerError)
        assert issubclass(errors.KeyNotFoundError, errors.IndexStructureError)

    def test_one_except_catches_everything(self):
        from repro.sim.allocator import AddressSpaceAllocator

        with pytest.raises(repro.ReproError):
            AddressSpaceAllocator().allocate("x", -1)


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_import_is_lazy(self):
        import subprocess
        import sys
        from pathlib import Path

        src = Path(repro.__file__).resolve().parents[1]

        def modules_after(imports: str) -> list[str]:
            probe = f"import sys; {imports}; print(' '.join(sorted(sys.modules)))"
            return subprocess.run(
                [sys.executable, "-c", probe],
                check=True,
                capture_output=True,
                text=True,
                cwd=src,
            ).stdout.split()

        loaded = [name for name in modules_after("import repro") if name.startswith("repro")]
        heavy = {"service", "cluster", "control", "scenario", "query", "faults"}
        assert not heavy & {name.split(".")[1] for name in loaded if "." in name}, loaded
        # What a CLI or benchmark worker imports before its first sweep.
        loaded = modules_after(
            "import repro; from repro import api; from repro.perf import ResultCache"
        )
        unwanted = {
            "concurrent.futures", "multiprocessing", "repro.perf.sweep", "repro.obs.rtrace"
        }
        assert not unwanted & set(loaded), sorted(unwanted & set(loaded))

    def test_version(self):
        major, minor, patch = repro.__version__.split(".")
        assert int(major) >= 1

    def test_key_entry_points_callable(self):
        assert callable(repro.run_interleaved)
        assert callable(repro.binary_search_coro)
        assert callable(repro.run_in_predicate)

    def test_subpackage_alls_resolve(self):
        import repro.analysis as analysis
        import repro.columnstore as columnstore
        import repro.indexes as indexes
        import repro.interleaving as interleaving
        import repro.sim as sim
        import repro.workloads as workloads

        for module in (analysis, columnstore, indexes, interleaving, sim, workloads):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
