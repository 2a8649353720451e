"""Fixture tests for the whole-program analyzer.

Covers the three interprocedural layers on synthetic packages written to
``tmp_path`` — the symbol table (``repro.analysis.project``), the
call-graph summaries (``repro.analysis.callgraph``), and the race /
pickle analyses built on them — plus the repo-wide clean gate.

The concurrency fixtures mirror the real shapes the detector was built
for: the thread-pool runtime's pool-spawned task closures (one that
mutates a shared closure cell, one that only returns values), and a job
whose ``map`` writes ``self`` (the speculation double-write case: a
backup attempt re-runs the whole task against the same instance).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import project_findings
from repro.analysis.callgraph import build_summaries
from repro.analysis.pickling import job_pickle_verdicts, pickle_findings
from repro.analysis.project import build_index
from repro.analysis.races import RaceAnalysis, race_findings


def write_package(tmp_path: Path, modules: dict[str, str]) -> Path:
    """Materialize ``modules`` (name -> source) as package ``proj``."""
    package = tmp_path / "proj"
    package.mkdir()
    (package / "__init__.py").write_text(modules.pop("__init__", ""))
    for name, source in modules.items():
        (package / f"{name}.py").write_text(textwrap.dedent(source))
    return tmp_path


def index_for(tmp_path: Path, modules: dict[str, str]):
    return build_index([write_package(tmp_path, modules)])


# ---------------------------------------------------------------------------
# Symbol table
# ---------------------------------------------------------------------------


class TestProjectIndex:
    def test_resolves_through_import_and_reexport(self, tmp_path):
        index = index_for(
            tmp_path,
            {
                "__init__": "from proj.jobs import Worker\n",
                "jobs": """
                    class Worker:
                        def run(self) -> None:
                            pass
                """,
                "driver": """
                    from proj import Worker

                    def main() -> Worker:
                        return Worker()
                """,
            },
        )
        assert index.resolve("proj.driver", "Worker") == "proj.jobs.Worker"
        assert index.resolve("proj", "Worker") == "proj.jobs.Worker"

    def test_mro_and_method_lookup_follow_inheritance(self, tmp_path):
        index = index_for(
            tmp_path,
            {
                "base": """
                    class Base:
                        def run(self) -> None:
                            pass

                        def shared(self) -> None:
                            pass
                """,
                "child": """
                    from proj.base import Base

                    class Child(Base):
                        def run(self) -> None:
                            pass
                """,
            },
        )
        mro = [info.node.name for info in index.mro("proj.child.Child")]
        assert mro == ["Child", "Base"]
        run = index.find_method("proj.child.Child", "run")
        shared = index.find_method("proj.child.Child", "shared")
        assert run is not None and run.qualname == "proj.child.Child.run"
        assert shared is not None and shared.qualname == "proj.base.Base.shared"

    def test_method_implementations_fan_out_to_overrides(self, tmp_path):
        index = index_for(
            tmp_path,
            {
                "shapes": """
                    class Base:
                        def run(self) -> None:
                            pass

                    class Left(Base):
                        def run(self) -> None:
                            pass

                    class Right(Base):
                        pass
                """,
            },
        )
        implementations = {
            info.qualname
            for info in index.method_implementations("proj.shapes.Base", "run")
        }
        assert "proj.shapes.Base.run" in implementations
        assert "proj.shapes.Left.run" in implementations


# ---------------------------------------------------------------------------
# Call-graph summaries
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_edges_resolve_across_modules(self, tmp_path):
        index = index_for(
            tmp_path,
            {
                "helpers": """
                    def helper(x: int) -> int:
                        return x
                """,
                "driver": """
                    from proj.helpers import helper

                    def main(x: int) -> int:
                        return helper(x)
                """,
            },
        )
        summaries = build_summaries(index)
        callees = {
            callee
            for edge in summaries["proj.driver.main"].calls
            for callee in edge.callees
        }
        assert "proj.helpers.helper" in callees

    def test_spawned_closure_records_frees(self, tmp_path):
        index = index_for(
            tmp_path,
            {
                "walk": """
                    from concurrent.futures import ThreadPoolExecutor

                    def run(items: list) -> list:
                        results = []

                        def task(item: int) -> int:
                            return item + 1

                        with ThreadPoolExecutor() as pool:
                            results = list(pool.map(task, items))
                        return results
                """,
            },
        )
        summaries = build_summaries(index)
        spawns = summaries["proj.walk.run"].spawns
        assert any(
            spawn.callee == "proj.walk.run.<locals>.task" for spawn in spawns
        )

    def test_method_call_through_annotation(self, tmp_path):
        index = index_for(
            tmp_path,
            {
                "mod": """
                    class Engine:
                        def step(self) -> None:
                            pass

                    def drive(engine: Engine) -> None:
                        engine.step()
                """,
            },
        )
        summaries = build_summaries(index)
        callees = {
            callee
            for edge in summaries["proj.mod.drive"].calls
            for callee in edge.callees
        }
        assert "proj.mod.Engine.step" in callees


# ---------------------------------------------------------------------------
# Race detection
# ---------------------------------------------------------------------------

#: A job writing self from map: the speculation double-write shape — a
#: backup attempt re-runs map wholesale against the same live instance.
SPECULATION_DOUBLE_WRITE = """
    class MapReduceJob:
        pass

    class TotalsJob(MapReduceJob):
        def __init__(self) -> None:
            self.totals: list = []

        def map(self, split) -> None:
            self.totals.append(split.split_id)
"""

#: The same job shape, kept clean: everything flows through yields.
CLEAN_JOB = """
    class MapReduceJob:
        pass

    class SumJob(MapReduceJob):
        def map(self, split):
            total = 0.0
            for value in split.values:
                total += value
            yield split.split_id, total
"""

#: The thread-pool runtime's shape (``ThreadPoolRuntime`` hands a
#: ``map_task`` closure to ``pool.map``), with a spawned closure that
#: mutates a cell of its enclosing function instead of returning results.
RACY_LEVEL_WALK = """
    from concurrent.futures import ThreadPoolExecutor

    def run_levels(leaves: list) -> list:
        rows: list = []

        def combine(pair) -> None:
            rows.append(pair[0] + pair[1])

        with ThreadPoolExecutor() as pool:
            list(pool.map(combine, zip(leaves[::2], leaves[1::2])))
        return rows
"""

#: The clean variant, as ``ThreadPoolRuntime`` does it: the spawned
#: closure returns its result and the driver collects ``pool.map``'s
#: output in submission order.
CLEAN_LEVEL_WALK = """
    from concurrent.futures import ThreadPoolExecutor

    def run_levels(leaves: list) -> list:
        def combine(pair) -> float:
            return pair[0] + pair[1]

        with ThreadPoolExecutor() as pool:
            combined = list(pool.map(combine, zip(leaves[::2], leaves[1::2])))
        rows = list(combined)
        return rows
"""


class TestRaceDetection:
    def test_speculation_double_write_is_rc003(self, tmp_path):
        index = index_for(tmp_path, {"jobs": SPECULATION_DOUBLE_WRITE})
        findings = race_findings(index)
        assert [f.rule for f in findings] == ["RC003"]
        assert "self.totals" in findings[0].message
        assert "speculative" in findings[0].message

    def test_clean_job_reports_nothing(self, tmp_path):
        index = index_for(tmp_path, {"jobs": CLEAN_JOB})
        assert race_findings(index) == []

    def test_pool_spawned_closure_write_is_rc002(self, tmp_path):
        index = index_for(tmp_path, {"walk": RACY_LEVEL_WALK})
        findings = race_findings(index)
        assert [f.rule for f in findings] == ["RC002"]
        assert "rows" in findings[0].message

    def test_clean_level_walk_reports_nothing(self, tmp_path):
        index = index_for(tmp_path, {"walk": CLEAN_LEVEL_WALK})
        assert race_findings(index) == []

    def test_module_global_write_is_rc001(self, tmp_path):
        source = """
            class MapReduceJob:
                pass

            COUNTS: dict = {}

            class CountJob(MapReduceJob):
                def map(self, split) -> None:
                    COUNTS[split.split_id] = 1
        """
        index = index_for(tmp_path, {"jobs": source})
        findings = race_findings(index)
        assert [f.rule for f in findings] == ["RC001"]

    def test_lock_guarded_write_is_ordering_safe(self, tmp_path):
        source = """
            import threading

            class MapReduceJob:
                pass

            class GuardedJob(MapReduceJob):
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self.rows: list = []

                def map(self, split) -> None:
                    with self._lock:
                        self.rows.append(split.split_id)
        """
        index = index_for(tmp_path, {"jobs": source})
        assert race_findings(index) == []

    def test_taint_propagates_through_helper_calls(self, tmp_path):
        source = """
            class MapReduceJob:
                pass

            class Store:
                def __init__(self) -> None:
                    self.rows: list = []

                def add(self, row: float) -> None:
                    self.rows.append(row)

            class IndirectJob(MapReduceJob):
                def __init__(self) -> None:
                    self.store = Store()

                def map(self, split) -> None:
                    self.store.add(float(split.split_id))
        """
        index = index_for(tmp_path, {"jobs": source})
        findings = race_findings(index)
        # Two sites under the model: the `.add` call itself (`add` is in
        # the mutator-name set) and the append inside the helper — the
        # interprocedural one is the site this fixture exists to pin.
        assert {f.rule for f in findings} == {"RC003"}
        assert any("self.rows" in f.message for f in findings)

    def test_rng_draw_through_shared_state_is_rc003(self, tmp_path):
        source = """
            import numpy as np

            class MapReduceJob:
                pass

            class NoisyJob(MapReduceJob):
                def __init__(self) -> None:
                    self._rng = np.random.default_rng(0)

                def map(self, split):
                    yield split.split_id, self._rng.random()
        """
        index = index_for(tmp_path, {"jobs": source})
        findings = race_findings(index)
        assert [f.rule for f in findings] == ["RC003"]
        assert "RNG draw" in findings[0].message

    def test_default_roots_include_spawns_and_task_methods(self, tmp_path):
        index = index_for(
            tmp_path,
            {"jobs": SPECULATION_DOUBLE_WRITE, "walk": RACY_LEVEL_WALK},
        )
        analysis = RaceAnalysis(index)
        roots = {root.qualname for root in analysis.default_roots()}
        assert "proj.jobs.TotalsJob.map" in roots
        assert "proj.walk.run_levels.<locals>.combine" in roots


# ---------------------------------------------------------------------------
# Transitive pickle verdicts
# ---------------------------------------------------------------------------


class TestPickleVerdicts:
    def test_task_self_write_refutes_declared_safety(self, tmp_path):
        index = index_for(tmp_path, {"jobs": SPECULATION_DOUBLE_WRITE})
        verdicts = job_pickle_verdicts(index)
        verdict = verdicts["proj.jobs.TotalsJob"]
        assert verdict.declared is True
        assert not verdict.process_safe
        findings = pickle_findings(index)
        assert [f.rule for f in findings] == ["PS003"]

    def test_clean_job_verdict_is_safe(self, tmp_path):
        index = index_for(tmp_path, {"jobs": CLEAN_JOB})
        verdicts = job_pickle_verdicts(index)
        assert verdicts["proj.jobs.SumJob"].process_safe
        assert pickle_findings(index) == []

    def test_lock_capture_refutes_declared_safety(self, tmp_path):
        source = """
            import threading

            class MapReduceJob:
                pass

            class LockedJob(MapReduceJob):
                def __init__(self) -> None:
                    self._lock = threading.Lock()

                def map(self, split):
                    yield split.split_id, 0.0
        """
        index = index_for(tmp_path, {"jobs": source})
        findings = pickle_findings(index)
        assert [f.rule for f in findings] == ["PS003"]
        assert "Lock" in findings[0].message

    def test_declared_unsafe_with_evidence_is_silent(self, tmp_path):
        source = """
            class MapReduceJob:
                pass

            class DriverJob(MapReduceJob):
                process_safe = False

                def __init__(self) -> None:
                    self.rows: list = []

                def map(self, split) -> None:
                    self.rows.append(split.split_id)
        """
        index = index_for(tmp_path, {"jobs": source})
        # Declared unsafe and provably unsafe: nothing to report (the RC
        # layer still flags the write; pickle-wise the claim is honest).
        assert pickle_findings(index) == []

    def test_stale_unsafe_declaration_is_ps004(self, tmp_path):
        source = """
            class MapReduceJob:
                pass

            class CautiousJob(MapReduceJob):
                process_safe = False

                def map(self, split):
                    yield split.split_id, 0.0
        """
        index = index_for(tmp_path, {"jobs": source})
        findings = pickle_findings(index)
        assert [f.rule for f in findings] == ["PS004"]

    def test_shared_store_pairs_reader_with_writer(self, tmp_path):
        source = """
            class MapReduceJob:
                pass

            class Store:
                pass

            class WriterJob(MapReduceJob):
                process_safe = False

                def __init__(self, store: dict) -> None:
                    self.row_store = store

                def map(self, split) -> None:
                    self.row_store[split.split_id] = 1.0

            class ReaderJob(MapReduceJob):
                process_safe = False

                def __init__(self, store: dict) -> None:
                    self.row_store = store

                def map(self, split):
                    yield split.split_id, self.row_store.get(split.split_id)
        """
        index = index_for(tmp_path, {"jobs": source})
        verdicts = job_pickle_verdicts(index)
        # The reader never writes, but it shares the writer's live store:
        # its unsafe declaration is evidenced, so neither job is flagged.
        assert not verdicts["proj.jobs.ReaderJob"].process_safe
        assert pickle_findings(index) == []


# ---------------------------------------------------------------------------
# The repo-wide gate
# ---------------------------------------------------------------------------


class TestRepoGate:
    def test_repo_source_tree_is_clean_under_project_analysis(self):
        repo_src = Path(__file__).resolve().parent.parent / "src"
        findings = project_findings([str(repo_src)])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_repo_race_analysis_reaches_the_known_roots(self):
        repo_src = Path(__file__).resolve().parent.parent / "src"
        index = build_index([repo_src])
        analysis = RaceAnalysis(index)
        roots = {root.qualname for root in analysis.default_roots()}
        # The two concurrency families the detector exists for: job task
        # methods and the thread-pool runtime's task closures.
        assert "repro.core.dp_framework._BottomUpLayerJob.map" in roots
        assert any("map_task" in root for root in roots)

    def test_repo_pickle_verdicts_cover_all_concrete_jobs(self):
        repo_src = Path(__file__).resolve().parent.parent / "src"
        index = build_index([repo_src])
        verdicts = job_pickle_verdicts(index)
        short = {qualname.rsplit(".", 1)[-1] for qualname in verdicts}
        assert {"_BottomUpLayerJob", "_TopDownLayerJob", "_AverageJob"} <= short
