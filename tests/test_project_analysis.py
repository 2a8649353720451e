"""Fixture tests for the whole-program analyzer.

Covers the three interprocedural layers on synthetic packages written to
``tmp_path`` — the symbol table (``repro.analysis.project``), the
call-graph summaries (``repro.analysis.callgraph``), and the
pickle-safety verdicts built on them — plus the repo-wide clean gate.

Tasks share no memory: each runs sequentially in the driver or in its
own worker process.  The driver-state fixtures therefore pin the one
bug class that survives, a task write that a worker process would lose —
through ``self`` (directly, through a helper, or as an RNG draw), or to
module-global state.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import project_findings
from repro.analysis.callgraph import build_summaries
from repro.analysis.pickling import job_pickle_verdicts, pickle_findings
from repro.analysis.project import build_index


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
# Driver-state evidence: task writes a worker process would lose
# ---------------------------------------------------------------------------

#: A job writing self from map: in a worker process the write lands in
#: the worker's copy of the job and is lost.
SELF_WRITING_JOB = """
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


def ps003_messages(index) -> list[str]:
    findings = pickle_findings(index)
    assert [f.rule for f in findings] == ["PS003"]
    return [f.message for f in findings]


class TestDriverStateEvidence:
    def test_module_global_write_is_ps003(self, tmp_path):
        source = """
            class MapReduceJob:
                pass

            COUNTS: dict = {}

            class CountJob(MapReduceJob):
                def map(self, split) -> None:
                    COUNTS[split.split_id] = 1
        """
        index = index_for(tmp_path, {"jobs": source})
        (message,) = ps003_messages(index)
        assert "module-global state `COUNTS`" in message

    def test_global_rebind_in_a_helper_is_ps003(self, tmp_path):
        source = """
            class MapReduceJob:
                pass

            CALLS = 0

            def count_call() -> None:
                global CALLS
                CALLS += 1

            class TallyJob(MapReduceJob):
                def map(self, split):
                    count_call()
                    yield split.split_id, 1.0
        """
        index = index_for(tmp_path, {"jobs": source})
        (message,) = ps003_messages(index)
        assert "module-global state `CALLS`" in message

    def test_lock_guarded_write_is_ps003(self, tmp_path):
        # A lock orders writes within one process; it cannot carry a
        # worker's write back to the driver.
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
        (message,) = ps003_messages(index)
        assert "driver-held state `self.rows`" in message

    def test_helper_call_write_is_ps003(self, tmp_path):
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
        ps003_messages(index)
        # Two sites under the model: the `.add` call itself (`add` is in
        # the mutator-name set) and the append inside the helper — the
        # interprocedural one is the site this fixture exists to pin.
        evidence = job_pickle_verdicts(index)["proj.jobs.IndirectJob"].evidence
        assert any("self.rows" in entry for entry in evidence)

    def test_rng_draw_through_self_is_ps003(self, tmp_path):
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
        (message,) = ps003_messages(index)
        assert "self._rng" in message


# ---------------------------------------------------------------------------
# Transitive pickle verdicts
# ---------------------------------------------------------------------------


class TestPickleVerdicts:
    def test_task_self_write_refutes_declared_safety(self, tmp_path):
        index = index_for(tmp_path, {"jobs": SELF_WRITING_JOB})
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
        # Declared unsafe and provably unsafe: the claim is honest.
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

    def test_repo_dp_layer_job_shows_its_row_store_write(self):
        repo_src = Path(__file__).resolve().parent.parent / "src"
        index = build_index([repo_src])
        verdict = job_pickle_verdicts(index)[
            "repro.core.dp_framework._BottomUpLayerJob"
        ]
        # The driver-state write its process_safe = False declaration
        # stands on: the map task stores rows into the driver's row store.
        assert any("self.row_store" in entry for entry in verdict.evidence)

    def test_repo_pickle_verdicts_cover_all_concrete_jobs(self):
        repo_src = Path(__file__).resolve().parent.parent / "src"
        index = build_index([repo_src])
        verdicts = job_pickle_verdicts(index)
        short = {qualname.rsplit(".", 1)[-1] for qualname in verdicts}
        assert {"_BottomUpLayerJob", "_TopDownLayerJob", "_AverageJob"} <= short
