"""Fixture self-tests for the invariant lint pack (``repro.analysis``).

Every rule family is exercised against inline source fixtures: one
snippet that must trigger the rule and one near-miss that must stay
clean.  One fixture replays a real incident from this repo's history:
the ``id()``-keyed probe map in the DIndirectHaar driver (an object
identity used as a dict key, making replays allocation-dependent) —
DT003.  Process safety is checked by running every job on both runtimes
(``tests/test_job_process_safety.py``), not by a rule.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import all_rules, analyze_paths, analyze_source
from repro.analysis.__main__ import main as analysis_main


def findings_for(source: str, path: str = "src/repro/algos/fixture.py") -> list[str]:
    """Rule ids reported for ``source`` placed at ``path``."""
    found = analyze_source(textwrap.dedent(source), path, all_rules())
    return [finding.rule for finding in found]


# ---------------------------------------------------------------------------
# Determinism (DT001 / DT002 / DT003)
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_dt001_set_attribute_iterated_while_yielding(self):
        # The H-WTopk round-3 bug: iterating self.candidates (a set) while
        # emitting records made the map output hash-order dependent.
        source = """
            class RoundJob(MapReduceJob):
                def __init__(self, candidates=None):
                    self.candidates = candidates or set()

                def map(self, split):
                    for node in self.candidates:
                        yield node, 0.0
        """
        assert "DT001" in findings_for(source)

    def test_dt001_sorted_iteration_is_clean(self):
        source = """
            class RoundJob(MapReduceJob):
                def __init__(self, candidates=None):
                    self.candidates = candidates or set()

                def map(self, split):
                    for node in sorted(self.candidates):
                        yield node, 0.0
        """
        assert "DT001" not in findings_for(source)

    def test_dt001_local_set_literal(self):
        source = """
            def emit():
                pending = {3, 1, 2}
                for node in pending:
                    yield node
        """
        assert "DT001" in findings_for(source)

    def test_dt002_unseeded_stdlib_random(self):
        source = """
            import random

            def jitter():
                return random.random()
        """
        assert "DT002" in findings_for(source)

    def test_dt002_legacy_numpy_random(self):
        source = """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
        """
        assert "DT002" in findings_for(source)

    def test_dt002_bare_default_rng(self):
        source = """
            import numpy as np

            def noise(n):
                return np.random.default_rng().normal(size=n)
        """
        assert "DT002" in findings_for(source)

    def test_dt002_seeded_default_rng_is_clean(self):
        source = """
            import numpy as np

            def noise(n, seed):
                return np.random.default_rng(seed).normal(size=n)
        """
        assert "DT002" not in findings_for(source)

    def test_dt003_id_keyed_map_regression(self):
        # The DIndirectHaar driver once cached probe solutions in a dict
        # keyed by id(solution): correct in one run, irreproducible across
        # runs (and across processes, where ids are never stable).
        source = """
            def cache_probe(probes):
                by_identity = {}
                for probe in probes:
                    by_identity[id(probe)] = probe.epsilon
                return by_identity
        """
        assert "DT003" in findings_for(source)

    def test_dt003_dict_literal_and_get(self):
        source = """
            def lookup(store, obj):
                seeded = {id(obj): 1}
                return store.get(id(obj))
        """
        assert findings_for(source).count("DT003") == 2

    def test_dt003_id_in_plain_expression_is_clean(self):
        source = """
            def log_identity(obj):
                return f"{id(obj):x}"
        """
        assert "DT003" not in findings_for(source)


# ---------------------------------------------------------------------------
# Kernel contracts (KC001 / KC002 / KC003 / KC004) — scoped to algos/ and bench/
# ---------------------------------------------------------------------------


class TestKernelContracts:
    def test_kc001_allocation_without_dtype(self):
        source = """
            import numpy as np

            def scratch(n):
                return np.zeros(n)
        """
        assert "KC001" in findings_for(source)

    def test_kc001_arange_with_positional_dtype_is_clean(self):
        source = """
            import numpy as np

            def ramp(n):
                return np.arange(0, n, 1, np.int64)
        """
        assert "KC001" not in findings_for(source)

    def test_kc001_empty_like_is_exempt(self):
        source = """
            import numpy as np

            def clone(a):
                out = np.empty_like(a)
                return out
        """
        assert "KC001" not in findings_for(source)

    def test_kc001_only_applies_to_kernel_scopes(self):
        source = """
            import numpy as np

            def scratch(n):
                return np.zeros(n)
        """
        assert "KC001" not in findings_for(source, path="src/repro/data/fixture.py")

    def test_kc002_float_literal_equality(self):
        source = """
            def is_zero(x: float) -> bool:
                return x == 0.0
        """
        assert "KC002" in findings_for(source)

    def test_kc002_integer_equality_is_clean(self):
        source = """
            def is_zero(x: int) -> bool:
                return x == 0
        """
        assert "KC002" not in findings_for(source)

    def test_kc003_augmented_assignment_to_argument(self):
        source = """
            def normalize(values, total: float):
                values /= total
                return values
        """
        assert "KC003" in findings_for(source)

    def test_kc003_subscript_store_into_argument(self):
        source = """
            def clamp(values):
                values[0] = 0.0
                return values
        """
        assert "KC003" in findings_for(source)

    def test_kc003_rebound_argument_is_clean(self):
        source = """
            import numpy as np

            def normalize(values, total: float):
                values = np.asarray(values, dtype=np.float64).copy()
                values /= total
                return values
        """
        assert "KC003" not in findings_for(source)

    def test_kc004_as_completed_collection(self):
        # Completion-order collection would break the parallel level
        # walk's bit-identity with the serial walk.
        source = """
            from concurrent.futures import as_completed

            def run_level(executor, tasks):
                futures = [executor.submit(t) for t in tasks]
                return [f.result() for f in as_completed(futures)]
        """
        assert "KC004" in findings_for(source)

    def test_kc004_imap_unordered(self):
        source = """
            def run_level(pool, tasks):
                return list(pool.imap_unordered(run_one, tasks))

            def run_one(task):
                return task
        """
        assert "KC004" in findings_for(source)

    def test_kc004_iterating_a_set(self):
        source = """
            def walk(nodes):
                for node in set(nodes):
                    yield node
        """
        assert "KC004" in findings_for(source)

    def test_kc004_set_literal_iteration(self):
        source = """
            def walk():
                for node in {3, 1, 2}:
                    yield node
        """
        assert "KC004" in findings_for(source)

    def test_kc004_executor_map_is_clean(self):
        # Executor.map yields in submission order — the sanctioned way.
        source = """
            def run_level(executor, tasks):
                return list(executor.map(run_one, tasks))

            def run_one(task):
                return task
        """
        assert "KC004" not in findings_for(source)

    def test_kc004_sorted_set_iteration_is_clean(self):
        source = """
            def walk(nodes):
                for node in sorted(set(nodes)):
                    yield node
        """
        assert "KC004" not in findings_for(source)

    def test_kc004_only_applies_to_kernel_scopes(self):
        source = """
            from concurrent.futures import as_completed

            def drain(futures):
                return [f.result() for f in as_completed(futures)]
        """
        assert "KC004" not in findings_for(source, path="src/repro/mapreduce/fixture.py")


# ---------------------------------------------------------------------------
# API hygiene (AH001 / AH002 / AH003)
# ---------------------------------------------------------------------------


class TestApiHygiene:
    def test_ah001_mutable_default(self):
        source = """
            def collect(item, bucket=[]):
                bucket.append(item)
                return bucket
        """
        assert "AH001" in findings_for(source)

    def test_ah001_mutable_default_in_lambda(self):
        source = """
            f = lambda x=[]: x
        """
        assert findings_for(source) == ["AH001"]

    def test_ah001_none_default_is_clean(self):
        source = """
            def collect(item, bucket=None):
                bucket = bucket if bucket is not None else []
                bucket.append(item)
                return bucket
        """
        assert "AH001" not in findings_for(source)

    def test_ah002_bare_except(self):
        source = """
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
        """
        assert "AH002" in findings_for(source)

    def test_ah003_name_missing_from_all(self):
        source = """
            from repro.algos.heap import AddressableMinHeap

            __all__ = []
        """
        assert "AH003" in findings_for(source, path="src/repro/algos/__init__.py")

    def test_ah003_all_listing_unbound_name(self):
        source = """
            __all__ = ["does_not_exist"]
        """
        assert "AH003" in findings_for(source, path="src/repro/algos/__init__.py")

    def test_ah003_ignores_non_init_modules(self):
        source = """
            from repro.algos.heap import AddressableMinHeap

            __all__ = []
        """
        assert "AH003" not in findings_for(source, path="src/repro/algos/module.py")


# ---------------------------------------------------------------------------
# Suppression, CLI, and the repo-wide gate
# ---------------------------------------------------------------------------


class TestHarness:
    def test_suppression_comment_silences_one_rule(self):
        source = """
            def is_zero(x: float) -> bool:
                return x == 0.0  # lint: ignore[KC002]
        """
        assert "KC002" not in findings_for(source)

    def test_blanket_suppression_comment_suppresses_nothing(self):
        # A bracketless ignore comment used to silence every rule on the
        # line; it now suppresses nothing and is itself reported (LS001).
        source = """
            def is_zero(x: float) -> bool:
                return x == 0.0  # lint: ignore
        """
        found = findings_for(source)
        assert "KC002" in found
        assert "LS001" in found

    def test_unused_suppression_is_reported(self):
        source = """
            def well_typed(x: float) -> float:
                return x + 1.0  # lint: ignore[KC002]
        """
        assert findings_for(source) == ["LS002"]

    def test_unknown_rule_id_is_not_reported_unused(self):
        # Stale-suppression checks only cover the rules that ran; an id
        # outside the running set is left alone.
        source = """
            def well_typed(x: float) -> float:
                return x + 1.0  # lint: ignore[ZZ999] -- never a rule
        """
        assert findings_for(source) == []

    def test_suppression_of_other_rule_does_not_silence(self):
        source = """
            def is_zero(x: float) -> bool:
                return x == 0.0  # lint: ignore[KC001]
        """
        assert "KC002" in findings_for(source)

    def test_rule_ids_are_unique_and_sorted(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_findings_are_ordered_and_rendered(self):
        # AH001 runs before KC002 but fires further down the file, so the
        # output order is the sort's doing, not the rule order's.
        source = """
            def first(x: float) -> bool:
                return x == 0.0

            def second(a: int, b: list = []) -> int:
                return a
        """
        found = analyze_source(
            textwrap.dedent(source), "src/repro/algos/fixture.py", all_rules()
        )
        assert [(f.line, f.rule) for f in found] == [(3, "KC002"), (5, "AH001")]
        rendered = found[0].render()
        assert rendered.startswith("src/repro/algos/fixture.py:")
        assert found[0].rule in rendered

    def test_analyze_paths_walks_directories(self, tmp_path):
        package = tmp_path / "algos"
        package.mkdir()
        (package / "bad.py").write_text("def f(x=[]):\n    return x\n")
        findings = analyze_paths([str(tmp_path)], all_rules())
        assert any(f.rule == "AH001" for f in findings)

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x: int) -> int:\n    return x\n")
        assert analysis_main([str(clean)]) == 0

        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(x: list = []) -> list:\n    return x\n")
        assert analysis_main([str(dirty)]) == 1
        out = capsys.readouterr()
        assert "AH001" in out.out

        assert analysis_main([str(tmp_path / "missing.py")]) == 2

        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert analysis_main([str(broken)]) == 2

    def test_cli_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
        assert listed == {
            "AH001", "AH002", "AH003",
            "DT001", "DT002", "DT003",
            "KC001", "KC002", "KC003", "KC004",
            "LS001", "LS002",
        }

    def test_repo_source_tree_is_clean(self):
        repo_src = Path(__file__).resolve().parent.parent / "src"
        findings = analyze_paths([str(repo_src)], all_rules())
        assert findings == [], "\n".join(f.render() for f in findings)
