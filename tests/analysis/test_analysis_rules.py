"""Per-rule fixtures: each rule flags its bad fixture, stays quiet on the
good one, and honours a justified suppression.

Fixture sources are *strings* handed to :meth:`FileContext.parse` under a
synthetic path, so the category scoping (src vs tests vs benchmarks) is
exercised without touching the real tree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import FileContext, Finding, all_rules

SRC = "src/repro/fake_module.py"
TESTS = "tests/test_fake_module.py"
BENCH = "benchmarks/bench_fake.py"


def run_rule(code: str, source: str, path: str = SRC) -> list[Finding]:
    context = FileContext.parse(Path(path), source=source)
    (rule,) = all_rules([code])
    if not rule.applies_to(context):
        return []
    return list(rule.check(context))


def assert_suppressed(code: str, source: str, path: str = SRC) -> None:
    """The finding is still produced but a justified suppression covers it."""
    from repro.analysis.engine import _match_suppression

    context = FileContext.parse(Path(path), source=source)
    findings = run_rule(code, source, path)
    assert findings, "suppression fixture must still trigger the rule"
    for finding in findings:
        assert _match_suppression(finding, context.suppressions) is not None


class TestREP001Determinism:
    def test_legacy_global_rng_flagged(self):
        source = "import numpy as np\n\ndef draw():\n    return np.random.rand(4)\n"
        (finding,) = run_rule("REP001", source)
        assert "global RNG state" in finding.message
        assert finding.line == 4

    def test_import_alias_resolved(self):
        source = "from numpy import random\n\ndef draw():\n    return random.rand(4)\n"
        (finding,) = run_rule("REP001", source)
        assert "np.random.rand" in finding.message

    def test_unseeded_default_rng_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        (finding,) = run_rule("REP001", source)
        assert "OS entropy" in finding.message

    def test_stdlib_random_flagged(self):
        source = "import random\n\ndef draw():\n    return random.random()\n"
        (finding,) = run_rule("REP001", source)
        assert "process-global state" in finding.message

    @pytest.mark.parametrize(
        "call", ["time.time()", "datetime.datetime.now()", "datetime.date.today()"]
    )
    def test_wallclock_reads_flagged(self, call):
        source = f"import datetime\nimport time\n\nstamp = {call}\n"
        (finding,) = run_rule("REP001", source)
        assert "wall-clock" in finding.message

    def test_seeded_generator_and_perf_counter_clean(self):
        source = (
            "import time\n"
            "import numpy as np\n\n"
            "rng = np.random.default_rng(7)\n"
            "started = time.perf_counter()\n"
            "draws = rng.normal(size=8)\n"
        )
        assert run_rule("REP001", source) == []

    def test_tests_are_exempt(self):
        source = "import numpy as np\nx = np.random.rand(4)\n"
        assert run_rule("REP001", source, path=TESTS) == []

    def test_benchmarks_are_not_exempt(self):
        source = "import numpy as np\nx = np.random.rand(4)\n"
        assert len(run_rule("REP001", source, path=BENCH)) == 1

    def test_suppression_honoured(self):
        assert_suppressed(
            "REP001",
            "import numpy as np\n"
            "# repro: ignore[REP001] -- fixture: documented fresh-entropy opt-in\n"
            "rng = np.random.default_rng()\n",
        )


class TestREP002Picklability:
    def test_lambda_into_fan_out_flagged(self):
        source = (
            "from repro.concurrency import fan_out\n\n"
            "def run(items):\n"
            "    return fan_out(items, lambda x: x, None)\n"
        )
        (finding,) = run_rule("REP002", source)
        assert "fan_out" in finding.message

    def test_local_function_into_shard_constructor_flagged(self):
        source = (
            "def build(power_model):\n"
            "    def factory(index):\n"
            "        return index\n"
            "    return ServerSpec(name='x', strategy_factory=factory)\n"
        )
        (finding,) = run_rule("REP002", source)
        assert "local function 'factory'" in finding.message
        assert "strategy_factory=" in finding.message

    def test_name_bound_lambda_into_executor_map_flagged(self):
        source = (
            "def run(executor, items):\n"
            "    work = lambda value: value\n"
            "    return executor.map(work, items)\n"
        )
        (finding,) = run_rule("REP002", source)
        assert "executor.map" in finding.message

    def test_shard_constructor_exempt_in_tests_but_fan_out_is_not(self):
        constructor = (
            "def build():\n"
            "    return ServerSpec(name='x', strategy_factory=lambda i: i)\n"
        )
        assert run_rule("REP002", constructor, path=TESTS) == []
        fan = (
            "from repro.concurrency import fan_out\n\n"
            "def run(items):\n"
            "    return fan_out(items, lambda x: x, None)\n"
        )
        assert len(run_rule("REP002", fan, path=TESTS)) == 1

    def test_homogeneous_farm_lambda_flagged_in_src_only(self):
        source = (
            "def build(power_model, spec):\n"
            "    return ServerFarm.homogeneous(\n"
            "        2, power_model, spec,\n"
            "        strategy_factory=lambda i: i, predictor_factory=make,\n"
            "    )\n"
        )
        (finding,) = run_rule("REP002", source)
        assert "homogeneous" in finding.message
        assert "strategy_factory=" in finding.message
        assert run_rule("REP002", source, path=TESTS) == []

    def test_class_attribute_lambda_flagged_in_src_only(self):
        source = "class Spec:\n    factory = lambda index: index\n"
        (finding,) = run_rule("REP002", source)
        assert "Spec.factory" in finding.message
        assert run_rule("REP002", source, path=TESTS) == []

    def test_module_level_function_clean(self):
        source = (
            "from repro.concurrency import fan_out\n\n"
            "def work(value):\n"
            "    return value\n\n"
            "def run(items, executor=None):\n"
            "    return fan_out(items, work, None, executor=executor)\n"
        )
        assert run_rule("REP002", source) == []

    def test_suppression_honoured(self):
        assert_suppressed(
            "REP002",
            "def run(pool, items):\n"
            "    # repro: ignore[REP002] -- fixture: serial-only by construction\n"
            "    return pool.map(lambda v: v, items)\n",
            path=TESTS,
        )


class TestREP004FloatEquality:
    def test_unsafe_literal_flagged(self):
        (finding,) = run_rule("REP004", "ok = value == 0.35\n")
        assert "0.35" in finding.message

    def test_quantity_name_comparison_flagged(self):
        source = "def gate(a, b):\n    return a.total_energy != b.total_energy\n"
        (finding,) = run_rule("REP004", source)
        assert "total_energy" in finding.message

    def test_quarter_step_sentinels_clean(self):
        source = (
            "checks = [beta == 0.0, share == 0.25, x != 1.5, count == 3, "
            "name == 'x']\n"
        )
        assert run_rule("REP004", source) == []

    def test_non_quantity_names_clean(self):
        assert run_rule("REP004", "same = left_index == right_index\n") == []

    def test_ordering_comparisons_clean(self):
        assert run_rule("REP004", "better = candidate_energy < oracle_energy\n") == []

    def test_tests_are_exempt(self):
        source = "def gate(a, b):\n    return a.total_energy != b.total_energy\n"
        assert run_rule("REP004", source, path=TESTS) == []

    def test_suppression_honoured(self):
        assert_suppressed(
            "REP004",
            "# repro: ignore[REP004] -- fixture: bit-identity by parity contract\n"
            "diverged = candidate_energy != oracle_energy\n",
        )


class TestREP005FanOutConformance:
    def test_missing_executor_parameter_flagged(self):
        source = (
            "from repro.concurrency import fan_out\n\n"
            "def sweep(items):\n"
            "    return fan_out(items, handler, 4)\n"
        )
        (finding,) = run_rule("REP005", source)
        assert "does not accept executor=" in finding.message

    def test_unforwarded_call_flagged(self):
        source = (
            "from repro.concurrency import fan_out\n\n"
            "def sweep(items, executor=None):\n"
            "    return fan_out(items, handler, 4)\n"
        )
        (finding,) = run_rule("REP005", source)
        assert "does not forward" in finding.message

    def test_forwarding_entry_point_clean(self):
        source = (
            "from repro.concurrency import fan_out\n\n"
            "def sweep(items, executor=None):\n"
            "    return fan_out(items, handler, 4, executor=executor)\n"
        )
        assert run_rule("REP005", source) == []

    def test_kwargs_passthrough_counts_as_forwarding(self):
        source = (
            "from repro.concurrency import fan_out\n\n"
            "def sweep(items, executor=None, **kwargs):\n"
            "    return fan_out(items, handler, 4, **kwargs)\n"
        )
        assert run_rule("REP005", source) == []

    def test_private_helpers_exempt(self):
        source = (
            "from repro.concurrency import fan_out\n\n"
            "def _sweep(items):\n"
            "    return fan_out(items, handler, 4)\n"
        )
        assert run_rule("REP005", source) == []

    def test_only_applies_to_src(self):
        source = (
            "from repro.concurrency import fan_out\n\n"
            "def sweep(items):\n"
            "    return fan_out(items, handler, 4)\n"
        )
        assert run_rule("REP005", source, path=BENCH) == []

    def test_suppression_honoured(self):
        assert_suppressed(
            "REP005",
            "from repro.concurrency import fan_out\n\n"
            "# repro: ignore[REP005] -- fixture: executor fixed by the protocol\n"
            "def sweep(items):\n"
            "    return fan_out(items, handler, 4)\n",
        )


class TestREP006Hygiene:
    def test_mutable_default_flagged(self):
        (finding,) = run_rule("REP006", "def f(x=[]):\n    return x\n")
        assert "shared across calls" in finding.message

    def test_mutable_factory_default_flagged(self):
        (finding,) = run_rule("REP006", "def f(x=dict()):\n    return x\n")
        assert "mutable default" in finding.message

    def test_bare_except_flagged(self):
        source = "try:\n    pass\nexcept:\n    pass\n"
        (finding,) = run_rule("REP006", source)
        assert "bare except" in finding.message

    def test_broad_except_pass_flagged(self):
        source = "try:\n    pass\nexcept Exception:\n    pass\n"
        (finding,) = run_rule("REP006", source)
        assert "swallows errors" in finding.message

    def test_clean_handlers_and_defaults(self):
        source = (
            "def f(x=None, y=()):\n"
            "    try:\n"
            "        return list(x or y)\n"
            "    except TypeError:\n"
            "        pass\n"
            "    except Exception as error:\n"
            "        return repr(error)\n"
        )
        assert run_rule("REP006", source) == []

    def test_applies_to_every_category(self):
        source = "def f(x=[]):\n    return x\n"
        for path in (SRC, TESTS, BENCH):
            assert len(run_rule("REP006", source, path=path)) == 1

    def test_suppression_honoured(self):
        assert_suppressed(
            "REP006",
            "try:\n    pass\n"
            "# repro: ignore[REP006] -- fixture: probing interpreter shutdown\n"
            "except:\n    pass\n",
        )
