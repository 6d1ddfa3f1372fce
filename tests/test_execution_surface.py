"""Tests for the execution-phase differential surface.

Covers the runtime-divergent seed templates, the opt-in execution-
targeted mutators, the corpus `exec_fraction` knob, and the service-spec
plumbing for the new flags.
"""

import random

import pytest

from repro.core.difftest import DifferentialHarness
from repro.core.mutators import (
    EXECUTION_MUTATORS,
    MUTATOR_COUNT,
    MUTATORS,
    mutator_by_name,
    mutators_in_category,
)
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.corpus.templates import (
    EXEC_TEMPLATES,
    exec_clinit_template,
    exec_fcmp_template,
    exec_handler_order_template,
    exec_narrowing_template,
    exec_string_template,
)
from repro.jimple.to_classfile import compile_class_bytes
from repro.service.jobs import JobError, validate_spec

RUNTIME = 4  # phase code of an execution-phase outcome


class TestExecTemplates:
    """Each template splits the vendors at the execution phase."""

    @pytest.fixture(scope="class")
    def harness(self):
        return DifferentialHarness()

    def _codes(self, harness, template):
        jclass = template("L1436009001")
        result = harness.run_one(compile_class_bytes(jclass),
                                 label=jclass.name)
        assert result.is_discrepancy, template.__name__
        return {o.jvm_name: (o.code, o.error) for o in result.outcomes}

    def test_narrowing_splits_gij(self, harness):
        by_jvm = self._codes(harness, exec_narrowing_template)
        assert by_jvm["gij"] == (RUNTIME, "ArithmeticException")
        assert by_jvm["hotspot9"] == (0, None)

    def test_fcmp_splits_gij(self, harness):
        by_jvm = self._codes(harness, exec_fcmp_template)
        assert by_jvm["gij"] == (RUNTIME, "ArithmeticException")
        assert by_jvm["hotspot7"] == (0, None)

    def test_clinit_splits_j9(self, harness):
        by_jvm = self._codes(harness, exec_clinit_template)
        assert by_jvm["j9"] == (RUNTIME, "ArithmeticException")
        assert by_jvm["gij"] == (0, None)

    def test_handler_order_splits_j9(self, harness):
        by_jvm = self._codes(harness, exec_handler_order_template)
        assert by_jvm["j9"] == (RUNTIME, "ArithmeticException")
        assert by_jvm["hotspot8"] == (0, None)

    def test_string_intrinsic_splits_gij(self, harness):
        by_jvm = self._codes(harness, exec_string_template)
        assert by_jvm["hotspot9"] == (RUNTIME,
                                      "StringIndexOutOfBoundsException")
        # gij has no charAt intrinsic: the call fails at linking instead.
        assert by_jvm["gij"][0] != RUNTIME

    def test_all_templates_compile(self):
        for template in EXEC_TEMPLATES:
            data = compile_class_bytes(template("L1436009002"))
            assert data[:4] == b"\xca\xfe\xba\xbe"


class TestExecFraction:
    def test_default_draws_no_templates(self):
        seeds = generate_corpus(CorpusConfig(count=40, seed=9))
        again = generate_corpus(CorpusConfig(count=40, seed=9,
                                             exec_fraction=0.0))
        assert [str(s) for s in seeds] == [str(a) for a in again]

    def test_full_fraction_yields_runnable_classes(self):
        seeds = generate_corpus(CorpusConfig(count=10, seed=9,
                                             exec_fraction=1.0))
        assert len(seeds) == 10
        for jclass in seeds:
            assert any(m.name == "main" for m in jclass.methods)

    def test_fraction_is_deterministic(self):
        config = CorpusConfig(count=25, seed=3, exec_fraction=0.5)
        first = [str(s) for s in generate_corpus(config)]
        second = [str(s) for s in generate_corpus(config)]
        assert first == second

    def test_mixed_fraction_blends(self):
        seeds = generate_corpus(CorpusConfig(count=60, seed=1,
                                             exec_fraction=0.4))
        with_main = sum(1 for s in seeds
                        if any(m.name == "main" for m in s.methods))
        assert 0 < with_main < 60


class TestExecutionMutators:
    def test_registry_stays_at_paper_count(self):
        assert len(MUTATORS) == MUTATOR_COUNT == 129
        assert not any(m in MUTATORS for m in EXECUTION_MUTATORS)

    def test_lookup_and_category(self):
        assert len(EXECUTION_MUTATORS) == 4
        for mutator in EXECUTION_MUTATORS:
            assert mutator_by_name(mutator.name) is mutator
            assert mutator.category == "execution"
        assert mutators_in_category("execution") == EXECUTION_MUTATORS

    @pytest.mark.parametrize("name, template", [
        ("jimple.inject_edge_value", exec_narrowing_template),
        ("jimple.nudge_comparison", exec_narrowing_template),
        ("jimple.insert_narrowing_cast", exec_narrowing_template),
        ("jimple.permute_handlers", exec_handler_order_template),
    ])
    def test_applies_and_still_compiles(self, name, template):
        mutator = mutator_by_name(name)
        jclass = template("L1436009003")
        assert mutator(jclass, random.Random(5)) is True
        data = compile_class_bytes(jclass)
        assert data[:4] == b"\xca\xfe\xba\xbe"

    def test_permute_handlers_needs_two_traps(self):
        mutator = mutator_by_name("jimple.permute_handlers")
        jclass = exec_narrowing_template("L1436009004")  # no traps
        assert mutator(jclass, random.Random(5)) is False


class TestServiceSpec:
    def test_defaults_off(self):
        spec = validate_spec({"type": "fuzz"})
        assert spec["exec_fraction"] == 0.0
        assert spec["execution_mutators"] is False
        assert "cmp_coverage" not in spec

    def test_roundtrip(self):
        # A spec from before the comparison probe kind was deleted still
        # validates; its cmp_coverage field is no longer stored.
        spec = validate_spec({"type": "campaign", "exec_fraction": 0.25,
                              "execution_mutators": True,
                              "cmp_coverage": True})
        assert spec["exec_fraction"] == 0.25
        assert spec["execution_mutators"] is True
        assert "cmp_coverage" not in spec

    @pytest.mark.parametrize("bad", [-0.1, 1.5, "half"])
    def test_rejects_bad_fraction(self, bad):
        with pytest.raises(JobError):
            validate_spec({"type": "fuzz", "exec_fraction": bad})
