"""Every JVM check names its site, and the site reaches the outcome.

A check is written one way, ``check(site, failed, error, message, *args)``
(:func:`repro.coverage.probes.check`): it records the branch probe and,
on failure, raises ``error`` with ``site`` set.  A raise with no probe
passes ``site=`` itself.  :meth:`Jvm._rejected` copies the error's site
into :attr:`Outcome.site`, which stays out of equality, hashing and every
encoding.
"""

from __future__ import annotations

import ast
import copy
import pickle
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

import repro.jvm.interpreter  # noqa: F401  (defines UserThrowable)
from repro.classfile.reader import parse_class
from repro.core.executor import make_executor
from repro.coverage.probes import CoverageCollector, check
from repro.errors import JavaError, VerifyError
from repro.jvm.outcome import Outcome, Phase
from repro.jvm.vendors import all_jvms

from tests.test_reader_golden import flipped, reader_suite
from tests.test_vendor_golden import vendor_suite

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: The modules whose raises are JVM checks.
SCANNED = sorted((SRC / "jvm").glob("*.py")) + [SRC / "classfile" / "reader.py"]

#: An :class:`Outcome` pickled (protocol 4) before the ``site`` field.
OLD_OUTCOME_PICKLE = (
    b"\x80\x04\x95\x9e\x00\x00\x00\x00\x00\x00\x00\x8c\x11repro.jvm.outcome"
    b"\x94\x8c\x07Outcome\x94\x93\x94)\x81\x94}\x94(\x8c\x05phase\x94h\x00"
    b"\x8c\x05Phase\x94\x93\x94K\x02\x85\x94R\x94\x8c\x05error\x94\x8c\x0b"
    b"VerifyError\x94\x8c\x07message\x94\x8c\x18Stack shape inconsistent"
    b"\x94\x8c\x06output\x94\x8c\x02hi\x94\x85\x94\x8c\x08jvm_name\x94\x8c"
    b"\x02j9\x94ub.")


# -- the scan ---------------------------------------------------------------------


def _error_names() -> Set[str]:
    names, work = set(), [JavaError]
    while work:
        cls = work.pop()
        names.add(cls.__name__)
        work.extend(cls.__subclasses__())
    return names


def _is_reraise(node: ast.Raise) -> bool:
    """``raise``, ``raise exc``, ``raise copy.copy(error)`` or
    ``raise error.with_traceback(None)``: an error built elsewhere."""
    exc = node.exc
    if exc is None or isinstance(exc, ast.Name):
        return True
    return isinstance(exc, ast.Call) and isinstance(exc.func, ast.Attribute) \
        and exc.func.attr in ("copy", "with_traceback")


def _called(node: ast.AST, name: str) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and (
                getattr(sub.func, "id", None) == name
                or getattr(sub.func, "attr", None) == name):
            yield sub


def scan(source: str, errors: Set[str]) -> List[str]:
    """Every way ``source`` writes a check other than the one way."""
    problems = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            built = getattr(func, "id", None) in errors \
                or getattr(func, "attr", None) == "_fail"
            if built and not any(k.arg == "site" for k in node.keywords):
                problems.append(f"line {node.lineno}: error built without "
                                "site=")
        if isinstance(node, ast.If) and any(_called(node.test, "branch")) \
                and len(node.body) == 1 and isinstance(node.body[0], ast.Raise) \
                and not _is_reraise(node.body[0]):
            problems.append(f"line {node.lineno}: branch-guarded raise "
                            "outside check()")
    return problems


def probed_sites() -> Set[str]:
    """Every site given as a literal to ``check`` or ``branch``."""
    sites = set()
    for path in SCANNED:
        tree = ast.parse(path.read_text())
        for name in ("check", "branch"):
            for call in _called(tree, name):
                first = call.args[0] if call.args else None
                if isinstance(first, ast.Constant):
                    sites.add(first.value)
    return sites


class TestOneWayToWriteACheck:
    def test_scanned_modules_write_every_check_one_way(self):
        errors = _error_names()
        problems = {path.name: scan(path.read_text(), errors)
                    for path in SCANNED}
        assert not {name: found for name, found in problems.items()
                    if found}

    def test_scan_flags_both_old_forms(self):
        old = ('if branch("x.y", bad):\n'
               '    raise VerifyError("message")\n'
               'if policy and branch("x.z", bad):\n'
               '    raise self._fail("message")\n')
        problems = scan(old, _error_names())
        assert len(problems) == 4, problems

    def test_scan_exempts_reraises_and_named_sites(self):
        fine = ('if branch("x.y", bad):\n'
                '    raise\n'
                'if branch("x.z", bad):\n'
                '    raise copy.copy(error)\n'
                'raise VerifyError("message", site="x.w")\n'
                'check("x.v", bad, VerifyError, "message {}", arg)\n')
        assert scan(fine, _error_names()) == []


class TestCheckHelper:
    def test_passing_check_records_false_and_formats_nothing(self):
        class Exploding:
            def __format__(self, spec):
                raise AssertionError("formatted on a passing check")

        collector = CoverageCollector()
        with collector:
            check("test.site", False, VerifyError, "{}", Exploding())
        assert collector.tracefile().branches == {("test.site", False): 1}

    def test_failing_check_raises_with_site(self):
        collector = CoverageCollector()
        with collector, pytest.raises(VerifyError) as info:
            check("test.site", 1, VerifyError, "bad {} in {.real}", "x", 3)
        assert info.value.message == "bad x in 3"
        assert info.value.site == "test.site"
        assert collector.tracefile().branches == {("test.site", True): 1}

    def test_site_survives_copy_and_pickle(self):
        error = VerifyError("m", site="verifier.falloff")
        assert copy.copy(error).site == "verifier.falloff"
        assert pickle.loads(pickle.dumps(error)).site == "verifier.falloff"


# -- every error outcome names its check -------------------------------------------


@pytest.fixture(scope="module")
def fixture_suite() -> List[Tuple[str, bytes]]:
    """The 286 classfiles the vendor golden pins."""
    return vendor_suite()


def test_every_fixture_rejection_names_its_check(fixture_suite):
    probed = probed_sites()
    runs = unnamed = 0
    missing_probe = []
    for label, data in fixture_suite:
        for jvm in all_jvms():
            collector = CoverageCollector()
            with collector:
                outcome = jvm.run(data)
            runs += 1
            if outcome.ok:
                assert outcome.site is None
                continue
            if not outcome.site:
                unnamed += 1
            elif outcome.site in probed and (outcome.site, True) \
                    not in collector.tracefile().branches:
                missing_probe.append((label, jvm.name, outcome.site))
    assert runs == 1430
    assert unnamed == 0
    assert missing_probe == []


def test_every_reader_error_names_its_site():
    errors = 0
    for label, data in reader_suite():
        variants = [data[:length] for length in range(len(data) + 1)]
        for damaged in variants + flipped(data, label):
            error = parse_class(damaged).error
            if error is not None:
                errors += 1
                assert error.site, (label, error.message)
    assert errors > 1000


# -- the site survives every path and changes no identity ------------------------------


def _sites(results) -> List[Tuple[str, ...]]:
    return [tuple(outcome.site for outcome in result.outcomes)
            for result in results]


def test_shared_parse_gives_the_sites_of_runs_on_bytes(fixture_suite):
    replayed = 0
    for label, data in fixture_suite:
        parsed = parse_class(data)
        for jvm in all_jvms():
            shared, own = jvm.run(parsed), jvm.run(data)
            assert (shared, shared.site) == (own, own.site), (label, jvm.name)
            if jvm.name == "hotspot8" and shared.error == "VerifyError":
                replayed += 1
    assert replayed > 0  # hotspot8 replayed hotspot7's verification


def test_process_engine_gives_the_sites_of_the_serial_engine(fixture_suite):
    suite = fixture_suite[:60]
    with make_executor(jobs=1) as serial:
        expected = serial.run_differential(all_jvms(), suite)
    with make_executor(jobs=2) as process:
        actual = process.run_differential(all_jvms(), suite)
    assert _sites(actual) == _sites(expected)
    assert any(site for sites in _sites(actual) for site in sites)


def test_site_stays_out_of_equality_and_hashing():
    first = Outcome(Phase.LINKING, "VerifyError", "m", jvm_name="j9",
                    site="verifier.falloff")
    second = Outcome(Phase.LINKING, "VerifyError", "m", jvm_name="j9",
                     site="verifier.stack_underflow")
    assert first == second
    assert hash(first) == hash(second)


def test_outcome_pickled_before_the_field_loads_without_site():
    outcome = pickle.loads(OLD_OUTCOME_PICKLE)
    assert outcome.site is None
    assert outcome == Outcome(Phase.LINKING, "VerifyError",
                              "Stack shape inconsistent", ("hi",), "j9")

