"""Documentation consistency: the policy matrix must match the code."""

import contextlib
import io
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.jvm.policy import JvmPolicy
from repro.jvm.vendors import all_jvms

DOC = Path(__file__).resolve().parent.parent / "docs" / "policy-axes.md"


@pytest.fixture(scope="module")
def doc_rows():
    text = DOC.read_text()
    rows = {}
    for line in text.splitlines():
        match = re.match(r"\| `(\w+)` \| (.+?) \|", line)
        if match:
            cells = [c.strip() for c in line.strip("|").split("|")]
            rows[match.group(1)] = cells[1:6]
    return rows


def test_every_policy_field_documented(doc_rows):
    """Each field has a row, and each row a field."""
    assert set(doc_rows) == {f.name for f in fields(JvmPolicy)}


def test_documented_values_match_vendors(doc_rows):
    jvms = {jvm.name: jvm.policy for jvm in all_jvms()}
    order = ("hotspot7", "hotspot8", "hotspot9", "j9", "gij")
    for field_name, cells in doc_rows.items():
        for vendor, cell in zip(order, cells):
            assert cell == str(getattr(jvms[vendor], field_name)), \
                f"{field_name} for {vendor}: doc says {cell}"


def test_the_matrix_snippet_prints_the_value_columns():
    """The doc's snippet prints each row's field and five value cells."""
    text = DOC.read_text()
    snippet = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(snippet, {})
    lines = printed.getvalue().splitlines()
    rows = [line for line in text.splitlines() if line.startswith("| `")]
    assert len(rows) == len(lines)
    assert [row[:len(line)] for row, line in zip(rows, lines)] == lines


def test_readme_mentions_core_entry_points():
    readme = (DOC.parent.parent / "README.md").read_text()
    for needle in ("classfuzz", "pytest benchmarks/", "python -m repro",
                   "DESIGN.md", "EXPERIMENTS.md"):
        assert needle in readme, needle


def test_design_doc_lists_every_bench():
    design = (DOC.parent.parent / "DESIGN.md").read_text()
    bench_dir = DOC.parent.parent / "benchmarks"
    for bench in bench_dir.glob("test_bench_*.py"):
        # Every bench file is referenced from DESIGN.md or EXPERIMENTS.md.
        experiments = (DOC.parent.parent / "EXPERIMENTS.md").read_text()
        assert bench.name in design + experiments, bench.name


def test_design_module_map_paths_exist():
    """Every module path in DESIGN.md's module map names real files."""
    design = (DOC.parent.parent / "DESIGN.md").read_text()
    section = design.split("## System inventory (module map)", 1)[1]
    section = section.split("\n## ", 1)[0]
    src = DOC.parent.parent / "src"
    paths = re.findall(r"`(repro/[^`]+)`", section)
    assert len(paths) > 20
    for path in paths:
        match = re.fullmatch(r"(.*)\{(.+)\}(.*)", path)
        names = ([match.group(1) + name + match.group(3)
                  for name in match.group(2).split(",")]
                 if match else [path])
        for name in names:
            found = list(src.glob(name))
            assert found, f"DESIGN.md module map names missing {name}"
