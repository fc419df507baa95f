"""The README's "Environment knobs" table lists exactly the knobs ``src/`` reads.

Knob names are collected statically: every ``REPRO_*`` name passed to a call
(``os.environ.get``, ``os.getenv``, a parse-and-warn helper) or used as a
subscript (``os.environ[...]``), either as a literal or through a
module-level ``*_ENV`` constant.  A knob added without a README row, or a
README row left behind by a deleted knob, fails here.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
KNOB = re.compile(r"^REPRO_[A-Z_]+$")


def _modules():
    for path in sorted((ROOT / "src").rglob("*.py")):
        yield ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _knob_constants(trees) -> dict:
    """Module-level ``NAME = "REPRO_..."`` bindings across the package."""
    constants = {}
    for tree in trees:
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
                and KNOB.match(node.value.value)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        constants[target.id] = node.value.value
    return constants


def _resolve(node, constants):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if KNOB.match(node.value) else None
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    if isinstance(node, ast.Attribute):
        return constants.get(node.attr)
    return None


def knobs_read_in_src(trees=None) -> set:
    trees = list(_modules()) if trees is None else list(trees)
    constants = _knob_constants(trees)
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                keys = node.args
            elif isinstance(node, ast.Subscript):
                keys = [node.slice]
            else:
                continue
            read.update(filter(None, (_resolve(key, constants) for key in keys)))
    return read


def knobs_in_readme() -> set:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("Environment knobs:", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", table, flags=re.MULTILINE))


def test_readme_knob_table_matches_the_environment_reads():
    read, documented = knobs_read_in_src(), knobs_in_readme()
    assert read, "found no environment reads at all — the scan is broken"
    assert read - documented == set(), "knobs missing from the README table"
    assert documented - read == set(), "README rows for knobs src/ never reads"


def test_scan_sees_literal_constant_and_attribute_reads():
    source = textwrap.dedent(
        """
        import os
        LEVEL_ENV = "REPRO_B"
        os.environ.get("REPRO_A", "")
        os.environ[LEVEL_ENV]
        os.getenv(config.WIDTH_ENV)
        WIDTH_ENV = "REPRO_C"
        print("REPRO_not_a_knob", "REPRO_D".lower())
        """
    )
    assert knobs_read_in_src([ast.parse(source)]) == {"REPRO_A", "REPRO_B", "REPRO_C"}


@pytest.mark.parametrize(
    "knob", ["REPRO_SHARD_PROCS", "REPRO_BREAKER_THRESHOLD", "REPRO_BREAKER_COOLDOWN"]
)
def test_deleted_knob_stays_deleted(knob):
    assert knob not in knobs_read_in_src()
    assert knob not in (ROOT / "README.md").read_text(encoding="utf-8")
    for path in (ROOT / "src").rglob("*.py"):
        assert knob not in path.read_text(encoding="utf-8"), path.name
