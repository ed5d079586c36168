"""Every backticked ``module.name`` in README.md and in the package's docstrings
names an attribute the module has, so a deleted or renamed name cannot be left
behind in the text that describes it."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flowsentry"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
# ``ingest.py``, ``scatter.svg``: a file, not an attribute
FILE_SUFFIXES = {"py", "csv", "json", "svg"}
REFERENCE = re.compile(rf"(?<![\w./-])(flowsentry\.)?({'|'.join(MODULES)})((?:\.[A-Za-z_]\w*)+)")


def references(text, backticks):
    """(module, dotted name) of each module reference inside the backtick spans of ``text``."""
    found = []
    for span in re.findall(backticks, text):
        for match in REFERENCE.finditer(span):
            name = match.group(3)[1:]
            if name.rsplit(".", 1)[-1] not in FILE_SUFFIXES:
                found.append((match.group(2), name))
    return found


def docstrings():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                text = ast.get_docstring(node, clean=False)
                if text:
                    yield path.name, text


README_REFERENCES = references((ROOT / "README.md").read_text(encoding="utf-8"), r"`([^`\n]+)`")
DOCSTRING_REFERENCES = [ref for _, text in docstrings() for ref in references(text, r"``([^`]+)``")]


def resolves(module, name):
    value = importlib.import_module(f"flowsentry.{module}")
    for part in name.split("."):
        if not hasattr(value, part):
            return False
        value = getattr(value, part)
    return True


@pytest.mark.parametrize("where, refs", [("README.md", README_REFERENCES), ("docstrings", DOCSTRING_REFERENCES)])
def test_every_backticked_module_reference_resolves(where, refs):
    assert refs, f"no module.name reference found in the {where}"
    assert [f"{module}.{name}" for module, name in refs if not resolves(module, name)] == []


def test_the_reference_pattern_skips_file_names_and_reads_package_paths():
    text = "`ingest.py` `flowsentry.kde.fit` `kde.GRID_RESOLUTION = (512, 512)` `.series.csv.flowsentry` `x.ingest.y`"
    assert references(text, r"`([^`\n]+)`") == [("kde", "fit"), ("kde", "GRID_RESOLUTION")]
    assert not resolves("levelset", "exit_sides")
