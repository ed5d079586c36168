"""Every backticked ``module.name`` in README.md and in the package's docstrings
names an attribute the module has, and every backticked CamelCase name, such as
``LinkSeries.from_samples``, a class of the package and its attributes, so a deleted
or renamed name cannot be left behind in the text that describes it. A dataclass
field counts as an attribute."""

import ast
import dataclasses
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
# a name of two or more capitalised words, not after a dot: ``io.BytesIO`` is not the package's
CLASS_REFERENCE = re.compile(r"(?<![\w./-])[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+(?:\.[A-Za-z_]\w*)*")


def references(text, backticks):
    """(module, dotted name) of each module reference inside the backtick spans of ``text``."""
    found = []
    for span in re.findall(backticks, text):
        for match in REFERENCE.finditer(span):
            name = match.group(3)[1:]
            if name.rsplit(".", 1)[-1] not in FILE_SUFFIXES:
                found.append((match.group(2), name))
    return found


def class_references(text, backticks):
    """Each CamelCase name, with the attributes after it, inside the backtick spans of ``text``."""
    return [match.group(0) for span in re.findall(backticks, text) for match in CLASS_REFERENCE.finditer(span)]


def docstrings():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                text = ast.get_docstring(node, clean=False)
                if text:
                    yield path.name, text


README = (ROOT / "README.md").read_text(encoding="utf-8")
README_REFERENCES = references(README, r"`([^`\n]+)`")
DOCSTRING_REFERENCES = [ref for _, text in docstrings() for ref in references(text, r"``([^`]+)``")]
README_CLASS_REFERENCES = class_references(README, r"`([^`\n]+)`")
DOCSTRING_CLASS_REFERENCES = [ref for _, text in docstrings() for ref in class_references(text, r"``([^`]+)``")]


def has_attributes(value, names):
    """Whether each of ``names`` is an attribute of the value the names before it reach. A
    dataclass field without a default is no class attribute, so it ends the walk."""
    for k, name in enumerate(names):
        if hasattr(value, name):
            value = getattr(value, name)
        elif dataclasses.is_dataclass(value) and name in {f.name for f in dataclasses.fields(value)}:
            return k == len(names) - 1
        else:
            return False
    return True


def resolves(module, name):
    return has_attributes(importlib.import_module(f"flowsentry.{module}"), name.split("."))


def class_resolves(reference):
    """Whether some module of the package has the reference's class and its attributes."""
    name, *attributes = reference.split(".")
    modules = [importlib.import_module(f"flowsentry.{module}") for module in MODULES]
    return any(has_attributes(module, [name, *attributes]) for module in modules)


@pytest.mark.parametrize("where, refs", [("README.md", README_REFERENCES), ("docstrings", DOCSTRING_REFERENCES)])
def test_every_backticked_module_reference_resolves(where, refs):
    assert refs, f"no module.name reference found in the {where}"
    assert [f"{module}.{name}" for module, name in refs if not resolves(module, name)] == []


@pytest.mark.parametrize(
    "where, refs", [("README.md", README_CLASS_REFERENCES), ("docstrings", DOCSTRING_CLASS_REFERENCES)]
)
def test_every_backticked_class_reference_resolves(where, refs):
    assert refs, f"no CamelCase reference found in the {where}"
    assert [ref for ref in refs if not class_resolves(ref)] == []


def test_the_reference_pattern_skips_file_names_and_reads_package_paths():
    text = "`ingest.py` `flowsentry.kde.fit` `kde.GRID_RESOLUTION = (512, 512)` `.series.csv.flowsentry` `x.ingest.y`"
    assert references(text, r"`([^`\n]+)`") == [("kde", "fit"), ("kde", "GRID_RESOLUTION")]
    assert not resolves("levelset", "exit_sides")


def test_the_class_pattern_reads_package_classes_their_attributes_and_fields():
    text = "`LinkSeries.from_samples` `io.BytesIO` `ingest.EventLabel` `FlagRow.start_us` `Intervals` `BottleneckSpec`"
    assert class_references(text, r"`([^`\n]+)`") == ["LinkSeries.from_samples", "FlagRow.start_us", "BottleneckSpec"]
    assert class_resolves("LinkSeries.from_samples") and class_resolves("LinkSeries.epoch_us")
    assert resolves("ingest", "EventLabel.start_us")
    assert not class_resolves("BottleneckSpec") and not class_resolves("LinkSeries.epoch_us.size")
