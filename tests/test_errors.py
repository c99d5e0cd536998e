"""The error vocabulary: every refusal in the package raises one of the classes in errors.py."""

import ast
from pathlib import Path

import sizebias

SRC = Path(sizebias.__file__).parent
VOCABULARY = {"SizeBiasError", "DomainError", "ZeroMean", "SupportOverflow", "TruncationTooSevere",
              "NoClosedForm", "NoSampler", "BoundViolated"}


def _raises(path):
    """(line, class name) of each raise statement in a module that names its class."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield node.lineno, exc.id


def test_no_bare_value_error_and_no_unraised_class():
    raised, bare = set(), []
    for path in sorted(SRC.glob("*.py")):
        for line, name in _raises(path):
            raised.add(name)
            if name == "ValueError":
                bare.append(f"{path.name}:{line}")
    assert bare == [], "raise one of the errors.py classes instead of ValueError"
    tree = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == VOCABULARY
    assert sorted(classes - raised) == [], "a class no module raises"
