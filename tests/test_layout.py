"""Module boundaries inside the package: no private names cross modules,
and every option is declared once."""

import ast
from dataclasses import fields
from pathlib import Path

import mfcutfem
from mfcutfem.harness import RunConfig, _build_parser, _CONVERTERS
from mfcutfem.operators import Parameters

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mfcutfem"


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert not offenders, "\n".join(offenders)


def test_options_are_declared_once():
    # RunConfig is the list of options: each field is a flag and a config key,
    # and each numerical Parameters option is one of its fields
    options = [f.name for f in fields(RunConfig) if f.name != "command"]
    flags = {a.dest for a in _build_parser()._actions if a.option_strings} - {"help", "config"}
    assert sorted(flags) == sorted(options)
    assert list(_CONVERTERS) == options
    assert {f.name for f in fields(Parameters)} - {"degree"} <= set(options)


def test_cut_quadrature_reads_the_level_set_only_through_eval():
    # _eval checks the shape and finiteness of every value and gradient read
    tree = ast.parse((PACKAGE / "cutquad.py").read_text(encoding="utf-8"))
    (reader,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_eval"]
    inside = {id(n) for n in ast.walk(reader)}
    reads = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in ("value", "gradient")
    ]
    assert reads
    assert all(id(n) in inside for n in reads), [n.lineno for n in reads if id(n) not in inside]


def test_one_class_per_level_set_shape():
    # a sphere is the one-ball union, so balls have one value and gradient
    tree = ast.parse((PACKAGE / "geometry.py").read_text(encoding="utf-8"))
    defined = {
        (cls.name, fn.name)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name in ("value", "gradient")
    }
    assert defined == {(c, m) for c in ("BallUnionLevelSet", "HalfSpaceLevelSet") for m in ("value", "gradient")}


def test_every_definition_has_a_caller():
    # a function or class of the package is public (in __all__) or named by
    # the package, the demos or perfbench; tests and __init__.py do not count,
    # and dunder methods are called by Python itself
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += [p for d in ("demos", "perfbench") for p in (ROOT / d).rglob("*.py") if not p.name.startswith("test_")]
    named = {
        n.id if isinstance(n, ast.Name) else n.attr
        for path in callers for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    unused = [f"{where} {name}" for name, where in defined.items() if name not in named | set(mfcutfem.__all__)]
    assert not unused, "\n".join(unused)
