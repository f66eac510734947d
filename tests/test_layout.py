"""Module boundaries inside the package: no private names cross modules,
and every option is declared once."""

import ast
from dataclasses import fields
from pathlib import Path

from mfcutfem.harness import RunConfig, _build_parser, _CONVERTERS
from mfcutfem.operators import Parameters

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mfcutfem"


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
