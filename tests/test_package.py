import ast
import os
import subprocess
import sys
from pathlib import Path

import congspeed


def test_every_export_resolves():
    for name in congspeed.__all__:
        assert hasattr(congspeed, name), name


def test_exports_are_the_imported_public_names():
    # A helper deleted from a module must not leave a stale export behind,
    # and every public name the package imports must be exported.
    tree = ast.parse(Path(congspeed.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(congspeed.__all__) == sorted(n for n in imported if not n.startswith("_"))


def test_oracle_imports_nothing_from_the_formula_side():
    # The oracle is the independent check on the formula system and the
    # prime search, so speed.py and arith.py must not reach them.
    formula_side = {"classes", "decadic", "primes", "verify"}
    package = Path(congspeed.__file__).parent
    for name in ("speed.py", "arith.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                prefix = node.module or ""
                modules = [prefix] + [f"{prefix}.{alias.name}" for alias in node.names]
            else:
                continue
            for module in modules:
                assert not formula_side & set(module.split(".")), (name, module)


def test_no_module_reads_the_environment():
    # Every answer follows from the arguments alone: no hidden knob such as
    # a precision taken from an environment variable.
    for path in Path(congspeed.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("environ", "environb", "getenv", "getenvb"), path.name
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not [a.name for a in node.names if "env" in a.name], path.name


def test_python_m_runs_the_cli():
    src = str(Path(congspeed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "congspeed", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        return done.returncode, done.stdout, done.stderr

    assert run("min-base", "4") == (0, "15\n", "")
    code, out, err = run("speed", "40")
    assert (code, out) == (2, "") and err.startswith("error:")


def test_tower_reference_imports_no_private_name():
    # A helper borrowed from arith would let a wrong exact tower pass the
    # comparison with its own output, so the reference reaches the package
    # only through from-imports of public names.
    path = Path(__file__).with_name("reference_tower.py")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "congspeed"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "congspeed":
            assert not [a.name for a in node.names if a.name.startswith("_")], node.module
