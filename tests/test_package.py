"""The package's public surface.

``effectkit`` exports the names that README's quick start and the
benchmark import from it, plus the verdict constants README documents;
everything else is imported from its submodule.  The command line loads
the harness only for the harness command.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import effectkit
from effectkit import coexistence, harness, hermitian
from effectkit.hermitian import random_effect
from effectkit.matrixio import write_document, write_matrix
from effectkit.preservers import preserver_spec_document, random_standard_spec

ROOT = Path(__file__).resolve().parent.parent
VERDICT_CONSTANTS = {"CERT_TOL", "FEAS_TOL", "SEP_TOL", "MAX_STEPS"}


def _imports_from_effectkit(tree):
    """The `from effectkit import ...` statements of a parsed module."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "effectkit"]


def _bench_imports():
    return [node for name in ("workloads.py", "probes.py")
            for node in _imports_from_effectkit(ast.parse((ROOT / "bench" / name).read_text()))]


def _readme_imports():
    text = (ROOT / "README.md").read_text()
    blocks = [block.split("```")[0] for block in text.split("```python\n")[1:]]
    return [node for block in blocks for node in _imports_from_effectkit(ast.parse(block))]


def test_every_bench_import_from_effectkit_resolves():
    nodes = _bench_imports()
    assert nodes
    for node in nodes:
        exec(compile(ast.Module([node], type_ignores=[]), "<bench import>", "exec"), {})


def test_effectkit_exports_the_documented_names_only():
    documented = {alias.name for node in _bench_imports() + _readme_imports()
                  for alias in node.names}
    exported = {name for name, value in vars(effectkit).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    submodules = {path.stem for path in Path(effectkit.__file__).parent.glob("*.py")}
    assert exported == (documented - submodules) | VERDICT_CONSTANTS
    assert not hasattr(effectkit, "__getattr__")


@pytest.mark.parametrize("module, name", [
    (hermitian, "strictly_less"),
    (hermitian, "identity_effect"),
    (hermitian, "zero_effect"),
    (hermitian, "eig"),
    (hermitian, "spectrum"),
    (hermitian, "RECONSTRUCTION_TOL"),
    (harness, "write_report"),
    (coexistence, "interior_perturbation"),
])
def test_deleted_names_are_gone(module, name):
    assert not hasattr(effectkit, name)
    assert not hasattr(module, name)


def test_cli_commands_other_than_harness_do_not_import_it(tmp_path):
    a, spec = tmp_path / "a.mat", tmp_path / "std.spec"
    write_matrix(a, random_effect(2, seed=1))
    write_document(spec, preserver_spec_document(random_standard_spec(2, seed=2)))
    commands = [["check", str(a), str(a)], ["stratify", str(a)],
                ["apply", "--map", "standard", "--spec", str(spec), str(a)],
                ["reconstruct", "--map-spec", str(spec)]]
    script = (
        "import sys\n"
        "import effectkit.cli\n"
        "loaded = ['effectkit.harness' in sys.modules]\n"
        f"for args in {commands!r}:\n"
        "    assert effectkit.cli.main(args) == 0, args\n"
        "    loaded.append('effectkit.harness' in sys.modules)\n"
        "effectkit.cli.main(['harness', '--dims', '2', '--trials', '1',"
        " '--suites', 'convexity'])\n"
        "loaded.append('effectkit.harness' in sys.modules)\n"
        "print(loaded, file=sys.stderr)\n")
    src = str(Path(effectkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == repr([False] * 5 + [True])
