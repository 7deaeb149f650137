"""Every public function and class of the package is used by the program.

A public module-level ``def`` or ``class`` of ``src/qsodyn`` must be
referenced by name from ``src/`` (outside its own definition and the
package's ``__init__.py``), ``scripts/`` or ``perfbench/``; a name that only
the tests reach is deleted, or the program is made to use it.  A reference
is a loaded name, an imported name or an attribute of a ``qsodyn`` module
(``analysis.f``, ``qsodyn.analysis.f``), so that a field, keyword or method
of the same name (``FixedPointReport.tangent_eigenvalues``) is none.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsodyn"

# the names that nothing references yet, each with the reason it stays
ALLOWED = {
    **dict.fromkeys(
        ["check_invariant_set", "m0_set", "m_omega_set", "vallander_diag", "khukr_m_tau",
         "combine_lyapunov"],
        "joins verify in the change that replaces the step formula, which moves the "
        "golden digest of verify"),
    "save_tensor": "writes the --tensor-file format that load_tensor reads",
}
# cli.main finds the handler of each subcommand by name: "cmd_" + the command
HANDLER_PREFIX = "cmd_"


def public_definitions() -> dict[str, Path]:
    """Each public module-level function and class, with its module's file."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = path
    return found


def references(path: Path):
    """``(name, the top-level definition it sits in or None)`` for each
    reference in the file at ``path``."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    modules |= {f"qsodyn.{name}" for name in modules}
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, owner
            elif isinstance(node, ast.ImportFrom):
                yield from ((alias.name, owner) for alias in node.names)
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules:
                yield node.attr, owner


def unreferenced() -> list[str]:
    """The public names, handlers aside, that the program never references."""
    defined = public_definitions()
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = {name for path in files for name, owner in references(path)
            if name in defined and not (owner == name and defined[name] == path)}
    return sorted(name for name in defined
                  if name not in used and not name.startswith(HANDLER_PREFIX))


def test_every_public_name_is_referenced_by_the_program():
    assert [name for name in unreferenced() if name not in ALLOWED] == []


def test_the_allowlist_holds_only_names_still_unreferenced():
    assert sorted(ALLOWED) == sorted(set(ALLOWED) & set(unreferenced()))
