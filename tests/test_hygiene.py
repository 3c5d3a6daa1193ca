"""Source hygiene: no dead imports, and every public name has a user.

An import that nothing reads is either dead code or a binding another
program reaches into; the second kind is listed in `BINDINGS` with its
reader.  A name in `dpfkit.__all__` that no other module of the package
reads is kept for an outside user, listed in `OUTSIDE_USERS`; each listed
user must still mention it.
"""

import ast
from pathlib import Path

import dpfkit

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "perfbench")
PACKAGE = ROOT / "src" / "dpfkit"

# (file, imported name): why it stays although the file never reads it.
BINDINGS = {
    ("src/dpfkit/dcf.py", "expand"): "perfbench binding: spans.py wraps dcf.expand",
    ("src/dpfkit/pir.py", "eval_all"): "perfbench binding: spans.py wraps pir.eval_all",
}

# Public names that no other package module reads -> their users: files
# that mention them, or the public function whose return type they are.
OUTSIDE_USERS = {
    "COLUMN_GUARD": ("README.md",),
    "CoalitionView": ("simulate_coalition_view",),
    "Database": ("perfbench/workloads.py",),
    "FigureDataset": ("emit_figure",),
    "PirTranscript": ("pir_demo",),
    "check_seed_coverage": ("tests/test_privacy.py",),
    "boyle_column_count": ("tests/test_baselines.py",),
    "crossover_report": ("tests/test_sizing.py",),
    "dcf_eval": ("perfbench/workloads.py",),
    "eval_all": ("perfbench/run.py", "README.md"),
    "expansion_count": ("perfbench/workloads.py",),
    "is_prime": ("tests/test_algebra.py",),
    "key_from_bytes": ("perfbench/workloads.py",),
    "pir_answer": ("perfbench/workloads.py", "README.md"),
    "pir_query": ("perfbench/workloads.py",),
    "pir_reconstruct": ("perfbench/workloads.py",),
    "simulate_coalition_view": ("tests/test_privacy.py",),
    "size_boyle": ("README.md", "tests/test_sizing.py"),
    "size_boyle_crt": ("README.md", "tests/test_sizing.py"),
    "size_bunn_it": ("README.md", "tests/test_sizing.py"),
    "size_bunn_prg": ("README.md", "tests/test_sizing.py"),
    "size_dcf": ("perfbench/workloads.py", "README.md"),
    "size_ours": ("perfbench/workloads.py", "README.md"),
    "size_trivial": ("README.md", "tests/test_sizing.py"),
    "write_database": ("README.md", "tests/test_pir.py"),
}


def _sources():
    for tree in TREES:
        yield from sorted((ROOT / tree).rglob("*.py"))


def _imports(tree: ast.Module):
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, names in `__all__`, and names quoted as annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():  # `__all__` entries, "Class" annotations
                names.add(node.value)
    return names


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name and attribute a module mentions, imports included."""
    names = _read_names(tree)
    names.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    names.update(name for name, _ in _imports(tree))
    return names


def test_every_import_is_read():
    unread = []
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read_names(tree)
        rel = path.relative_to(ROOT).as_posix()
        for name, line in _imports(tree):
            if name not in read and (rel, name) not in BINDINGS:
                unread.append(f"{rel}:{line}: {name}")
    assert unread == []


def test_bindings_are_still_unread_imports():
    for (rel, name), why in BINDINGS.items():
        tree = ast.parse((ROOT / rel).read_text())
        assert name in {bound for bound, _ in _imports(tree)}, why
        assert name not in _read_names(tree), f"{rel} reads {name}; drop its entry"


def test_public_names_without_a_package_user_are_listed_with_theirs():
    # A binding kept only for perfbench is not a use.
    modules = {
        path.stem: _identifiers(ast.parse(path.read_text()))
        - {name for rel, name in BINDINGS if rel == f"src/dpfkit/{path.name}"}
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
    }
    owners = {}
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            owners.update((alias.name, node.module) for alias in node.names)
    outside_only = {
        name
        for name in dpfkit.__all__
        if not any(
            name in names for stem, names in modules.items() if stem != owners[name]
        )
    }
    assert outside_only == set(OUTSIDE_USERS)
    for name, users in OUTSIDE_USERS.items():
        for user in users:
            if user.endswith((".py", ".md")):
                assert name in (ROOT / user).read_text(), f"{user} no longer uses {name}"
            else:
                assert name in getattr(dpfkit, user).__annotations__["return"]
