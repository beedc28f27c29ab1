"""Every name ``src/energyshare`` defines is used somewhere in ``src/``.

A function, class, method or assigned name (module or class level) must
be referenced in the package besides its own definition: read as a name
or an attribute, or passed as a keyword. Names are matched by spelling,
across modules, so this finds dead code and write-only state, not every
unused attribute. Dunder names are exempt, since Python calls them.

Likewise every attribute a method sets on ``self`` must be read as an
attribute somewhere in ``src/`` (matched by spelling), so an instance
keeps no write-only state.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "energyshare"

# name -> why it stays although nothing in src/ uses it
ALLOWED_UNUSED = {
    "TERMINAL_PHASES": "named by acceptance criterion 7",
    "select_provider": "named by acceptance criterion 8",
    "total_overhead_mah": "named by acceptance criterion 5",
    "record_tick": "named by acceptance criterion 5; bench/layers.py wraps runner's",
    "trace_csv_rows": "the row form of the trace CSV: the column writer is tested against it byte for byte",
    "predict_outcome": "the closed-form oracle of acceptance criterion 6",
    "dataset_digest": "read by the benchmark in bench/",
    "dataset_from_parts": "imported by bench/; the decoder tests' whole-text reference",
    "records_from_csv_text": "imported by bench/; the decoder tests' whole-text reference",
    "validate_dataset": "imported by bench/; the decoder tests' whole-text reference",
}

# attribute -> why it stays although nothing in src/ reads it
ALLOWED_WRITE_ONLY: dict[str, str] = {}


def _scan() -> tuple[dict[str, list[str]], set[str]]:
    definitions: dict[str, list[str]] = {}
    references: set[str] = set()

    def define(name: str, path: Path, node: ast.AST) -> None:
        definitions.setdefault(name, []).append(f"{path.name}:{node.lineno}")

    def collect(body: list[ast.stmt], path: Path) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                define(node.name, path, node)
                if isinstance(node, ast.ClassDef):
                    collect(node.body, path)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        define(target.id, path, node)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                define(node.target.id, path, node)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        collect(tree.body, path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                references.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                references.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                references.add(node.arg)
    return definitions, references


def test_every_defined_name_is_used_in_src():
    definitions, references = _scan()
    unused = {
        name: where
        for name, where in definitions.items()
        if name not in references and not (name.startswith("__") and name.endswith("__"))
    }
    assert {n: w for n, w in unused.items() if n not in ALLOWED_UNUSED} == {}
    # the allow-list stays exact: an entry that is used again, or gone, is removed
    assert set(unused) == set(ALLOWED_UNUSED)


def _self_attributes() -> tuple[dict[str, list[str]], set[str]]:
    """Attributes assigned on ``self`` (with where), and every attribute read."""
    writes: dict[str, list[str]] = {}
    reads: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif (
                isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                writes.setdefault(node.attr, []).append(f"{path.name}:{node.lineno}")
    return writes, reads


def test_every_attribute_set_on_self_is_read_in_src():
    writes, reads = _self_attributes()
    write_only = {attr: where for attr, where in writes.items() if attr not in reads}
    assert {a: w for a, w in write_only.items() if a not in ALLOWED_WRITE_ONLY} == {}
    # the allow-list stays exact, as above
    assert set(write_only) == set(ALLOWED_WRITE_ONLY)
