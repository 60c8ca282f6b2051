"""Each pass that blocks its rows chooses the blocks once: `core.row_blocks`
is called only by those passes, never by the group kernels they call."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mndbn"

BLOCKING_PASSES = ["mixed_norm._epoch_metrics", "mixed_norm.penalty_grad", "synth.make_synthetic"]


def row_block_callers(source: str, module: str) -> list:
    """`module.name` of the top-level definition around each call of
    `row_blocks` (by name or as an attribute), or `module.<module>` for a
    call outside any definition; in source order."""
    callers = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "row_blocks":
                    callers.append(f"{module}.{owner}")
    return callers


def test_checker_names_the_enclosing_top_level_definition():
    source = (
        "from .core import row_blocks\nfrom . import core\n\n"
        "def outer(n):\n    def inner():\n        return row_blocks(n, 4)\n    return inner()\n\n"
        "class Pass:\n    def run(self, n):\n        return core.row_blocks(n, 4)\n\n"
        "BLOCKS = row_blocks(8, 4)\n"
    )
    assert row_block_callers(source, "m") == ["m.outer", "m.Pass", "m.<module>"]


def test_row_blocks_is_called_only_by_the_blocking_passes():
    callers = []
    for path in sorted(SRC.glob("*.py")):
        callers += row_block_callers(path.read_text(encoding="utf-8"), path.stem)
    assert sorted(callers) == BLOCKING_PASSES
