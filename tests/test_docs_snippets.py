"""The documentation's code snippets must actually run.

Extracts the README's quickstart Python block and executes it (at a
reduced task count), and checks the CLI lines it advertises parse.
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"```python\n(.*?)```", text, re.DOTALL)


def bash_blocks(text):
    return re.findall(r"```bash\n(.*?)```", text, re.DOTALL)


@pytest.fixture(scope="module")
def readme_text():
    return README.read_text()


def test_readme_quickstart_block_runs(readme_text):
    blocks = python_blocks(readme_text)
    assert blocks, "README must have a python quickstart"
    code = blocks[0].replace("num_tasks=600", "num_tasks=40") \
                    .replace("capacity_files=600", "capacity_files=400")
    namespace = {}
    exec(compile(code, "README-quickstart", "exec"), namespace)


def test_readme_cli_lines_parse(readme_text):
    from repro.cli import build_parser
    parser = build_parser()
    for block in bash_blocks(readme_text):
        for line in block.splitlines():
            line = line.strip()
            if not line.startswith("python -m repro "):
                continue
            argv = line.split()[3:]
            # parse only; don't execute (some would run for minutes)
            args = parser.parse_args(argv)
            assert args.command


def test_readme_mentions_every_package(readme_text):
    for package in ("repro.sim", "repro.net", "repro.grid",
                    "repro.workload", "repro.core", "repro.exp",
                    "repro.analysis"):
        assert package in readme_text


def test_examples_referenced_in_readme_exist(readme_text):
    for match in re.findall(r"examples/([a-z_]+\.py)", readme_text):
        assert (README.parent / "examples" / match).exists(), match


def test_docs_files_exist(readme_text):
    for match in re.findall(r"docs/([a-z-]+\.md)", readme_text):
        assert (README.parent / "docs" / match).exists(), match


def test_experiments_md_cites_existing_artifacts():
    experiments = (README.parent / "EXPERIMENTS.md").read_text()
    results_dir = README.parent / "benchmarks" / "results"
    for match in set(re.findall(r"`([a-z0-9_]+\.txt)`", experiments)):
        assert (results_dir / match).exists(), f"missing artifact {match}"


# -- the wire-message tables of docs/architecture.md --------------------------

def spell(kind):
    """A field kind in the notation of the docs tables."""
    from repro.serve import messages
    if isinstance(kind, messages.U64):
        return "u64" if kind.minimum == 0 else f"u64≥{kind.minimum}"
    if isinstance(kind, messages.F64):
        return "f64"
    if isinstance(kind, messages.Of):
        return {bool: "bool", str: "str", dict: "object",
                list: "array"}[kind.pytype]
    if isinstance(kind, messages.Enum):
        return "enum(" + " \\| ".join(kind.values) + ")"
    if isinstance(kind, messages.Ids):
        return "ids" + "+" * kind.at_least
    if isinstance(kind, messages.Struct):
        return "{" + ", ".join(f"{key}: {spell(item)}"
                               for key, item in kind.fields) + "}"
    return f"[{spell(kind.item)}]" + "+" * kind.at_least


def message_table_rows(registry):
    """One markdown row per declared message: name, frame type id,
    ``binary-1`` body layout, fields (``?`` marks an optional field,
    ``= value`` a default, in JSON notation)."""
    for cls in registry.values():
        cells = []
        for field, spec in zip(cls.FIELDS, dataclasses.fields(cls)):
            text = (field.name + ("?" if field.optional else "")
                    + ": " + spell(field.kind))
            if not field.optional and not field.required:
                default = ([] if spec.default is dataclasses.MISSING
                           else spec.default)
                text += " = " + json.dumps(default)
            cells.append(f"`{text}`")
        yield (f"| `{cls.TYPE}` | {cls.TYPE_ID} | {cls.LAYOUT} | "
               f"{', '.join(cells) or '—'} |")


def test_architecture_documents_every_declared_message_field():
    """The message tables are the declarations of serve/messages.py,
    row for row: a field cannot land undocumented.  On failure, paste
    the printed rows over the table."""
    from repro.serve import messages
    text = (README.parent / "docs" / "architecture.md").read_text()
    for registry in (messages.ClientMessage.REGISTRY,
                     messages.ServerMessage.REGISTRY):
        rows = list(message_table_rows(registry))
        missing = [row for row in rows if row not in text]
        assert not missing, "docs/architecture.md lacks:\n" + "\n".join(rows)
