"""The docs describe the tree: cited paths exist, documented CLI flags parse.

Scans README.md, EXPERIMENTS.md, DESIGN.md and ``docs/*.md``:

- every path cited in prose (inline code or a link target) whose first
  component is a top-level repo entry must exist under the repo root, and
  one whose first component is a ``repro`` package (``salad/leaf.py``) or
  ``repro`` itself must exist under ``src/`` accordingly;
- every ``--flag`` in a ``python -m repro...`` or ``repro-experiments``
  command (fenced or inline) must be an option string of that CLI's
  argparse parser, so a removed flag cannot linger in the docs; where the
  option has ``choices``, the value written after it must be one of them,
  so a removed choice cannot linger either.
"""

from __future__ import annotations

import argparse
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")] + sorted(
    (ROOT / "docs").glob("*.md")
)

FENCE = re.compile(r"^```.*?^```", re.M | re.S)
INLINE_CODE = re.compile(r"`([^`\n]+(?:\n[^`\n]+)?)`")
LINK_TARGET = re.compile(r"\]\(([^)\s]+)\)")
COMMAND = re.compile(r"(?:python -m (repro[\w.]*)|(repro-experiments))\b([^`#|;&)]*)")
FLAG = re.compile(r"(?<![\w-])(--[A-Za-z][\w-]*)")

#: Console scripts (pyproject ``[project.scripts]``) and the module they run.
SCRIPTS = {"repro-experiments": "repro.experiments.runner"}


def _prose_tokens(text: str):
    """Whitespace-separated tokens of inline code spans and link targets."""
    prose = FENCE.sub("", text)
    for span in INLINE_CODE.findall(prose) + LINK_TARGET.findall(prose):
        for token in span.split():
            yield token.strip(",.;:()")


def _cited_paths():
    top = {entry.name for entry in ROOT.iterdir()}
    packages = {entry.name for entry in (ROOT / "src" / "repro").iterdir() if entry.is_dir()}
    for doc in DOCS:
        for token in _prose_tokens(doc.read_text(encoding="utf-8")):
            if "/" not in token or token.startswith(("/", "http")) or "<" in token:
                continue
            first = token.split("/")[0]
            if first in top:
                base = ROOT
            elif first in packages:
                base = ROOT / "src" / "repro"
            elif first == "repro":
                base = ROOT / "src"
            else:
                continue  # not a path into this repo (a schema id, a ratio, ...)
            yield doc.name, token, base


def _commands():
    """``(doc, module, args)`` for every documented CLI invocation.

    *args* are the whitespace-separated tokens after the command.
    """
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8")
        candidates = []
        for block in FENCE.findall(text):
            candidates.extend(block.replace("\\\n", " ").splitlines())
        candidates.extend(
            span.replace("\n", " ") for span in INLINE_CODE.findall(FENCE.sub("", text))
        )
        for line in candidates:
            for module, script, args in COMMAND.findall(line):
                yield doc.name, module or SCRIPTS[script], args.split()


class _Captured(Exception):
    def __init__(self, parser: argparse.ArgumentParser) -> None:
        super().__init__()
        self.parser = parser


def _parser_of(module_name: str, monkeypatch):
    """The argparse parser ``module_name``'s ``main`` builds, or None.

    ``parse_args`` is swapped for a hook that hands the parser back before
    anything runs; a CLI that never calls it (hand-rolled argv handling)
    has no parser.
    """
    try:
        module = importlib.import_module(module_name + ".__main__")
    except ModuleNotFoundError:
        module = importlib.import_module(module_name)

    def capture(self, *args, **kwargs):
        raise _Captured(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    try:
        module.main([])
    except _Captured as captured:
        return captured.parser
    finally:
        monkeypatch.undo()
    return None


def test_docs_exist():
    assert all(doc.exists() for doc in DOCS)


def test_cited_paths_exist():
    cited = list(_cited_paths())
    assert cited, "no repo paths found in the docs; the scan is broken"
    missing = [
        f"{doc}: {token}"
        for doc, token, base in cited
        if not (list(base.glob(token.rstrip("/"))) if "*" in token else (base / token).exists())
    ]
    assert not missing, "docs cite paths that are not in the tree:\n" + "\n".join(missing)


def test_documented_flags_parse(monkeypatch):
    commands = list(_commands())
    assert {module for _, module, _ in commands} >= {
        "repro.experiments.runner",
        "repro.experiments.flagship",
    }
    parsers = {}
    unknown = []
    for doc, module, args in commands:
        if module not in parsers:
            parsers[module] = _parser_of(module, monkeypatch)
        parser = parsers[module]
        known = parser._option_string_actions if parser is not None else {}
        for i, token in enumerate(args):
            for flag in FLAG.findall(token):
                if flag not in known:
                    unknown.append(f"{doc}: {module} {flag}")
                    continue
                choices = known[flag].choices
                if token.startswith(flag + "="):
                    value = token[len(flag) + 1 :]
                elif token == flag and i + 1 < len(args):
                    value = args[i + 1]
                else:
                    continue
                if choices is not None and value not in {str(c) for c in choices}:
                    unknown.append(f"{doc}: {module} {flag} {value}")
    assert not unknown, "docs use CLI flags the parser rejects:\n" + "\n".join(unknown)
