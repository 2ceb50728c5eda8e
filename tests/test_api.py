import importlib
import pkgutil
import re
from pathlib import Path

import covertawgn
from covertawgn import bounds, divergences, errors, planner, simkit, truncgauss

# the modules whose __all__ the package re-exports, in order
MODULES = (bounds, divergences, errors, planner, simkit, truncgauss)

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_index() -> dict[str, list[str]]:
    """Module name -> the names listed as '- `name`: purpose' under its
    '**`covertawgn.module`**' heading in the README's API index."""
    text = README.read_text(encoding="utf-8")
    assert "\n## API index\n" in text, "README.md has no API index section"
    section = text.split("\n## API index\n", 1)[1].split("\n## ", 1)[0]
    parts = re.split(r"^\*\*`covertawgn\.(\w+)`\*\*$", section, flags=re.MULTILINE)
    index = {}
    for module, body in zip(parts[1::2], parts[2::2]):
        assert module not in index, f"two README sections for {module}"
        index[module] = re.findall(r"^- `(\w+)`: \S", body, flags=re.MULTILINE)
    return index


def test_all_names_resolve_once():
    names = covertawgn.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(covertawgn, n)]
    assert not missing, missing


def test_readme_api_index_matches_all():
    index = _api_index()
    listed = [name for module in MODULES for name in index[module.__name__.split(".")[-1]]]
    assert len(listed) == len(set(listed))
    undocumented = sorted(set(covertawgn.__all__) - set(listed))
    assert not undocumented, f"exported but not in the README API index: {undocumented}"
    stale = sorted(set(listed) - set(covertawgn.__all__))
    assert not stale, f"in the README API index but not exported: {stale}"


def test_readme_api_index_lists_every_module_all():
    # specfn, verify and cli are not re-exported, but their __all__ is
    # public too, so every module of the package has its section
    index = _api_index()
    modules = sorted(m.name for m in pkgutil.iter_modules(covertawgn.__path__))
    assert sorted(index) == modules
    for name in modules:
        exported = importlib.import_module(f"covertawgn.{name}").__all__
        assert sorted(index[name]) == sorted(exported), name


def test_each_exported_name_has_one_source():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(covertawgn, name) is getattr(module, name), (module.__name__, name)
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)), "a name is in two modules' __all__"
    assert covertawgn.__all__ == names
