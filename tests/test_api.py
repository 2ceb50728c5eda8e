import re
from pathlib import Path

import covertawgn

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_index() -> list[str]:
    """The names listed as '- `name`: purpose' in the README's API index."""
    text = README.read_text(encoding="utf-8")
    assert "\n## API index\n" in text, "README.md has no API index section"
    section = text.split("\n## API index\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)`: \S", section, flags=re.MULTILINE)


def test_all_names_resolve_once():
    names = covertawgn.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(covertawgn, n)]
    assert not missing, missing


def test_readme_api_index_matches_all():
    listed = _api_index()
    assert len(listed) == len(set(listed))
    undocumented = sorted(set(covertawgn.__all__) - set(listed))
    assert not undocumented, f"exported but not in the README API index: {undocumented}"
    stale = sorted(set(listed) - set(covertawgn.__all__))
    assert not stale, f"in the README API index but not exported: {stale}"
