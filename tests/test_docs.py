"""README's package-layout table against the package itself."""

import re
from pathlib import Path

import fairmix

README = Path(__file__).resolve().parents[1] / "README.md"


def layout_modules() -> list[str]:
    """The module names in the first column of README's "Package layout" table."""
    section = README.read_text(encoding="utf-8").split("\n## Package layout\n", 1)[1]
    table = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `fairmix\.(\w+)` \|", table, re.M)


def test_package_layout_names_every_module():
    package = Path(fairmix.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert sorted(layout_modules()) == modules
