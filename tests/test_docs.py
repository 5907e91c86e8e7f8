"""The README's Library section names only what the package provides."""

import re
from pathlib import Path

import countyrt
from countyrt import CountyPosteriors

README = Path(__file__).resolve().parents[1] / "README.md"


def library_names() -> list:
    """The backticked names of the Library section, each cut before any "("."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.DOTALL)
    return [span.split("(", 1)[0] for span in re.findall(r"`([^`]+)`", prose)]


def test_every_library_name_exists():
    names = library_names()
    assert "county_estimates" in names and "fit_day" in names  # the section was found
    fields = set(CountyPosteriors.__dataclass_fields__)
    missing = [n for n in names if not hasattr(countyrt, n) and n not in fields]
    assert missing == []
