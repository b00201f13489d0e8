from pathlib import Path

import pytest

from sesame import separators

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def golden_dir() -> Path:
    return FIXTURES / "golden"


@pytest.fixture
def corpus_dir() -> Path:
    return FIXTURES / "java_corpus"


@pytest.fixture
def bad_corpus_dir() -> Path:
    return FIXTURES / "java_corpus_bad"


@pytest.fixture
def scenarios_dir() -> Path:
    return FIXTURES / "scenarios"


def read_golden(name: str, role: str) -> bytes:
    return (FIXTURES / "golden" / name / f"{role}.java").read_bytes()


@pytest.fixture
def marked(monkeypatch) -> list[bytes]:
    """Every text that ``separators.merge_body`` marks, in order."""
    texts = []
    mark = separators.mark

    def counted(text, seps=None):
        texts.append(text)
        return mark(text, seps)

    monkeypatch.setattr(separators, "mark", counted)
    return texts
