from pathlib import Path

import pytest

from statelens.ast_ingest import parse_ast_json

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def proxy_ast_text() -> str:
    return (FIXTURES / "unguarded_transfer.ast.json").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def proxy_tree(proxy_ast_text):
    return parse_ast_json(proxy_ast_text, source_unit="unguarded_transfer.ast.json")
