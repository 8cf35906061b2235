import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def test_every_traced_name_exists(tracing):
    # the traced benchmark run looks each target up in its owner's
    # __dict__, so a rename in the package would only surface there
    for owner_path, attr, _, _ in tracing.TARGETS:
        owner = tracing._owner(owner_path)
        assert attr in owner.__dict__, f"{owner_path}.{attr}"
