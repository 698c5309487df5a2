"""Files that must not change, pinned by content hash."""
import hashlib
from pathlib import Path

ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"
ACCEPTANCE_SHA256 = "eb6caf29894191d636849a8830b31ff3af921b86b0c8e0d89a912fe95bc37835"


def test_acceptance_suite_is_byte_identical():
    digest = hashlib.sha256(ACCEPTANCE.read_bytes()).hexdigest()
    assert digest == ACCEPTANCE_SHA256, (
        f"{ACCEPTANCE.name} changed (sha256 {digest}). ROADMAP.md, under 'Keep these three "
        "things fixed', requires tests/test_acceptance.py to stay byte-identical: its nine "
        "criteria are the quality bar, so restore the file rather than update this hash."
    )
