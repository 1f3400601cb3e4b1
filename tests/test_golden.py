"""Byte-for-byte comparison against the golden corpus (golden_corpus.py)."""
import pytest

from golden_corpus import GOLDEN_DIR, build


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return build(tmp_path_factory.mktemp("golden"))


def test_golden_corpus_lists_exactly_the_committed_files(corpus):
    assert sorted(corpus) == sorted(p.name for p in GOLDEN_DIR.iterdir())


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.iterdir()))
def test_output_matches_the_golden_bytes(corpus, name):
    expected = (GOLDEN_DIR / name).read_bytes()
    actual = corpus.get(name)
    assert actual is not None, f"{name}: no case produces this file"
    if actual != expected:
        got, want = actual.decode().splitlines(), expected.decode().splitlines()
        line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                    min(len(got), len(want)))
        pytest.fail(f"{name} differs from the golden file first at line "
                    f"{line + 1}: got {got[line:line + 1]}, want {want[line:line + 1]}")
