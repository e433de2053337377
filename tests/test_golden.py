"""`mdlgauge tradeoff` stdout for specs beyond the README's, run in-process
through cli.main and compared byte for byte with CSVs recorded before the
compressor was made faster, so a faster compressor must print the same
curves."""

from pathlib import Path

import pytest

from mdlgauge import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "tradeoff-seed3.csv": ["tradeoff", "--seed", "3"],
    "tradeoff-seed8.csv": ["tradeoff", "--seed", "8"],
    "tradeoff-seed9.csv": ["tradeoff", "--seed", "9"],
    "tradeoff-seed7-programs200.csv": ["tradeoff", "--seed", "7", "--programs", "200"],
    # The window of motif candidates grows with the corpus.
    "tradeoff-seed7-programs800.csv": ["tradeoff", "--seed", "7", "--programs", "800"],
}


@pytest.mark.parametrize("name", CASES)
def test_tradeoff_matches_golden(name, monkeypatch, capsysbinary):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    assert cli.main(CASES[name]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()
