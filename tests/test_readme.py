"""The README's library quick start and config example run as documented."""

import re
from pathlib import Path

from bdris.harness import parse_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(language, after):
    """The first ```language block of the README below the line ``after``."""
    return re.search(rf"^```{language}\n(.*?)^```", README[README.index(after):], re.M | re.S).group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(fenced_block("python", "## Library quick start"), "README.md", "exec"), {})
    assert "(8, 4)" in capsys.readouterr().out


def test_config_example_parses():
    config = parse_config(fenced_block("ini", "## Experiment configs"))
    assert (config.experiment, config.trials, config.params.m) == ("rate_vs_snr", 200, 16)
    assert config.designs == ("unitary_baseline", "max_det_symmetric")
