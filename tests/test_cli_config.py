"""The CLI's config schema is written once, as `cli.DEFAULTS`: each flag that
overrides a config value names its key as its argparse dest, and the
README's INI block documents exactly these keys and defaults."""

import argparse
import configparser
import re
from pathlib import Path

from corridor_cov import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_dotted_dest_names_a_config_key():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = set()
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if "." in action.dest:
                section, key = action.dest.split(".")
                assert key in cli.DEFAULTS.get(section, {}), (command, action.option_strings)
                dests.add(action.dest)
    assert dests == {
        "run.seed", "run.trials", "run.theta_db", "replay.fading", "sweep.axis",
        "sweep.start", "sweep.stop", "sweep.step", "sweep.values", "sweep.methods",
    }


def test_readme_ini_block_is_the_defaults():
    block = re.search(r"```ini\n(\[geometry\]\n.*?\[height_study\]\n.*?)```",
                      README.read_text(), re.S)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(block.group(1))
    assert {section: dict(parser.items(section)) for section in parser.sections()} == cli.DEFAULTS
