"""The exit contract of ``test_exit_contract.check`` under every config that
sets one key: each leaf key of ``cli._SCHEMA`` alone, on each command's
``BASE`` config, at each of ``ADVERSARIAL``, at the key's default and, for a
list key, at a one-element list of each of ``NUMBERS``.  A config whose work
is over ``WORK`` is left out, as the generated test leaves it out.

Tier-1 runs every ``STRIDE``-th config.  The full sweep, about 9,000 runs
and 40 s, runs with

    BBM5_FULL_SWEEP=1 PYTHONPATH=src python -m pytest -q tests/test_single_key_sweep.py
"""

import copy
import os

import pytest

from test_exit_contract import ADVERSARIAL, BASE, KEYS, NUMBERS, WORK, check, default, set_key, work

STRIDE = 20


def _configs():
    for command in sorted(BASE):
        for path, (kind, _) in sorted(KEYS.items()):
            values = [*ADVERSARIAL, default(command, path)]
            if kind is list:
                values += [[x] for x in NUMBERS]
            for value in values:
                doc = copy.deepcopy(BASE[command])
                set_key(doc, path, value)
                if work(command, doc) <= WORK:
                    yield command, doc


CONFIGS = list(_configs())


def _violations(configs):
    """Each config that breaks the contract, with what broke it: a failed
    assertion, or an exception that escaped cli.main (an exit 1)."""
    found = []
    for command, doc in configs:
        try:
            check(command, doc)
        except Exception as exc:  # every violation is reported, not the first
            found.append((command, doc, repr(exc)))
    return found


def test_every_stride_th_single_key_config_keeps_the_exit_contract():
    assert _violations(CONFIGS[::STRIDE]) == []


@pytest.mark.skipif(not os.environ.get("BBM5_FULL_SWEEP"),
                    reason="the full single-key sweep takes about 40 s; set BBM5_FULL_SWEEP=1")
def test_every_single_key_config_keeps_the_exit_contract():
    assert _violations(CONFIGS) == []
