"""tools/stdout_digest.py digests a command that raises and then fails the run.

A raising command is hashed as its exception's type and message, so its
set's digest can still be compared with another checkout's; the run then
names it on stderr and exits 1.  The benchmark's query and sweep sets and
the overflow set keep their recorded digests.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from abeta import cli

ROOT = Path(__file__).parents[1]


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave tools/ untouched
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends the checkout's src/
    spec = importlib.util.spec_from_file_location("stdout_digest", ROOT / "tools" / "stdout_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_main(argv):
    if argv == ["boom"]:
        raise RuntimeError("boom")
    print("ok")
    return 0


def test_a_raising_command_keeps_its_digest_and_is_reported(tool):
    hexdigest, raised = tool.digest(stub_main, [["fine"], ["boom"]])
    h = hashlib.sha256()
    h.update(repr((["fine"], 0, "ok\n", "")).encode())
    h.update(repr((["boom"], "RuntimeError: boom", "", "")).encode())
    assert hexdigest == h.hexdigest() and raised == [["boom"]]


def test_main_exits_1_after_printing_every_digest(tool, monkeypatch, capsys):
    sets = {"calm": [["fine"]], "loud": [["fine"], ["boom"]]}
    monkeypatch.setattr(tool, "command_sets", lambda root: sets)
    monkeypatch.setattr(cli, "main", stub_main)
    monkeypatch.setattr(sys, "argv", ["stdout_digest.py", "--root", str(ROOT)])
    with pytest.raises(SystemExit) as exit_info:
        tool.main()
    out, err = capsys.readouterr()
    assert exit_info.value.code == 1
    assert [line.split("  ")[1] for line in out.splitlines()] == [
        "calm (1 commands)",
        "loud (2 commands)",
    ]
    assert err == "raised: loud: ['boom']\n"


# Sets whose bytes need the standard library alone, so they hold on every
# supported Python.  bad-input is left out: argparse words some of its
# errors differently on 3.11 than on 3.10 and 3.12.  overflow holds the
# m = 1 Rogosinski leads whose f(r)^p passes the largest double.
PINNED = {
    "query_mix(3)": "2b2a85b5d266f637137ac26c616c625e42bb91eb9bee59048bf54869475fa3b5",
    "sweep_grid(3)": "73b2c3a37cf535313a45c2cd18d11fb21685d0aa17ed8f1922d33f2a8bb150a2",
    "overflow": "ee1696671169ee79a87592fae55eb844a4aa1107515170e16bce569d279965ac",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_the_benchmark_query_sets_keep_their_digests(tool, name):
    assert tool.digest(cli.main, tool.command_sets(ROOT)[name]) == (PINNED[name], [])
