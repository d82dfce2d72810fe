"""Unit tests: the hot-path lint's clock-pair and reactor rules
(tools/lint_hotpath)."""

import importlib.util
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
LINT_PATH = os.path.join(REPO_ROOT, "tools", "lint_hotpath.py")


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("lint_hotpath", LINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestClockPairRule:
    def test_lone_wall_clock_is_flagged(self, lint, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n")
        hits = lint.find_unpaired_wall_clock(str(path))
        assert len(hits) == 1
        assert "stamp" in hits[0][1]

    def test_paired_wall_clock_passes(self, lint, tmp_path):
        path = tmp_path / "good.py"
        path.write_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time(), time.monotonic()\n")
        assert lint.find_unpaired_wall_clock(str(path)) == []

    def test_monotonic_alone_passes(self, lint, tmp_path):
        path = tmp_path / "mono.py"
        path.write_text(
            "import time\n"
            "def dur():\n"
            "    return time.monotonic()\n")
        assert lint.find_unpaired_wall_clock(str(path)) == []

    def test_timeline_modules_are_scanned(self, lint):
        for module in lint.CLOCK_PAIR_MODULES:
            assert os.path.isfile(os.path.join(REPO_ROOT, module)), module


class TestReactorRule:
    def test_blocking_call_in_reactor_module_is_flagged(self, lint,
                                                        tmp_path):
        path = tmp_path / "reactor.py"
        path.write_text(
            "import time\n"
            "def _service(channel):\n"
            "    data = channel.sock.recv(4096)\n"
            "    time.sleep(0.01)\n"
            "    return data\n")
        hits = lint.find_reactor_blocking_calls(str(path))
        assert [what for _line, what in hits] == [".recv(...)",
                                                  ".sleep(...)"]

    def test_blocking_call_in_server_handler_is_flagged(self, lint,
                                                        tmp_path):
        path = tmp_path / "debugserver.py"
        path.write_text(
            "import time\n"
            "class DebugServer:\n"
            "    def _handle_ping(self, channel, message):\n"
            "        channel.sock.sendall(b'pong')\n"
            "    def announce(self):\n"
            "        time.sleep(1)  # not called by the loop\n")
        hits = lint.find_reactor_blocking_calls(str(path),
                                                ("_handle_ping",))
        assert hits == [(4, ".sendall(...) in _handle_ping")]

    def test_renamed_handler_is_reported(self, lint, tmp_path):
        path = tmp_path / "debugserver.py"
        path.write_text("def _handle_pong(channel, message):\n"
                        "    return None\n")
        hits = lint.find_reactor_blocking_calls(str(path),
                                                ("_handle_ping",))
        assert len(hits) == 1 and "not found" in hits[0][1]

    def test_rule_scans_the_shared_reactor_and_server_handlers(self, lint):
        assert lint.REACTOR_MODULE.endswith(
            os.path.join("repro", "util", "reactor.py"))
        assert os.path.isfile(os.path.join(REPO_ROOT, lint.REACTOR_MODULE))
        for module, names in lint.REACTOR_HANDLER_MODULES.items():
            path = os.path.join(REPO_ROOT, module)
            assert lint.find_reactor_blocking_calls(path, names) == []
            assert {"_handle_hello", "_handle_ping", "_handle_request",
                    "_handle_disconnect"} <= set(names)


class TestWholeRepo:
    def test_lint_passes_on_this_tree(self, lint, capsys):
        assert lint.main([sys.argv[0], REPO_ROOT]) == 0
        assert "OK" in capsys.readouterr().out
