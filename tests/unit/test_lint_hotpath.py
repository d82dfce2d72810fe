"""Unit tests: the hot-path lint's clock-pair, reactor, fork-phase,
bare-lock and fast-path rules (tools/lint_hotpath)."""

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
        server = lint.REACTOR_HANDLER_MODULES[
            os.path.join("src", "repro", "server", "debugserver.py")]
        assert {"_handle_hello", "_handle_ping", "_handle_request",
                "_handle_disconnect"} <= set(server)
        client = lint.REACTOR_HANDLER_MODULES[
            os.path.join("src", "repro", "client", "client.py")]
        assert "_on_bell" in client  # the port-file doorbell's reader


class TestForkPhaseRule:
    def test_timed_acquire_in_phase_c_is_flagged(self, lint, tmp_path):
        path = tmp_path / "handlers.py"
        path.write_text(
            "def install(lock):\n"
            "    def prepare_fork():\n"
            "        lock.acquire(timeout=5)  # bounded: allowed in A\n"
            "    def handle_child_at_fork():\n"
            "        lock.acquire(timeout=5)\n")
        hits = lint.find_fork_phase_blocking_calls(
            str(path), ("prepare_fork", "handle_child_at_fork"))
        assert hits == [(5, ".acquire(...) in child-side "
                            "handle_child_at_fork")]

    def test_with_lock_in_phase_c_is_flagged(self, lint, tmp_path):
        path = tmp_path / "registry.py"
        path.write_text(
            "class ForkHandlerRegistry:\n"
            "    def run_child(self):\n"
            "        with self._lock:\n"
            "            return list(self._handlers)\n")
        hits = lint.find_fork_phase_blocking_calls(str(path),
                                                   ("run_child",))
        assert hits == [(3, "with _lock in child-side run_child")]

    def test_child_resets_are_found_by_name(self, lint, tmp_path):
        path = tmp_path / "portfile.py"
        path.write_text(
            "class PortFile:\n"
            "    def announce(self):\n"
            "        with self._write_lock:  # parent side: allowed\n"
            "            pass\n"
            "    def reset_after_fork(self):\n"
            "        with self._write_lock, self._flocked():\n"
            "            pass\n"
            "    def close_after_fork(self):\n"
            "        self._lock.acquire(False)\n")
        hits = lint.find_child_reset_lock_waits(str(path))
        assert hits == [
            (6, "with _flocked in child-side reset_after_fork"),
            (6, "with _write_lock in child-side reset_after_fork"),
            (9, ".acquire(...) in child-side close_after_fork")]

    def test_tree_scan_reports_a_child_reset_anywhere(self, lint, tmp_path):
        package = tmp_path / "src" / "repro" / "deep" / "er"
        package.mkdir(parents=True)
        (package / "state.py").write_text(
            "import threading\n"
            "class State:\n"
            "    def reinit_after_fork(self):\n"
            "        with self.state_lock:\n"
            "            self.items = []\n")
        assert lint.scan_child_resets(str(tmp_path)) == [
            os.path.join("src", "repro", "deep", "er", "state.py")
            + ":4: with state_lock in child-side reinit_after_fork"]

    def test_phase_functions_exist(self, lint):
        for module, names in lint.FORK_PHASE_MODULES.items():
            path = os.path.join(REPO_ROOT, module)
            assert lint.find_fork_phase_blocking_calls(path, names) == []
        assert set(lint.FORK_CHILD_FUNCTIONS) <= {
            name for names in lint.FORK_PHASE_MODULES.values()
            for name in names}


class TestBareLockRule:
    @staticmethod
    def tree(tmp_path, files):
        for rel, source in files.items():
            path = tmp_path / "src" / "repro" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        return str(tmp_path)

    def test_bare_lock_in_a_debugger_package_is_flagged(self, lint,
                                                        tmp_path):
        root = self.tree(tmp_path, {"server/state.py": (
            "import threading\n"
            "class State:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n")})
        assert lint.scan_bare_locks(root) == [
            os.path.join("src", "repro", "server", "state.py")
            + ":4: threading.Lock()"]

    def test_imported_rlock_is_flagged(self, lint, tmp_path):
        root = self.tree(tmp_path, {"obs/deep/ring.py": (
            "from threading import Event, RLock\n"
            "LOCK = RLock()\n")})
        assert lint.scan_bare_locks(root) == [
            os.path.join("src", "repro", "obs", "deep", "ring.py")
            + ":1: from threading import RLock"]

    def test_factory_module_is_exempt(self, lint, tmp_path):
        root = self.tree(tmp_path, {"util/locks.py": (
            "import threading\n"
            "def Lock():\n"
            "    return threading.Lock()\n")})
        assert lint.scan_bare_locks(root) == []

    def test_debuggee_substrate_is_not_scanned(self, lint, tmp_path):
        root = self.tree(tmp_path, {"mp/pipes.py": (
            "import threading\n"
            "_open_lock = threading.Lock()\n")})
        assert lint.scan_bare_locks(root) == []

    def test_this_tree_has_no_bare_lock(self, lint):
        assert lint.scan_bare_locks(REPO_ROOT) == []


class TestFastPathRule:
    """The obs-free rule covers the global dispatch and the code-object
    breakpoint hook that patched code calls."""

    def test_metric_lookup_in_the_hook_is_flagged(self, lint, tmp_path):
        path = tmp_path / "codebp.py"
        path.write_text(
            "from ..obs import metrics as obs_metrics\n"
            "class Hook:\n"
            "    def hit(self, line):\n"
            "        obs_metrics.inc('codebp.hits')\n")
        hits = lint.find_fastpath_metric_lookups(str(path), "hit")
        assert hits == [(4, "obs_metrics.inc")]

    def test_renamed_hook_is_reported(self, lint, tmp_path):
        path = tmp_path / "codebp.py"
        path.write_text("class Hook:\n    def fire(self, line):\n"
                        "        pass\n")
        hits = lint.find_fastpath_metric_lookups(str(path), "hit")
        assert len(hits) == 1 and "not found" in hits[0][1]

    def test_rule_covers_dispatch_and_hook(self, lint):
        covered = {(os.path.basename(module), name)
                   for module, names in lint.FASTPATH_FUNCTIONS.items()
                   for name in names}
        assert covered == {("engine.py", "_global_dispatch"),
                           ("engine.py", "_code_hit"),
                           ("codebp.py", "hit")}
        for module, names in lint.FASTPATH_FUNCTIONS.items():
            for name in names:
                assert lint.find_fastpath_metric_lookups(
                    os.path.join(REPO_ROOT, module), name) == []


class TestWholeRepo:
    def test_lint_passes_on_this_tree(self, lint, capsys):
        assert lint.main([sys.argv[0], REPO_ROOT]) == 0
        assert "OK" in capsys.readouterr().out
