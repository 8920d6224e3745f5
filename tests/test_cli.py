import os
import pickle
import re
import subprocess
import sys

import pytest

from agdh import cli, group_arith
from agdh.cli import _bench_group, _metrics_text, _print_summary, main
from agdh.errors import ConfigError
from agdh.group_arith import PROD, TOY, _in_subgroup, kernel_name
from agdh.node_fsm import NodeConfig
from agdh.oracle import audit_transcript
from agdh.scenario import parse_duration, parse_scenario
from agdh.simnet import (
    SECOND,
    CrashAt,
    HealAt,
    JoinAt,
    LeaveAt,
    PartitionAt,
    SimConfig,
    _RENDER_CHUNK,
    replay,
    run,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
P47_Q23 = os.path.join(DATA_DIR, "p47_q23.params")


class TestDurations:
    def test_units(self):
        assert parse_duration("120s") == 120_000_000
        assert parse_duration("500ms") == 500_000
        assert parse_duration("20min") == 1_200_000_000
        assert parse_duration("100us") == 100
        assert parse_duration("30") == 30_000_000
        assert parse_duration("1.5s") == 1_500_000

    def test_bad_literals(self):
        for text in ("abc", "-5s", "12 parsecs", "inf", "nan", "1e400",
                     "infs", "nanms"):
            with pytest.raises(ConfigError):
                parse_duration(text)


class TestScenarioGrammar:
    def test_full_grammar(self):
        text = """
        # comment
        30s join 11
        45s leave 3 graceful
        60s leave 4 crash          # trailing comment
        90s partition 1,2,3|4,5
        2min heal
        """
        schedule = parse_scenario(text)
        assert schedule == (
            JoinAt(30_000_000, 11),
            LeaveAt(45_000_000, 3),
            CrashAt(60_000_000, 4),
            PartitionAt(90_000_000, ((1, 2, 3), (4, 5))),
            HealAt(120_000_000),
        )
        # a schedule entry is a named tuple, so LeaveAt(t, 3) equals
        # CrashAt(t, 3): the kinds are checked apart
        assert [type(e) for e in schedule] == [
            JoinAt, LeaveAt, CrashAt, PartitionAt, HealAt]

    def test_bad_verb(self):
        with pytest.raises(ConfigError):
            parse_scenario("10s explode 4")

    def test_bad_leave_mode(self):
        with pytest.raises(ConfigError):
            parse_scenario("10s leave 4 politely")

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_scenario("10s heal\n20s join notanumber")

    @pytest.mark.parametrize("line, reason", [
        ("30s join 5 6", "join takes 1 argument"),
        ("30s join", "join takes 1 argument"),
        ("30s leave 3", "leave takes 2 argument"),
        ("30s leave 3 crash 4", "leave takes 2 argument"),
        ("30s partition 1,2|3,4 5,6", "partition takes 1 argument"),
        ("30s partition", "partition takes 1 argument"),
        ("30s partition 1,2||3", "empty partition cell"),
        ("30s partition |", "empty partition cell"),
        ("30s partition 1,2|", "empty partition cell"),
        ("30s partition 1,,2|3", "bad id list"),
        ("30s heal now", "heal takes 0 argument"),
        ("30s", "missing verb"),
    ])
    def test_each_verb_takes_exactly_its_arguments(self, line, reason):
        with pytest.raises(ConfigError, match=f"scenario line 2: {reason}"):
            parse_scenario("10s heal\n" + line)

    @pytest.mark.parametrize("line", ["30s join 5 6", "30s partition 1,2||3"])
    def test_malformed_line_exits_two_before_the_run(self, tmp_path, capsys, line):
        scenario = tmp_path / "s.scn"
        scenario.write_text("10s heal\n" + line + "\n")
        code = main(["run", "--nodes", "3", "--toy", "--scenario", str(scenario),
                     "--duration", "40s"])
        assert code == 2
        captured = capsys.readouterr()
        assert "scenario line 2" in captured.err
        assert captured.out == ""


class TestRunCommand:
    def test_lossless_run_exits_zero_and_writes_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--nodes", "4", "--seed", "42", "--duration", "60s",
                     "--toy", "--out", str(out_dir)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "  converged:    True\n  converged at: 20813828us\n" in captured
        assert "audit:        clean" in captured
        assert "  cost row:     m=4 expo/member=2 expo/leader=4 messages=4" \
            " broadcasts=1 rounds=2\n" in captured
        transcript = (out_dir / "transcript.txt").read_text()
        assert transcript.splitlines()[0].endswith("mode=member why=start")
        # the time is a record's: the last member's first KEY
        assert "20813828 KEY " in transcript
        metrics = (out_dir / "metrics.txt").read_text()
        assert "expos node=" in metrics

    def test_out_streams_the_rendered_transcript(self, tmp_path, monkeypatch,
                                                 capsys):
        """``--out`` writes transcript.txt a render chunk at a time; on a
        run of several chunks the file is ``render()``'s text, byte for
        byte."""
        results = []

        def kept_run(*args):
            results.append(run(*args))
            return results[-1]

        monkeypatch.setattr(cli, "run", kept_run)
        out_dir = tmp_path / "out"
        main(["run", "--nodes", "10", "--seed", "2", "--loss", "0.3",
              "--duration", "500s", "--toy", "--out", str(out_dir)])
        assert "audit:        clean" in capsys.readouterr().out
        transcript = results[0].transcript
        assert len(transcript) > _RENDER_CHUNK
        assert (out_dir / "transcript.txt").read_bytes() == \
            transcript.render().encode()

    def test_mismatching_cost_row_is_printed_with_its_reason(self, capsys):
        """At seed 0 two candidates win the same slot, and one member
        answers the one that steps down, then draws a fresh contribution
        for the other: an extra blind and an extra message.  The summary
        says why the row is not the paper's, and the exit code still reads
        only convergence and the audit."""
        code = main(["run", "--nodes", "6", "--seed", "0", "--duration", "60s",
                     "--toy"])
        assert code == 0
        assert "  cost row:     not the paper's row (member expos [2, 3] != 2;" \
            " messages 7 != 6)\n" in capsys.readouterr().out

    def test_one_node_run_converges_when_it_leads(self, capsys):
        """A lone leader has no peer to share a key with; the run converges
        when it takes the lead."""
        code = main(["run", "--nodes", "1"])
        assert code == 0
        assert "  converged:    True\n  converged at: 16400000us\n" \
            in capsys.readouterr().out

    def test_split_run_never_converges(self, tmp_path, capsys):
        scenario = tmp_path / "s.scn"
        scenario.write_text("1s partition 1|2\n")
        code = main(["run", "--nodes", "2", "--seed", "1", "--duration", "60s",
                     "--toy", "--scenario", str(scenario)])
        assert code == 1
        out = capsys.readouterr().out
        assert "  converged:    False\n  converged at: never\n" in out
        assert "final epoch" not in out

    def test_scenario_run(self, tmp_path, capsys):
        scenario = tmp_path / "s.scn"
        scenario.write_text("40s leave 2 graceful\n")
        code = main(["run", "--nodes", "4", "--seed", "5", "--duration", "80s",
                     "--toy", "--scenario", str(scenario)])
        assert code == 0

    def test_late_registrants_are_keyed_at_once(self, capsys):
        """Members 1, 2, 8 and 11 register with leader 4 after its
        formation; a join rekey keys each in the step that registers it, so
        the run converges instead of waiting for the 20 min renewal."""
        code = main(["run", "--toy", "--seed", "4", "--nodes", "12",
                     "--loss", "0.1", "--duration", "400s"])
        assert code == 0
        assert re.search(r"^  converged at: [0-9]+us$",
                         capsys.readouterr().out, re.M)

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_one_without_traceback(self, unbuffered):
        """``agdh run | head``: once the reader has gone, a print or the
        final flush fails with a broken pipe, and the run exits 1 with
        nothing on stderr.  The reader is closed before the run writes, so
        every write fails; a reader that took a line first could find the
        whole 2.8 KB summary already in the pipe's buffer.  Unbuffered, the
        summary's write fails; buffered, its flush does."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen(
            [sys.executable, "-m", "agdh.cli", "run", "--toy", "--nodes",
             "12", "--seed", "4", "--loss", "0.1", "--duration", "400s"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, "")

    def test_no_rekey_option(self, capsys):
        """One rekey policy: the run command takes no rekey flag."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--eager-rekey"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eager-rekey" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "rekey" not in capsys.readouterr().out

    def test_missing_scenario_exits_two(self, capsys):
        code = main(["run", "--scenario", "/definitely/not/here.scn"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_schedule_exits_two_before_running(self, tmp_path, capsys):
        scenario = tmp_path / "s.scn"
        scenario.write_text("10s leave 99 crash\n")
        out_dir = tmp_path / "out"
        code = main(["run", "--nodes", "4", "--toy", "--scenario", str(scenario),
                     "--out", str(out_dir)])
        assert code == 2
        assert "node 99 is not live" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_partition_naming_an_absent_id_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "s.scn"
        scenario.write_text("10s partition 1,2|3,99\n")
        out_dir = tmp_path / "out"
        code = main(["run", "--nodes", "4", "--toy", "--scenario", str(scenario),
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "node 99" in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("line", ["10s join 4294967296", "10s join -5"])
    def test_id_outside_the_wire_range_exits_two(self, line, tmp_path, capsys):
        scenario = tmp_path / "s.scn"
        scenario.write_text(line + "\n")
        out_dir = tmp_path / "out"
        code = main(["run", "--nodes", "3", "--toy", "--scenario", str(scenario),
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "outside [0, 4294967295]" in captured.err
        assert not out_dir.exists()

    def test_bad_flag_value_exits_two(self, capsys):
        code = main(["run", "--nodes", "3", "--loss", "2.0"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--duration", "inf"],
        ["--duration", "nan"],
        ["--duration", "1e400"],
        ["--repeat", "0"],
        ["--repeat", "-3"],
        ["--duration", "1e12"],
    ])
    def test_bad_duration_or_repeat_exits_two_before_running(
            self, flags, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--nodes", "3", "--toy", "--out", str(out_dir)]
                    + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("where", ["file", "under_file"])
    def test_out_that_cannot_be_a_directory_exits_two_before_running(
            self, where, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out_dir = taken if where == "file" else taken / "out"
        code = main(["run", "--nodes", "3", "--toy", "--duration", "20s",
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err
        assert taken.read_text() == "not a directory\n"

    def test_repeat_with_out_exits_two_before_running(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--nodes", "3", "--toy", "--duration", "20s",
                     "--repeat", "2", "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--repeat" in captured.err
        assert not out_dir.exists()

    def test_non_finite_scenario_time_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "s.scn"
        scenario.write_text("inf join 3\n")
        out_dir = tmp_path / "out"
        code = main(["run", "--nodes", "2", "--toy", "--scenario", str(scenario),
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "scenario line 1" in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--scenario", "--params"])
    def test_file_that_is_not_utf8_exits_two_before_running(
            self, flag, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00bad")
        out_dir = tmp_path / "out"
        group = ["--toy"] if flag == "--scenario" else []
        code = main(["run", "--nodes", "3", *group, flag, str(bad),
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(bad) in captured.err
        assert not out_dir.exists()

    def test_toy_and_params_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--toy", "--params", P47_Q23])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_small_prime_order_group_prints_the_paper_row(self, capsys):
        """q = 23 is also a Miller-Rabin witness, whose power mod q is 0,
        so trial division must settle it: the group loads, and its run
        prints the paper's cost row."""
        code = main(["run", "--params", P47_Q23, "--nodes", "4",
                     "--duration", "60s"])
        assert code == 0
        assert ("  cost row:     m=4 expo/member=2 expo/leader=4 messages=4"
                " broadcasts=1 rounds=2\n") in capsys.readouterr().out

    def test_order_two_group_exits_two_before_running(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--params", os.path.join(DATA_DIR, "p5_q2.params"),
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not out_dir.exists()

    def test_custom_params_file(self, tmp_path, capsys):
        params = tmp_path / "g.params"
        params.write_text("name=toyclone\np=17\nq=B\ng=2\n")
        code = main(["run", "--nodes", "3", "--seed", "2", "--duration", "60s",
                     "--params", str(params)])
        assert code == 0

    def test_repeat_fans_out(self, capsys):
        code = main(["run", "--nodes", "3", "--seed", "0", "--duration", "60s",
                     "--toy", "--repeat", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3/3 runs converged with a clean audit" in out
        lines = out.splitlines()[:3]
        assert [re.fullmatch(r"seed=(\d) converged=True converged_at=\d+us"
                             r" leaders=\[\d\] findings=0 \[ok\]", line)[1]
                for line in lines] == ["0", "1", "2"]

    @pytest.mark.parametrize("repeat, cpus, workers", [
        (2, 8, 2),
        (3, 2, 2),
        (2, None, 1),
    ])
    def test_repeat_starts_at_most_one_worker_per_run(
            self, monkeypatch, capsys, repeat, cpus, workers):
        """The pool is sized to the runs, never to the whole machine: under
        ``fork`` an unsized pool starts ``os.cpu_count()`` workers."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code = main(["run", "--nodes", "3", "--seed", "0", "--duration", "60s",
                     "--toy", "--repeat", str(repeat)])
        assert code == 0
        assert sizes == [workers]
        assert f"{repeat}/{repeat} runs converged" in capsys.readouterr().out

    def test_summary_prints_one_key_line_per_key_record(self, capsys):
        res = run(SimConfig(node_count=4, seed=5, duration=80 * SECOND,
                            schedule=(LeaveAt(40 * SECOND, 2),)),
                  NodeConfig(), TOY)
        _print_summary(res, replay(res), audit_transcript(res), None)
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("  key t=")]
        records = res.transcript.of_kind("KEY")
        assert len(records) > 4
        assert printed == [
            f"  key t={r.time}us node={r.node} leader={r.get('leader')}"
            f" epoch={r.get('epoch')}" for r in records]
        assert printed == [
            f"  key t={k.time}us node={k.node_id} leader={k.leader_id}"
            f" epoch={k.epoch}" for k in res.metrics.key_events]

    def test_repeat_bundle_pickles_without_the_memo(self):
        """What ``--repeat`` sends each worker comes back equal, and the
        group binds the receiving process's known set instead of carrying
        a copy of the sender's."""
        run(SimConfig(node_count=3, seed=1, duration=20 * SECOND),
            NodeConfig(), PROD)
        assert PROD.known
        bundle = (SimConfig(node_count=4, seed=7,
                            schedule=(JoinAt(SECOND, 5), CrashAt(SECOND, 5))),
                  NodeConfig(), PROD)
        assert pickle.loads(pickle.dumps(bundle)) == bundle
        assert pickle.loads(pickle.dumps(PROD)).known is PROD.known
        assert len(pickle.dumps(PROD)) < 1024


def test_import_loads_no_dataclasses():
    """``import agdh`` leaves ``dataclasses``, and with it ``inspect`` and
    ``ast``, unloaded: every ``agdh run``, worker and benchmark sample pays
    the package's import."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    probe = "import sys, agdh; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout == "False\n"


class TestMetricsText:
    def test_basic_run_matches_golden(self):
        """metrics.txt of the determinism criterion's basic run, counted
        from its transcript, byte for byte."""
        res = run(SimConfig(node_count=10, seed=42, duration=60 * SECOND),
                  NodeConfig(), TOY)
        with open(os.path.join(GOLDEN_DIR, "basic_n10_seed42.metrics")) as fh:
            assert _metrics_text(res) == fh.read()


class TestBenchCommand:
    def test_bench_reports_both_groups(self, capsys):
        code = main(["bench", "--group-size", "10", "--iters", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "group toy:" in out
        assert "group modp1024-160:" in out
        assert out.count("blindings/sec") == 2
        # a power of the generator and a power of a received blind both
        # stay visible
        assert out.count("responses/sec") == 2
        # batching leaves nothing on the critical path; unbatched pays m
        assert "unbatched leader (m=10): 10 expos" in out
        assert "batched leader (m=10): 0 expos" in out
        # each group names its kernel, right under its header
        toy, prod = out.split("group modp1024-160:")
        assert toy.splitlines()[1] == "  kernel: builtin pow"
        assert prod.splitlines()[1] == f"  kernel: {kernel_name(PROD)}"
        if group_arith._openssl() is not None:
            assert kernel_name(PROD).endswith("BN_mod_exp_mont_consttime")

    @pytest.mark.parametrize("flags", [
        ["--iters", "0"],
        ["--iters", "-5"],
        ["--group-size", "0"],
        ["--group-size", "-2"],
    ])
    def test_bad_bench_flag_exits_two_before_timing(self, flags, capsys):
        code = main(["bench"] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "must be at least 1" in captured.err

    def test_missing_bench_params_exits_two_before_timing(self, capsys):
        code = main(["bench", "--params", "/definitely/not/here.params"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err

    def test_bench_params_not_utf8_exits_two_before_timing(
            self, tmp_path, capsys):
        bad = tmp_path / "bad.params"
        bad.write_bytes(b"\xff\xfe\x00bad")
        code = main(["bench", "--params", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(bad) in captured.err

    def test_bench_times_no_subgroup_pow(self):
        # every value the bench exponentiates is a power of the generator, so
        # its timings hold exponentiations only
        before = _in_subgroup.cache_info().misses
        _bench_group(PROD, 5, 5)
        assert _in_subgroup.cache_info().misses == before
