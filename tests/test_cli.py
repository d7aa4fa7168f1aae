"""Tests for the ``python -m repro`` command-line interface."""

import hashlib
import json

import pytest

from repro.__main__ import main

#: The shared toy world of the CLI tests (kept small so tier-1 stays
#: fast) and a URL its batch study indexes.
WORLD = ["--links", "400", "--seed", "6"]
INDEXED_URL = "http://corfina.co.uk/2018/local-review.htm"

#: SHA-256 of ``repro serve --json`` on :data:`WORLD` with 1,000
#: requests and faults off. Every key of that digest is virtual, so
#: the bytes are deterministic; a change here is a serving change.
SERVE_GOLDENS = {
    "node": (
        (), "460194125925599954fe98c7891e97c6fefaa9abe13defad4a966c440f2c1e6f"
    ),
    "2x2": (
        ("--shards", "2", "--replicas", "2"),
        "3a53ee32afd3582e8538cb518320a8518209a729c80fd7febdca4cb4b8f6f23a",
    ),
}


def _run_json(tmp_path, argv):
    """Run one subcommand with ``--json``; return (exit code, JSON path)."""
    path = tmp_path / "out.json"
    code = main([*argv, "--json", str(path)])
    return code, path


class TestCli:
    def test_study(self, capsys):
        assert main(["study", "--links", "400", "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "permanently dead links studied" in out

    def test_study_markdown(self, tmp_path, capsys):
        path = str(tmp_path / "report.md")
        assert main(
            ["study", "--links", "400", "--seed", "6", "--markdown", path]
        ) == 0
        with open(path, encoding="utf-8") as handle:
            document = handle.read()
        assert document.startswith("# Study report")
        assert "## Paper vs measured" in document

    def test_medic(self, capsys):
        assert main(["medic", "--links", "400", "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert "patched" in out and "category" in out

    def test_live(self, tmp_path, capsys):
        path = str(tmp_path / "live.json")
        assert main(
            [
                "live", "--links", "400", "--seed", "6",
                "--generations", "3", "--requests", "300", "--json", path,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "gen 3" in out
        assert "zero-downtime swaps: 2" in out
        assert "freshness SLO" in out
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert len(payload["generations"]) == 3
        assert payload["generations"][0]["dirty"] > payload[
            "generations"
        ][1]["dirty"]
        assert len(payload["served_by_generation"]) == 3

    @pytest.mark.parametrize("topology", sorted(SERVE_GOLDENS))
    def test_serve_json_golden(self, tmp_path, capsys, topology):
        flags, expected = SERVE_GOLDENS[topology]
        code, path = _run_json(
            tmp_path, ["serve", *WORLD, "--requests", "1000", *flags]
        )
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected
        if flags:
            out = capsys.readouterr().out
            # Per-replica accounting of the clustered run.
            for replica in ("s0r0", "s0r1", "s1r0", "s1r1"):
                assert f"  {replica}: " in out

    def test_serve_crash_rate_redispatches(self, tmp_path):
        # Crash instants are drawn over the replay itself, so a short
        # replay still sees its crashed replicas go down.
        code, path = _run_json(
            tmp_path,
            [
                "serve", *WORLD, "--requests", "1000",
                "--shards", "2", "--replicas", "2", "--crash-rate", "0.5",
            ],
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["fault_events"] > 0
        assert payload["redispatches"] > 0

    @pytest.mark.parametrize(
        "flags, code, status",
        [
            (("--url", INDEXED_URL), 0, 200),
            (("--url", "http://never.example/missing"), 1, 404),
            (("--quantile", "bogus"), 1, 400),
        ],
        ids=["indexed", "unknown", "bogus-quantile"],
    )
    def test_query_exit_codes(self, capsys, flags, code, status):
        assert main(["query", *WORLD, *flags]) == code
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["status"] == status

    def test_generations_on_a_known_url(self, tmp_path, capsys):
        code, path = _run_json(
            tmp_path,
            [
                "generations", *WORLD, "--generations", "3",
                "--url", INDEXED_URL,
            ],
        )
        assert code == 0
        assert "3 retained generations" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["url"] == INDEXED_URL
        assert [state["seq"] for state in payload["states"]] == [1, 2, 3]
        assert all(state["advice"] for state in payload["states"])

    def test_calibrate_exit_code_is_the_printed_verdict(self, capsys):
        code = main(["calibrate", *WORLD])
        out = capsys.readouterr().out
        lines = out[out.index("paper vs measured"):].splitlines()
        bands = [line.split()[-1] for line in lines[3:] if line.strip()]
        assert bands and set(bands) <= {"ok", "OFF"}
        assert code == (0 if "OFF" not in bands else 1)

    def test_live_fleet_with_chaos_rebalance_and_drain(self, tmp_path, capsys):
        code, path = _run_json(
            tmp_path,
            [
                "live", *WORLD, "--generations", "3", "--requests", "600",
                "--shards", "2", "--replicas", "2", "--crash-rate", "0.5",
                "--rebalance", "--drain",
            ],
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(drained, deltas)" in out
        assert "% of the" in out and "-byte snapshot)" in out
        payload = json.loads(path.read_text())
        # Every generation answered some of the traffic.
        versions = {g["version"] for g in payload["generations"]}
        assert set(payload["served_by_generation"]) == versions
        assert all(n > 0 for n in payload["served_by_generation"].values())
        kinds = [event["kind"] for event in payload["reconfigs"]]
        assert "rebalance" in kinds
        assert payload["serve"]["n_shards"] == 2
        assert payload["serve"]["fault_events"] > 0
        assert len(payload["deltas"]) == len(versions) - 1
        for delta in payload["deltas"]:
            assert delta["delta_bytes"] < delta["snapshot_bytes"]

    def test_live_rebalance_needs_two_shards(self, capsys):
        # Refused up front, before any world is built.
        assert main(["live", *WORLD, "--rebalance"]) != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "--rebalance" in err[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ("serve", "--shards", "0"),
            ("serve", "--replicas", "-1"),
            ("serve", "--crash-rate", "2"),
            ("serve", "--crash-rate", "nan"),
            ("serve", "--spike-rate", "-0.1"),
            ("live", "--shards", "0"),
            ("live", "--generations", "0"),
            ("generations", "--url", INDEXED_URL, "--last", "0"),
            ("study", "--links", "0"),
            ("serve", "--requests", "-5"),
            ("serve", "--rps", "0"),
            ("serve", "--offered", "-2"),
            ("live", "--interval-days", "0"),
            ("live", "--reprobe-days", "inf"),
            ("live", "--requests", "-1"),
            ("query", "--bucket-counts", "--shards", "-3"),
        ],
        ids=" ".join,
    )
    def test_rejects_out_of_range_flags(self, capsys, argv):
        # A one-line usage error before any world is built, never a
        # traceback from deep inside the fleet or the publisher.
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, *WORLD])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "generating world" not in captured.out
        assert argv[-2] in captured.err.strip().splitlines()[-1]

    def test_live_requests_zero_skips_the_replay(self, monkeypatch):
        import repro.__main__ as cli

        seen = []
        monkeypatch.setattr(cli, "_cmd_live", lambda args: seen.append(args) or 0)
        assert main(["live", *WORLD, "--requests", "0"]) == 0
        assert seen[0].requests == 0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
