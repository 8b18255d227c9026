"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCli:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        # Keep CLI runs away from the user's real ~/.cache/repro.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "305" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "01100110" in out

    def test_fig3_custom_message(self, capsys):
        assert main(["fig3", "--message", "0001"]) == 0
        out = capsys.readouterr().out
        assert "0001" in out

    def test_fig3_csv(self, tmp_path, capsys):
        target = tmp_path / "fig3.csv"
        assert main(["fig3", "--csv", str(target)]) == 0
        assert target.exists()
        assert target.read_text().startswith("time_ns,")

    def test_fig5_small(self, capsys, tmp_path):
        target = tmp_path / "fig5.csv"
        assert main([
            "fig5", "--chips", "30", "--messages", "40",
            "--seed", "5", "--csv", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "P(N=0)" in out
        assert target.exists()

    def test_soft_gain_small(self, capsys, tmp_path):
        target = tmp_path / "soft.csv"
        assert main([
            "soft-gain", "--chips", "10", "--messages", "32",
            "--sigmas", "0.4", "--codes", "rm13", "--no-cache",
            "--csv", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "RM(1,3)" in out
        assert "soft BER" in out
        assert target.read_text().startswith("code,sigma,")

    def test_soft_gain_rejects_negative_sigma(self, capsys):
        with pytest.raises(SystemExit):
            main(["soft-gain", "--sigmas", "-0.2"])
        assert "non-negative" in capsys.readouterr().err

    def test_loadgen_soft_sigma_requires_soft(self, capsys):
        assert main(["loadgen", "--soft-sigma", "0.3"]) == 2
        assert "--soft" in capsys.readouterr().err

    def test_codes(self, capsys):
        assert main(["codes"]) == 0
        out = capsys.readouterr().out
        for expected in ("hamming74", "hamming84", "rm13", "d_min",
                         "sec-ded", "decoder strategies:"):
            assert expected in out

    def test_loadgen_against_live_server(self, capsys):
        import asyncio
        import threading

        from repro.service import CodecServer

        ready = threading.Event()
        holder = {}

        def serve():
            async def _run():
                server = CodecServer()
                await server.start()
                stop = asyncio.Event()
                holder.update(
                    port=server.port, loop=asyncio.get_running_loop(), stop=stop
                )
                ready.set()
                await stop.wait()
                await server.stop()

            asyncio.run(_run())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(10), "server thread never came up"
        try:
            code = main([
                "loadgen", "--port", str(holder["port"]),
                "--scenario", "steady", "--clients", "4", "--requests", "6",
                "--frames", "2", "--seed", "3", "--assert-zero-residual",
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert "residual frames    0" in out
            # One session per client connection: the frames sum over them.
            stats = json.loads(out.split("server stats: ", 1)[1])
            assert sum(
                session["accepted_frames"] for session in stats["sessions"].values()
            ) == 48

            code = main([
                "loadgen", "--port", str(holder["port"]),
                "--scenario", "bursty", "--clients", "2", "--requests", "4",
                "--json",
            ])
            assert code == 0
            assert '"residual_frames": 0' in capsys.readouterr().out

            code = main([
                "loadgen", "--port", str(holder["port"]),
                "--scenario", "steady", "--clients", "2", "--requests", "4",
                "--frames", "2", "--soft", "--soft-sigma", "0.2",
                "--assert-zero-residual", "--json",
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert '"soft": true' in out
            assert '"residual_frames": 0' in out
        finally:
            holder["loop"].call_soon_threadsafe(holder["stop"].set)
            thread.join(10)

    def test_export_josim(self, capsys):
        assert main(["export-josim", "hamming84", "--spread", "0.2"]) == 0
        out = capsys.readouterr().out
        assert ".spread 0.2000" in out
        assert "Xxor_t1" in out

    def test_export_josim_to_file(self, tmp_path, capsys):
        target = tmp_path / "deck.cir"
        assert main(["export-josim", "rm13", "--output", str(target)]) == 0
        assert target.read_text().strip().endswith(".end")

    def test_fig5_parallel_warm_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "fig5", "--chips", "12", "--messages", "10", "--seed", "5",
            "--jobs", "2", "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "12 simulated" not in cold.err  # 4 schemes x 12 chips = 48
        assert "48 simulated" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "0 simulated" in warm.err
        assert warm.out == cold.out  # cached counts render identically

    def test_fig5_no_cache_leaves_no_entries(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main([
            "fig5", "--chips", "8", "--messages", "10", "--no-cache",
        ]) == 0
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig5", "--chips", "0"],
            ["fig5", "--chips", "abc"],
            ["fig5", "--messages", "-3"],
            ["fig5", "--spread", "1.5"],
            ["fig5", "--spread", "oops"],
            ["fig5", "--jobs", "0"],
            ["ablations", "--chips", "0"],
            ["report", "--chips", "0"],
        ],
    )
    def test_numeric_argument_validation(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse parser.error, not a traceback
        err = capsys.readouterr().err
        assert "error: argument" in err
        assert "expected" in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
