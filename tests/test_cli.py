"""CLI commands, driven through main()."""

import pytest

from repro.cli import build_parser, main
from repro.dns.activedns import write_snapshot
from repro.dns.records import DNSRecord


class TestGen:
    def test_generates_candidates(self, capsys):
        assert main(["gen", "facebook.com", "--limit", "50"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 50
        assert all("\t" in line for line in lines)

    def test_type_filter(self, capsys):
        main(["gen", "facebook.com", "--types", "bits", "--limit", "20"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.endswith("\tbits") for line in lines)

    def test_combo_flag(self, capsys):
        main(["gen", "uber.com", "--types", "combo", "--combo", "--limit", "10"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all("combo" in line for line in lines)


class TestClassify:
    def test_known_squats(self, capsys):
        code = main(["classify", "faceb00k.pw", "goog1e.nl",
                     "--brands", "facebook.com", "google.com"])
        assert code == 0
        out = capsys.readouterr().out
        assert "faceb00k.pw\tfacebook\thomograph" in out
        assert "goog1e.nl\tgoogle\thomograph" in out

    def test_clean_domain_exit_code(self, capsys):
        code = main(["classify", "totally-unrelated-site.com",
                     "--brands", "facebook.com"])
        assert code == 1
        assert "\t-\t-" in capsys.readouterr().out

    def test_sector_catalog_flag(self, capsys):
        code = main(["classify", "irs-refund.com", "--sectors", "government"])
        assert code == 0
        assert "irs-refund.com\tirs\tcombo" in capsys.readouterr().out

    def test_sectors_combine_with_brands(self, capsys):
        code = main(["classify", "irs-refund.com", "faceb00k.pw",
                     "--brands", "facebook.com", "--sectors", "government"])
        assert code == 0
        out = capsys.readouterr().out
        assert "irs-refund.com\tirs" in out
        assert "faceb00k.pw\tfacebook" in out


class TestScan:
    def test_scan_snapshot(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.tsv"
        write_snapshot([
            DNSRecord(name="faceb00k.pw", ip="1.1.1.1"),
            DNSRecord(name="facebook-login.tk", ip="1.1.1.2"),
            DNSRecord(name="clean.org", ip="1.1.1.3"),
        ], snapshot)
        out_file = tmp_path / "matches.tsv"
        code = main(["scan", str(snapshot), "--brands", "facebook.com",
                     "--out", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "found 2 squatting domains" in out
        written = out_file.read_text().strip().splitlines()
        assert len(written) == 2


class TestWorld:
    def test_world_dump(self, tmp_path, capsys):
        out = tmp_path / "world.tsv"
        code = main(["world", str(out), "--organic", "30", "--squats", "40",
                     "--phish", "4"])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out
        assert len(out.read_text().strip().splitlines()) > 70


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.slow
def test_pipeline_command(capsys):
    code = main(["pipeline", "--squats", "120"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verified phishing" in out
    assert "crawl health" not in out     # no fault plan, no health report


def test_pipeline_command_rejects_bad_fault_flags(capsys):
    assert main(["pipeline", "--fault-rate", "1.5"]) == 2
    assert "--fault-rate" in capsys.readouterr().err
    assert main(["pipeline", "--max-retries", "-1"]) == 2
    assert "--max-retries" in capsys.readouterr().err


def test_pipeline_command_rejects_bad_worker_counts(capsys):
    assert main(["pipeline", "--crawl-workers", "0"]) == 2
    assert "crawl_workers must be >= 1" in capsys.readouterr().err


def test_serve_command_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "snapshot.pzon", "--workers", "2"])


@pytest.mark.slow
def test_pipeline_command_with_faults(capsys):
    code = main(["pipeline", "--squats", "120", "--fault-rate", "0.2",
                 "--fault-seed", "7", "--max-retries", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verified phishing" in out
    assert "crawl health" in out
    assert "injected faults:" in out
    assert "dead letters:" in out


class TestVerifyFlag:
    @pytest.fixture
    def packed_path(self, tmp_path):
        path = tmp_path / "world.pzon"
        assert main(["world", str(path), "--packed", "--organic", "200",
                     "--squats", "60"]) == 0
        return path

    def test_scan_verify_accepts_intact_snapshot(self, packed_path, capsys):
        assert main(["scan", str(packed_path), "--verify"]) == 0
        assert "squatting domains" in capsys.readouterr().out

    def test_scan_verify_rejects_corrupt_snapshot(self, packed_path,
                                                  capsys):
        data = bytearray(packed_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        packed_path.write_bytes(bytes(data))
        assert main(["scan", str(packed_path), "--verify"]) == 2
        assert "failed verification" in capsys.readouterr().err

    def test_query_verify_rejects_corrupt_snapshot(self, packed_path,
                                                   capsys):
        data = bytearray(packed_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        packed_path.write_bytes(bytes(data))
        assert main(["query", str(packed_path), "--verify",
                     "anything.com"]) == 2
        assert "failed verification" in capsys.readouterr().err

    def test_stream_verify_happy_path(self, capsys):
        code = main(["stream", "--events", "400", "--base-events", "150",
                     "--segment-events", "80", "--verify"])
        assert code == 0
        assert "streamed" in capsys.readouterr().out


class TestLifecycle:
    ARGS = ["lifecycle", "--snapshots", "3", "--base-events", "120",
            "--events-per-snapshot", "60"]

    def test_report_text_mode(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "snapshot-pair diffs" in out
        assert "squat lifecycle by family" in out
        assert "diff chain:" in out

    def test_oracle_flag_cross_checks(self, capsys):
        assert main(self.ARGS + ["--oracle"]) == 0
        assert "== dict-set oracle" in capsys.readouterr().out

    def test_json_mode_round_trips(self, capsys):
        import json

        assert main(self.ARGS + ["--json", "--workers", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["snapshots"] == 3
        assert len(report["diff_digests"]) == 2
        assert report["chain_digest"]
        assert "families" in report

    def test_store_caches_snapshots(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "store")
        assert main(self.ARGS + ["--store", store, "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(self.ARGS + ["--store", store, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["chain_digest"] == warm["chain_digest"]
        assert warm["series_stats"]["cached_snapshots"] == 3
