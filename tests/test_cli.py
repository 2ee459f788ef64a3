"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.service import QueryService


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(
            ["generate", "--output", "/tmp/db", "--n-objects", "50", "--kind", "cells"]
        )
        assert args.command == "generate"
        assert args.n_objects == 50
        assert args.kind == "cells"

    def test_aknn_defaults(self):
        args = build_parser().parse_args(["aknn"])
        assert args.k == 20
        assert args.alpha == 0.5
        assert args.method == "lb_lp_ub"

    def test_rknn_arguments(self):
        args = build_parser().parse_args(
            ["rknn", "--alpha-start", "0.2", "--alpha-end", "0.8", "--method", "rss"]
        )
        assert args.alpha_start == 0.2
        assert args.alpha_end == 0.8
        assert args.method == "rss"

    def test_method_choices_are_the_request_enums(self):
        from repro.core.requests import AknnMethod, SweepMethod

        for command in ("aknn", "batch", "serve"):
            for method in AknnMethod:
                assert build_parser().parse_args([command, "--method", method.value])
        for method in SweepMethod:
            assert build_parser().parse_args(["rknn", "--method", method.value])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rknn", "--method", "naive"])


class TestCommands:
    def test_generate_then_query_saved_database(self, tmp_path, capsys):
        db_dir = str(tmp_path / "db")
        exit_code = main(
            [
                "generate",
                "--output",
                db_dir,
                "--n-objects",
                "30",
                "--points-per-object",
                "15",
                "--space-size",
                "6",
            ]
        )
        assert exit_code == 0
        assert "wrote 30" in capsys.readouterr().out

        exit_code = main(
            ["aknn", "--database", db_dir, "--k", "3", "--space-size", "6",
             "--points-per-object", "15"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "AKNN(k=3" in output
        assert "object accesses" in output

    def test_aknn_on_generated_database(self, capsys):
        exit_code = main(
            ["aknn", "--n-objects", "25", "--points-per-object", "12", "--k", "2",
             "--space-size", "5"]
        )
        assert exit_code == 0
        assert "distance" in capsys.readouterr().out

    def test_rknn_on_generated_database(self, capsys):
        exit_code = main(
            ["rknn", "--n-objects", "25", "--points-per-object", "12", "--k", "2",
             "--space-size", "5", "--alpha-start", "0.4", "--alpha-end", "0.6"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "RKNN(k=2" in output
        assert "qualifying" in output

    def test_reverse_on_generated_database(self, capsys):
        exit_code = main(
            ["reverse", "--n-objects", "25", "--points-per-object", "12", "--k", "2",
             "--space-size", "5"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "REVERSE AKNN(k=2, alpha=0.5)" in output
        assert "candidates" in output

    def test_reverse_prints_a_confirmed_members_bound(self, capsys):
        """This answer's one member is confirmed from its bounds, unread: the
        line shows its upper bound, as ``aknn`` shows an unprobed neighbour."""
        exit_code = main(
            ["reverse", "--n-objects", "25", "--points-per-object", "12", "--k", "2",
             "--space-size", "5"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "1 reverse neighbours" in output
        assert "distance <= " in output


class TestReverseParser:
    def test_reverse_defaults(self):
        args = build_parser().parse_args(["reverse"])
        assert args.command == "reverse"
        assert args.alpha == 0.5
        assert not hasattr(args, "method")  # one reverse plan

    def test_rknn_help_names_the_range_semantics(self, capsys):
        """The rknn subcommand is the alpha-range sweep, not reverse kNN; its
        help must say so and point at the reverse subcommand (regression for
        the ambiguous 'range kNN' wording)."""
        top_help = " ".join(build_parser().format_help().split())
        assert "alpha-range" in top_help
        assert "NOT reverse" in top_help
        with pytest.raises(SystemExit):
            main(["rknn", "--help"])
        rknn_help = " ".join(capsys.readouterr().out.split())
        assert "not a reverse kNN query" in rknn_help
        with pytest.raises(SystemExit):
            main(["reverse", "--help"])
        reverse_help = " ".join(capsys.readouterr().out.split())
        assert "monochromatic" in reverse_help
        assert "--method" not in reverse_help


class TestBatchCommand:
    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.n_queries == 64
        assert args.method == "lb_lp_ub"
        assert not args.stats

    def test_batch_on_generated_database(self, capsys):
        exit_code = main(
            ["batch", "--n-objects", "30", "--points-per-object", "12", "--k", "3",
             "--n-queries", "5", "--space-size", "5"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "BATCH AKNN(5 queries" in output
        assert "queries/sec" in output

    def test_stats_flag_dumps_cache_telemetry(self, capsys):
        exit_code = main(
            ["batch", "--n-objects", "30", "--points-per-object", "12", "--k", "3",
             "--n-queries", "4", "--space-size", "5", "--stats"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "counters:" in output
        assert "alpha-cut cache:" in output
        assert "store cache:" in output
        assert "throughput_qps" in output

    def test_aknn_stats_flag(self, capsys):
        exit_code = main(
            ["aknn", "--n-objects", "25", "--points-per-object", "12", "--k", "2",
             "--space-size", "5", "--stats"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "counters:" in output
        assert "lower_bound_evaluations" in output


class TestServeCommand:
    def test_mixed_request_types_through_the_service(self, capsys):
        """AKNN + reverse + range interleaved through the coalescing service."""
        exit_code = main(
            ["serve", "--n-objects", "24", "--points-per-object", "10",
             "--k", "2", "--space-size", "5", "--shards", "2",
             "--n-requests", "6", "--clients", "2", "--query-pool", "4",
             "--mix", "aknn,reverse,range"]
        )
        assert exit_code == 0
        capsys.readouterr()

    def test_coalescer_and_placement_flags_reach_their_one_spelling(self, monkeypatch, capsys):
        """``--max-batch`` / ``--queue-depth`` are ``QueryService``'s,
        ``--placement`` is ``ShardedDatabase.build``'s."""
        services = []
        original_init = QueryService.__init__

        def recording_init(service, *args, **kwargs):
            original_init(service, *args, **kwargs)
            services.append(service)

        monkeypatch.setattr(QueryService, "__init__", recording_init)
        exit_code = main(
            ["serve", "--n-objects", "24", "--points-per-object", "10",
             "--k", "2", "--space-size", "5", "--shards", "2",
             "--n-requests", "6", "--clients", "2", "--query-pool", "4",
             "--mix", "aknn,range", "--max-batch", "8", "--queue-depth", "64",
             "--placement", "space"]
        )
        assert exit_code == 0
        assert "(space placement" in capsys.readouterr().out
        assert [(s.max_batch, s.queue_depth) for s in services] == [(8, 64)]
        assert services[0].database.placement.name == "space"
