"""CLI tests driving main(argv) and checking files, formats, exit codes."""

import hashlib

import pytest

from pgoppa.cli import main
from pgoppa.goppa import GoppaCode, word_from_text


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gen_encode_corrupt_decode_pipeline(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    word_path = tmp_path / "word.txt"
    rx_path = tmp_path / "rx.txt"
    err_path = tmp_path / "err.txt"

    rc, _, _ = run_cli(capsys, "gen", "--p", "3", "--m", "3", "--t", "8",
                       "--seed", "11", "-o", str(code_path))
    assert rc == 0
    code = GoppaCode.load(code_path)
    assert code.n == 27 and code.t == 8

    rc, _, _ = run_cli(capsys, "encode", "--code", str(code_path), "--seed", "5",
                       "-o", str(word_path))
    assert rc == 0
    word = word_from_text(word_path.read_text())
    assert code.contains(word)

    rc, _, _ = run_cli(capsys, "corrupt", "--code", str(code_path), "--word", str(word_path),
                       "--weight", "8", "--dist", "equal=2", "--seed", "7",
                       "-o", str(rx_path), "--error-out", str(err_path))
    assert rc == 0
    rx = word_from_text(rx_path.read_text())
    err = word_from_text(err_path.read_text())
    assert all((w + e) % 3 == r for w, e, r in zip(word, err, rx))
    assert sum(1 for e in err if e) == 8

    rc, out, _ = run_cli(capsys, "decode", "--code", str(code_path), "--word", str(rx_path))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "status ok"
    assert lines[1].startswith("candidates ")
    codeword_lines = [ln for ln in lines if ln.startswith("  codeword ")]
    decoded = [word_from_text(ln.split("codeword ")[1]) for ln in codeword_lines]
    assert word in decoded


def test_decode_uncorrupted_single_candidate(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    word_path = tmp_path / "word.txt"
    run_cli(capsys, "gen", "--p", "2", "--m", "4", "--t", "3", "--seed", "3",
            "-o", str(code_path))
    run_cli(capsys, "encode", "--code", str(code_path), "-o", str(word_path))
    rc, out, _ = run_cli(capsys, "decode", "--code", str(code_path), "--word", str(word_path))
    assert rc == 0
    assert "status ok" in out
    assert "candidates 1" in out


def test_gen_param_error_exit(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "gen", "--p", "3", "--m", "3", "--t", "9",
                         "--n", "27", "-o", str(tmp_path / "x.txt"))
    assert rc == 1
    assert "error:" in err
    # p > 2**26: the Frobenius matrix of the modulus (m = 2) or of the
    # generator (t = 2) would leave the exact float64 range
    for m, t, n in [("2", "1", "3"), ("1", "2", "5")]:
        rc, _, err = run_cli(capsys, "gen", "--p", "67108879", "--m", m, "--t", t,
                             "--n", n, "-o", str(tmp_path / "x.txt"))
        assert rc == 1
        assert err.startswith("error:")


def test_out_of_range_code_and_word_exit_nonzero(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    word_path = tmp_path / "word.txt"
    run_cli(capsys, "gen", "--p", "3", "--m", "2", "--t", "2", "--seed", "4", "-o", str(code_path))
    code = GoppaCode.load(code_path)
    word_path.write_text(" ".join(["5"] + ["0"] * (code.n - 1)) + "\n")
    rc, _, err = run_cli(capsys, "decode", "--code", str(code_path), "--word", str(word_path))
    assert rc == 1 and "error:" in err

    lines = code_path.read_text().splitlines()
    lines[3] = " ".join(lines[3].split()[:-1] + ["9"])  # 9 is outside GF(9)
    code_path.write_text("\n".join(lines) + "\n")
    word_path.write_text(" ".join(["0"] * code.n) + "\n")
    rc, _, err = run_cli(capsys, "decode", "--code", str(code_path), "--word", str(word_path))
    assert rc == 1 and "error:" in err


def test_non_numeric_word_token_exits_nonzero(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    word_path = tmp_path / "word.txt"
    run_cli(capsys, "gen", "--p", "3", "--m", "2", "--t", "2", "--seed", "4", "-o", str(code_path))
    code = GoppaCode.load(code_path)
    word_path.write_text(" ".join(["1", "x"] + ["0"] * (code.n - 2)) + "\n")
    rc, _, err = run_cli(capsys, "decode", "--code", str(code_path), "--word", str(word_path))
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_non_numeric_code_header_exits_nonzero(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    word_path = tmp_path / "word.txt"
    run_cli(capsys, "gen", "--p", "3", "--m", "2", "--t", "2", "--seed", "4", "-o", str(code_path))
    code = GoppaCode.load(code_path)
    lines = code_path.read_text().splitlines()
    lines[0] = " ".join(["3", "z"] + lines[0].split()[2:])
    code_path.write_text("\n".join(lines) + "\n")
    word_path.write_text(" ".join(["0"] * code.n) + "\n")
    rc, _, err = run_cli(capsys, "decode", "--code", str(code_path), "--word", str(word_path))
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_gen_composite_flag(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    rc, _, _ = run_cli(capsys, "gen", "--p", "3", "--m", "3", "--t", "4",
                       "--seed", "2", "--square-free-composite", "-o", str(code_path))
    assert rc == 0
    from pgoppa.polyring import is_square_free

    assert is_square_free(GoppaCode.load(code_path).g)


def test_table1_csv_and_determinism(capsys):
    argv = ["table1", "--rows", "3,3,8", "--trials", "25", "--seed", "42", "--workers", "1"]
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "p,m,t,w,trials,successes,observed,predicted,ci_low,ci_high"
    assert len(lines) == 5  # header + w in (8,7,6) + seed comment
    assert [ln.split(",")[3] for ln in lines[1:4]] == ["8", "7", "6"]
    assert lines[-1].startswith("# seed=42")


# sha256 of whole CSV outputs (seed comment and package version included).
# A change to any draw, decode or success count shows here; the hashes move
# only with a deliberate change to what a trial computes.
GOLDEN_CSV = [
    (
        ["table1", "--rows", "3,3,8", "--rows", "5,2,12", "--rows", "7,2,24", "--trials", "20", "--seed", "7"],
        "bc4879ce8701ada754b4668015726f5ace4d36251571d8de60eff9ec9dd99b93",
    ),
    (
        ["sweep", "--p", "5", "--m", "2", "--t", "12", "--dist", "uniform", "--trials", "20", "--seed", "7"],
        "b15e8e493d5f5b71c5a9dd8b1ef3d5456dd8c3da0608a7379a5569d38ba65494",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_CSV, ids=["table1", "sweep"])
def test_experiment_csv_matches_golden_hash(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, *argv, "--workers", "1")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table1_binary_hard_assertion(capsys):
    rc, out, _ = run_cli(capsys, "table1", "--rows", "2,4,3", "--trials", "30",
                         "--seed", "1", "--workers", "1")
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[5] == "30"  # all successes


@pytest.mark.parametrize("spec", ["3,3", "a,b,c", "3,3,8,1"])
def test_table1_bad_block_is_usage_error(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--rows", spec, "--trials", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"block {spec!r} is not three integers P,M,T" in err


def test_table1_bad_worker_cap_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("PGOPPA_MAX_WORKERS", "abc")
    rc, out, err = run_cli(capsys, "table1", "--rows", "3,3,8", "--trials", "1")
    assert rc == 1
    assert out == ""
    assert err == "error: PGOPPA_MAX_WORKERS='abc' is not an integer\n"


def test_sweep(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--p", "3", "--m", "2", "--t", "3",
                         "--trials", "20", "--seed", "9", "--workers", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    ws = [int(ln.split(",")[3]) for ln in lines[1:-1]]
    assert ws == sorted(ws, reverse=True)
    assert ws[0] == 3


def test_alternant_probe_line(capsys):
    rc, out, _ = run_cli(capsys, "alternant-probe", "--p", "2", "--m", "2", "--r", "4",
                         "--trials", "400", "--seed", "6")
    assert rc == 0
    fields = out.split()
    assert len(fields) == 9
    assert fields[0] == "2" and fields[3] == "400"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
