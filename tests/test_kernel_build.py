"""Building, caching and loading the C kernel, and the fallback to Python."""

import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest

import planarcc
from planarcc import matching
from planarcc.matching import _blossom_c, _blossom_py

SRC_ROOT = Path(planarcc.__file__).resolve().parent.parent

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no system C compiler")


def compile_kernel(target: Path, *flags: str) -> subprocess.CompletedProcess:
    """Compile ``_blossom.c`` into ``target`` with the package's flags,
    its optimization level replaced by ``flags``."""
    base = [f for f in _blossom_c.CFLAGS if not f.startswith("-O")]
    return subprocess.run(
        ["cc", *base, *flags, "-o", str(target), str(_blossom_c.SOURCE)],
        capture_output=True, text=True,
    )


def fake_compiler(tmp_path: Path, status: int = 0) -> tuple[Path, Path]:
    """A stand-in for ``cc`` that logs the source it was given, writes a
    placeholder output file, and exits with ``status``."""
    log = tmp_path / "calls.log"
    cc = tmp_path / "fake-cc"
    cc.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        "args = sys.argv[1:]\n"
        f"open({str(log)!r}, 'a').write(args[-1] + '\\n')\n"
        "open(args[args.index('-o') + 1], 'w').write('not a library')\n"
        "print('fake-cc: error: refused', file=sys.stderr)\n"
        f"sys.exit({status})\n"
    )
    cc.chmod(0o755)
    return cc, log


@needs_cc
def test_real_build_loads_solves_and_is_reused(tmp_path, monkeypatch):
    kernel, reason = _blossom_c.try_load(tmp_path)
    assert reason is None
    assert kernel.path.parent == tmp_path
    eu, ev, ew = [0, 1, 2, 0], [1, 2, 3, 3], [-1, -2, -3, -4]
    want = _blossom_py.solve_max_weight_matching(4, eu, ev, ew)
    assert kernel.solve(4, eu, ev, ew) == want

    def refuse(*args, **kwargs):
        raise AssertionError("a warm cache must start no process")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    again, reason = _blossom_c.try_load(tmp_path)
    assert reason is None and again.path == kernel.path
    assert again.solve(4, eu, ev, ew) == want
    assert list(tmp_path.iterdir()) == [kernel.path]


def test_changed_source_triggers_rebuild(tmp_path):
    cc, log = fake_compiler(tmp_path)
    cache = tmp_path / "cache"
    source = tmp_path / "kernel.c"
    source.write_text("int first;\n")
    first = _blossom_c.build(cache, str(cc), source)
    assert _blossom_c.build(cache, str(cc), source) == first
    source.write_text("int second;\n")
    second = _blossom_c.build(cache, str(cc), source)
    assert second != first
    assert sorted(cache.iterdir()) == sorted([first, second])
    assert log.read_text().splitlines() == [str(source)] * 2


def test_unwritable_cache_falls_back_to_temp_dir(tmp_path, monkeypatch):
    cc, _ = fake_compiler(tmp_path)
    not_a_dir = tmp_path / "cache-is-a-file"
    not_a_dir.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_dir))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    path = _blossom_c.build(cc=str(cc))
    assert path.parent == tmp_path / f"planarcc-{os.getuid()}"
    assert path.is_file()


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_unbuildable_kernel_falls_back_to_python(tmp_path, compiler):
    if compiler == "missing":
        cc, words = tmp_path / "no-such-cc", "no-such-cc"
    else:
        cc, words = fake_compiler(tmp_path, status=1)[0], "fake-cc: error: refused"
    cache = tmp_path / "cache"
    kernel, reason = _blossom_c.try_load(cache, str(cc))
    assert kernel is None
    assert words in reason
    assert not cache.exists() or list(cache.iterdir()) == []

    engines, default = matching._select_engines(reason, None)
    assert default == "python" and sorted(engines) == ["python"]
    with pytest.raises(ImportError, match=words):
        matching._select_engines(reason, "compiled")


def test_no_ext_selects_python_in_a_fresh_interpreter():
    env = dict(os.environ, PLANARCC_NO_EXT="1")
    env.pop("PLANARCC_MATCHING", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import planarcc.matching as m; "
        "print(m.available_engines(), m.DEFAULT_ENGINE, m.COMPILED_UNAVAILABLE)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "['python'] python PLANARCC_NO_EXT is set"

    env["PLANARCC_MATCHING"] = "compiled"
    out = subprocess.run(
        [sys.executable, "-c", "import planarcc"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "ImportError" in out.stderr and "PLANARCC_NO_EXT is set" in out.stderr


@needs_cc
@pytest.mark.parametrize("opt", ["-O1", "-O3"])
def test_kernel_builds_without_warnings(tmp_path, opt):
    # -Wclobbered (in -Wextra) only fires with optimization on.
    proc = compile_kernel(tmp_path / "k.so", opt, "-Wall", "-Wextra", "-Werror")
    assert proc.returncode == 0, proc.stderr


@needs_cc
def test_kernel_has_no_undefined_behaviour_at_the_weight_limit(tmp_path):
    # The dual accumulator runs for the whole solve, and heap keys add it to
    # slacks, so int64 overflow is the risk: solve graphs with many trees at
    # +-MAX_ABS_WEIGHT under UBSan, which aborts on the first signed overflow.
    lib = tmp_path / "k.so"
    proc = compile_kernel(
        lib, "-O1", "-fsanitize=undefined", "-fno-sanitize-recover=all"
    )
    if proc.returncode != 0:
        pytest.skip(f"cc cannot build with UBSan: {proc.stderr.strip()}")
    code = textwrap.dedent(f"""
        import random
        from planarcc.matching import MAX_ABS_WEIGHT, _blossom_c, _blossom_py

        kernel = _blossom_c.Kernel({str(lib)!r})
        rng = random.Random(11)
        big = MAX_ABS_WEIGHT
        for _ in range(40):
            n = rng.choice([6, 12, 24, 40])
            density = rng.uniform(0.1, 0.6)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < density]
            if not edges:
                continue
            eu, ev = (list(col) for col in zip(*edges))
            ew = [rng.choice((-big, big, rng.randint(-big, big))) for _ in edges]
            assert kernel.solve(n, eu, ev, ew) == _blossom_py.solve_max_weight_matching(n, eu, ev, ew)
        # Sparse graphs with weights -big, 0 or big leave many trees after
        # the greedy start, so candidate-heap keys (slack + cum) reach the limit.
        for _ in range(20):
            n = rng.choice([40, 48, 64])
            density = rng.uniform(0.04, 0.2)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < density]
            eu, ev = (list(col) for col in zip(*edges))
            ew = [big * rng.randint(-1, 1) for _ in edges]
            assert kernel.solve(n, eu, ev, ew) == _blossom_py.solve_max_weight_matching(n, eu, ev, ew)
    """)
    env = dict(os.environ, PLANARCC_NO_EXT="1", PYTHONPATH=str(SRC_ROOT))
    env.pop("PLANARCC_MATCHING", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


@needs_cc
def test_session_reuse_is_clean_under_asan(tmp_path):
    # Sessions keep their buffers across solves and free per-blossom lists
    # only when the next solve starts or the session closes, so a stale
    # pointer or a list freed twice would show on reuse: run a few hundred
    # solves on reused sessions under ASan and UBSan, which abort on the
    # first bad access, and check each against the pure-Python twin.
    lib = tmp_path / "k.so"
    proc = compile_kernel(
        lib, "-O1", "-g", "-fno-omit-frame-pointer",
        "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
    )
    if proc.returncode != 0:
        pytest.skip(f"cc cannot build with ASan: {proc.stderr.strip()}")
    runtime = subprocess.run(
        ["cc", "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    if not os.path.isabs(runtime):
        pytest.skip("cc does not name an ASan runtime to preload")
    code = textwrap.dedent(f"""
        import random
        from planarcc.matching import MAX_ABS_WEIGHT, _blossom_c, _blossom_py

        kernel = _blossom_c.Kernel({str(lib)!r})
        rng = random.Random(17)
        big = MAX_ABS_WEIGHT
        solves = 0
        for trial in range(30):
            n = rng.choice([0, 2, 7, 12, 24, 40])
            density = rng.uniform(0.05, 0.6)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < density]
            eu = [i for (i, _) in edges]
            ev = [j for (_, j) in edges]
            session = _blossom_c.Session(kernel, n, eu, ev)
            twin = _blossom_py.Session(n, eu, ev)
            for _ in range(10):
                lo, hi = rng.choice(((-20, 20), (-1, 1), (-big, big)))
                ew = [rng.choice((lo, hi, rng.randint(lo, hi))) for _ in edges]
                if edges and rng.random() < 0.1:
                    bad = list(ew)
                    bad[rng.randrange(len(bad))] = rng.choice((big + 1, -big - 1))
                    try:
                        session.solve(bad)
                    except ValueError:
                        pass
                    else:
                        raise AssertionError("out-of-range weight accepted")
                assert session.solve(ew) == twin.solve(ew)
                solves += 1
            session.close()
            session.close()
        assert solves == 300, solves
    """)
    env = dict(
        os.environ, PLANARCC_NO_EXT="1", PYTHONPATH=str(SRC_ROOT),
        LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
    )
    env.pop("PLANARCC_MATCHING", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
