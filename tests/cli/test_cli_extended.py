"""CLI tests for the extension commands: info, checksum, lmod,
--concretizer, and auto-generated modules."""

import os

import pytest

from repro.cli.main import main


@pytest.fixture
def root(tmp_path):
    return str(tmp_path / "universe")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInfo:
    def test_full_metadata(self, root, capsys):
        code, out, _ = run(capsys, "--root", root, "info", "mpileaks")
        assert code == 0
        assert "Package:   mpileaks" in out
        assert "https://github.com/hpc/mpileaks" in out
        assert "Safe versions:" in out and "2.3" in out
        assert "Variants:" in out and "debug" in out
        assert "Dependencies:" in out and "mpi" in out and "callpath" in out

    def test_provider_info(self, root, capsys):
        code, out, _ = run(capsys, "--root", root, "info", "mvapich2")
        assert code == 0
        assert "Provides:" in out
        assert "mpi@:2.2  when @1.9" in out

    def test_conditional_dep_info(self, root, capsys):
        code, out, _ = run(capsys, "--root", root, "info", "rose")
        assert code == 0
        assert "when %gcc@:4" in out

    def test_unknown_package(self, root, capsys):
        code, _, err = run(capsys, "--root", root, "info", "nope")
        assert code == 1 and "Error" in err

    def test_spack_info_carries_the_printed_compiler_requirements(
        self, root, capsys, monkeypatch
    ):
        """``info`` formats what ``spack_info`` serves, compiler
        requirements included."""
        import importlib

        from repro.directives import requires_compiler, variant, version
        from repro.package.package import Package
        from repro.service import ServiceDaemon
        from repro.session import Session

        session = Session.create(root)

        @session.repo.repos[0].register("needscxx")
        class Needscxx(Package):
            version("1.0", "x")
            variant("openmp", default=False)
            requires_compiler("cxx@14:")
            requires_compiler("openmp@4:", when="+openmp")

        cli = importlib.import_module("repro.cli.main")
        monkeypatch.setattr(cli, "_session", lambda args: session)
        code, out, _ = run(capsys, "--root", root, "info", "needscxx")
        assert code == 0
        printed = out.split("Compiler requirements:\n")[1].splitlines()
        assert printed == ["    cxx@14:", "    openmp@4:  when +openmp"]
        with ServiceDaemon(session, workers=1) as daemon:
            info = daemon.call("spack_info", {"package": "needscxx"})
        assert info["compiler_requirements"] == [
            {"feature": "cxx@14:", "when": None},
            {"feature": "openmp@4:", "when": "+openmp"},
        ]


class TestChecksum:
    def test_checksums_scraped_and_computed(self, root, capsys):
        code, out, _ = run(capsys, "--root", root, "checksum", "libelf")
        assert code == 0
        assert "found 3 versions" in out
        # output is paste-able version() directives with real md5s
        from repro.fetch.mockweb import mock_checksum

        assert "version('0.8.13', '%s')" % mock_checksum("libelf", "0.8.13") in out


class TestLmodCommand:
    def test_hierarchy_regenerated(self, root, capsys):
        run(capsys, "--root", root, "install", "mpileaks")
        code, out, _ = run(capsys, "--root", root, "lmod")
        assert code == 0
        assert "regenerated" in out
        assert "Core" in out and "mvapich2" in out


class TestConcretizerFlag:
    def test_spec_solver_flag(self, root, capsys):
        code, out, _ = run(
            capsys, "--root", root, "spec", "--concretizer", "solver", "mpileaks"
        )
        assert code == 0
        assert "Concretized" in out


class TestNoConcretizeCacheFlag:
    def test_bypass_leaves_the_cache_empty(self, root, capsys):
        code, out, _ = run(
            capsys, "--root", root, "spec", "--no-concretize-cache", "mpileaks"
        )
        assert code == 0
        assert "Concretized" in out
        assert not os.path.isdir(
            os.path.join(root, "cache", "concretize")
        ) or not os.listdir(os.path.join(root, "cache", "concretize"))

    def test_cached_and_uncached_answers_agree(self, root, capsys):
        _, warm_out, _ = run(capsys, "--root", root, "spec", "mpileaks")
        _, cold_out, _ = run(
            capsys, "--root", root, "spec", "--no-concretize-cache", "mpileaks"
        )
        assert warm_out.split("Concretized")[1] == cold_out.split("Concretized")[1]
        # the default path persisted one payload file for the warm run
        cache_root = os.path.join(root, "cache", "concretize")
        payloads = [n for _, _, names in os.walk(cache_root) for n in names]
        assert len(payloads) == 1 and payloads[0].endswith(".json")


class TestFindByHashAndLocation:
    def test_find_by_hash_prefix(self, root, capsys):
        run(capsys, "--root", root, "install", "libelf")
        code, out, _ = run(capsys, "--root", root, "find", "libelf")
        full_hash = out.strip().splitlines()[-1].split("/")[-1]
        code, out, _ = run(capsys, "--root", root, "find", "/" + full_hash[:6])
        assert code == 0 and "libelf" in out

    def test_location(self, root, capsys):
        run(capsys, "--root", root, "install", "libelf")
        code, out, _ = run(capsys, "--root", root, "location", "libelf")
        assert code == 0
        assert os.path.isdir(out.strip())
        assert "libelf" in out

    def test_location_ambiguous(self, root, capsys):
        run(capsys, "--root", root, "install", "libelf@0.8.13")
        run(capsys, "--root", root, "install", "libelf@0.8.12")
        code, _, err = run(capsys, "--root", root, "location", "libelf")
        assert code == 1 and "2 installed specs" in err

    def test_find_deps_tree(self, root, capsys):
        run(capsys, "--root", root, "install", "libdwarf")
        code, out, _ = run(capsys, "--root", root, "find", "-d", "libdwarf")
        assert code == 0
        assert "libelf" in out


class TestAutoModules:
    def test_modules_generated_on_install(self, root, capsys):
        run(capsys, "--root", root, "install", "libelf")
        module_root = os.path.join(root, "modules")
        found = []
        for dirpath, _dirs, files in os.walk(module_root):
            found.extend(files)
        assert any("libelf" in f for f in found)

    def test_modules_removed_on_uninstall(self, root, capsys):
        run(capsys, "--root", root, "install", "libelf")
        run(capsys, "--root", root, "uninstall", "libelf")
        module_root = os.path.join(root, "modules")
        found = []
        for dirpath, _dirs, files in os.walk(module_root):
            found.extend(files)
        assert not any("libelf" in f for f in found)
