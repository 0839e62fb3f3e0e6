"""Installer behaviour: artifacts, provenance, failures, uninstall."""

import json
import os

import pytest

from repro.directives import depends_on, version
from repro.package.package import Package
from repro.spec.spec import Spec
from repro.store.installer import InstallError, UninstallError
from repro.store.layout import METADATA_DIR


class TestArtifacts:
    def test_prefix_contents(self, installed_mpileaks):
        session, spec, _ = installed_mpileaks
        prefix = session.store.layout.path_for_spec(spec)
        assert os.path.isfile(os.path.join(prefix, "include", "mpileaks.h"))
        assert os.path.isfile(os.path.join(prefix, "lib", "libmpileaks.so.json"))
        assert os.path.isfile(os.path.join(prefix, "bin", "mpileaks"))

    def test_binary_links_direct_deps(self, installed_mpileaks):
        session, spec, _ = installed_mpileaks
        prefix = session.store.layout.path_for_spec(spec)
        with open(os.path.join(prefix, "bin", "mpileaks")) as f:
            artifact = json.load(f)
        assert sorted(artifact["needed"]) == [
            "libcallpath.so.json", "libmvapich2.so.json",
        ]

    def test_rpaths_embedded_for_all_deps(self, installed_mpileaks):
        session, spec, _ = installed_mpileaks
        prefix = session.store.layout.path_for_spec(spec)
        with open(os.path.join(prefix, "bin", "mpileaks")) as f:
            artifact = json.load(f)
        layout = session.store.layout
        for dep in ("callpath", "mvapich2"):
            dep_lib = os.path.join(layout.path_for_spec(spec[dep]), "lib")
            assert dep_lib in artifact["rpaths"]

    def test_runs_with_empty_environment(self, installed_mpileaks):
        """The paper's headline build-methodology claim (§3.5.2)."""
        from repro.build.loader import ldd

        session, spec, _ = installed_mpileaks
        binary = os.path.join(session.store.layout.path_for_spec(spec), "bin", "mpileaks")
        resolved = ldd(binary, env={})
        assert set(resolved) == {
            "libcallpath.so.json", "libdyninst.so.json", "liblibdwarf.so.json",
            "liblibelf.so.json", "libmvapich2.so.json",
        }

    def test_hostile_environment_cannot_misdirect(self, installed_mpileaks, tmp_path):
        """§3.5.1's libelf two-ABI story: a wrong libelf on
        LD_LIBRARY_PATH must not shadow the RPATH-ed one."""
        from repro.build.loader import ldd

        session, spec, _ = installed_mpileaks
        decoy = tmp_path / "decoy"
        decoy.mkdir()
        (decoy / "liblibelf.so.json").write_text(
            json.dumps({"type": "library", "needed": [], "rpaths": [], "DECOY": True})
        )
        binary = os.path.join(session.store.layout.path_for_spec(spec), "bin", "mpileaks")
        resolved = ldd(binary, env={"LD_LIBRARY_PATH": str(decoy)})
        right_libelf = os.path.join(
            session.store.layout.path_for_spec(spec["libelf"]), "lib", "liblibelf.so.json"
        )
        assert resolved["liblibelf.so.json"] == right_libelf


class TestProvenance:
    def test_files_written(self, installed_mpileaks):
        session, spec, _ = installed_mpileaks
        meta = os.path.join(session.store.layout.path_for_spec(spec), METADATA_DIR)
        for name in ("spec.json", "build.log", "package.py", "build_env.json",
                     "applied_patches.json"):
            assert os.path.isfile(os.path.join(meta, name)), name

    def test_spec_json_round_trips(self, installed_mpileaks):
        session, spec, _ = installed_mpileaks
        meta = os.path.join(session.store.layout.path_for_spec(spec), METADATA_DIR)
        with open(os.path.join(meta, "spec.json")) as f:
            again = Spec.from_dict(json.load(f))
        assert again.dag_hash() == spec.dag_hash()

    def test_package_source_captured(self, installed_mpileaks):
        session, spec, _ = installed_mpileaks
        meta = os.path.join(session.store.layout.path_for_spec(spec), METADATA_DIR)
        source = open(os.path.join(meta, "package.py")).read()
        assert "class Mpileaks" in source
        assert "depends_on" in source

    def test_two_builds_of_one_class_read_its_source_once(self, session,
                                                          monkeypatch):
        import inspect
        import weakref

        from repro.store import executor

        monkeypatch.setattr(executor, "_SOURCES", weakref.WeakKeyDictionary())
        reads = []
        real_getsource = inspect.getsource

        def counting(obj):
            reads.append(obj.__name__)
            return real_getsource(obj)

        monkeypatch.setattr(inspect, "getsource", counting)
        texts = []
        for version in ("0.8.12", "0.8.13"):
            spec, _ = session.install("libelf@%s" % version)
            meta = os.path.join(session.store.layout.path_for_spec(spec),
                                METADATA_DIR)
            with open(os.path.join(meta, "package.py")) as f:
                texts.append(f.read())
        assert reads == ["Libelf"]
        assert texts[0] == texts[1] == real_getsource(type(
            session.repo.get_class("libelf")(spec)))

    def test_generated_class_source_is_marked_unavailable(self, session):
        from repro.store.executor import _package_source

        generated = type("Generated", (Package,), {})
        assert _package_source(generated) is None
        assert _package_source(generated) is None

    def test_build_log_has_phases(self, installed_mpileaks):
        session, spec, _ = installed_mpileaks
        meta = os.path.join(session.store.layout.path_for_spec(spec), METADATA_DIR)
        log = open(os.path.join(meta, "build.log")).read()
        assert "configured" in log
        assert "compiled" in log
        assert "installed" in log


class TestStats:
    def test_virtual_time_accounted(self, installed_mpileaks):
        _, _, result = installed_mpileaks
        for stats in result.built:
            assert stats.virtual_seconds > 0
            assert stats.counts.get("compile_units", 0) > 0
            assert stats.real_seconds > 0

    def test_wrapper_invocations_counted(self, installed_mpileaks):
        _, _, result = installed_mpileaks
        mpileaks_stats = next(s for s in result.built if s.spec.name == "mpileaks")
        # one wrapper pass per compile unit + 2 links
        assert mpileaks_stats.counts["wrapper_invocations"] == 43 + 2

    def test_install_returns_the_schedulers_result(self, session,
                                                   monkeypatch):
        """One result type: what Session.install returns is the very
        object Scheduler.run built, not a copy of its fields."""
        from repro.store.scheduler import Scheduler

        built = []
        run = Scheduler.run

        def recording_run(self, plan, keep_stage=False):
            built.append(run(self, plan, keep_stage=keep_stage))
            return built[-1]

        monkeypatch.setattr(Scheduler, "run", recording_run)
        _, result = session.install("libdwarf")
        assert len(built) == 1 and result is built[0]
        assert result.built_names == ["libelf", "libdwarf"]
        assert result.failed == [] and result.skipped == []


class TestFailureInjection:
    def test_failing_build_cleans_partial_prefix(self, session):
        repo = session.repo.repos[0]

        class Exploder(Package):
            url = "https://mock.example.org/exploder/exploder-1.0.tar.gz"
            version("1.0", __import__("repro.fetch.mockweb", fromlist=["mock_checksum"]).mock_checksum("exploder", "1.0"))

            def install(self, spec, prefix):
                from repro.build.shell import configure

                configure("--prefix=%s" % prefix)
                raise RuntimeError("boom mid-build")

        repo.add_class("exploder", Exploder)
        session.seed_web()
        concrete = session.concretize(Spec("exploder"))
        prefix = session.store.layout.path_for_spec(concrete)
        with pytest.raises(RuntimeError):
            session.install("exploder")
        assert not os.path.exists(prefix)
        assert not session.db.installed(concrete)

    def test_build_error_wrapped_with_log(self, session):
        repo = session.repo.repos[0]
        from repro.fetch.mockweb import mock_checksum

        class NoInstall(Package):
            url = "https://mock.example.org/noinstall/noinstall-1.0.tar.gz"
            version("1.0", mock_checksum("noinstall", "1.0"))

            def install(self, spec, prefix):
                from repro.build.shell import make

                make("install")  # no configure/make first

        repo.add_class("noinstall", NoInstall)
        session.seed_web()
        with pytest.raises(InstallError, match="noinstall"):
            session.install("noinstall")
        assert not session.db.query("noinstall")

    def test_empty_prefix_rejected(self, session):
        repo = session.repo.repos[0]
        from repro.fetch.mockweb import mock_checksum

        class DoesNothing(Package):
            url = "https://mock.example.org/lazy/lazy-1.0.tar.gz"
            version("1.0", mock_checksum("lazy", "1.0"))

            def install(self, spec, prefix):
                pass  # never installs anything

        repo.add_class("lazy", DoesNothing)
        session.seed_web()
        with pytest.raises(InstallError, match="empty prefix"):
            session.install("lazy")

    def test_checksum_failure_aborts_install(self, session):
        cls = session.repo.get_class("libelf")
        url = cls(Spec("libelf@0.8.13"), session=session).url_for_version("0.8.13")
        session.web.corrupt(url)
        with pytest.raises(InstallError, match="libelf"):
            session.install("libelf@0.8.13")

    def test_failed_dep_stops_dependents(self, session):
        url = session.repo.get_class("libelf")(
            Spec("libelf@0.8.13"), session=session
        ).url_for_version("0.8.13")
        session.web.corrupt(url)
        with pytest.raises(InstallError):
            session.install("libdwarf")  # depends on libelf
        assert not session.db.query("libdwarf")
        assert not session.db.query("libelf")


class TestUninstall:
    def test_leaf_uninstall(self, session):
        spec, _ = session.install("libelf")
        prefix = session.store.layout.path_for_spec(spec)
        record = session.uninstall("libelf")
        assert record.spec.name == "libelf"
        assert not os.path.exists(prefix)

    def test_dependents_protected(self, installed_mpileaks):
        session, spec, _ = installed_mpileaks
        with pytest.raises(UninstallError, match="required by"):
            session.uninstall(spec["libelf"])

    def test_force(self, installed_mpileaks):
        session, spec, _ = installed_mpileaks
        session.installer.uninstall(spec["libelf"], force=True)
        assert not session.db.installed(spec["libelf"])

    def test_not_installed(self, session):
        with pytest.raises(Exception):
            session.uninstall("libelf")

    def test_ambiguous_query(self, session):
        session.install("libelf@0.8.13")
        session.install("libelf@0.8.12")
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="2 installed specs"):
            session.uninstall("libelf")


class TestExternalInstall:
    def test_external_registered_not_built(self, session):
        session.register_external("openmpi@1.8.2")
        spec, result = session.install("mpileaks ^openmpi")
        assert "openmpi" in [s.name for s in result.externals]
        assert "openmpi" not in result.built_names
        assert session.db.installed(spec["openmpi"])

    def test_dependent_links_against_external(self, session):
        prefix = session.register_external("openmpi@1.8.2")
        spec, _ = session.install("mpileaks ^openmpi")
        binary = os.path.join(session.store.layout.path_for_spec(spec), "bin", "mpileaks")
        from repro.build.loader import ldd

        resolved = ldd(binary, env={})
        assert resolved["libopenmpi.so.json"].startswith(prefix)
